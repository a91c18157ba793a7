(* Libpcap-format trace export/import (classic 2.4 format, little-endian,
   LINKTYPE_ETHERNET). Packets are written with their real header bytes;
   the virtual payload appears as the original length, truncated capture —
   exactly what a snaplen-limited capture looks like. *)

let magic = 0xA1B2C3D4
let version_major = 2
let version_minor = 4
let linktype_ethernet = 1
let snaplen = 65535

let put_u32le buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let put_u16le buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

type writer = Buffer.t

let create_writer () =
  let buf = Buffer.create 4096 in
  put_u32le buf magic;
  put_u16le buf version_major;
  put_u16le buf version_minor;
  put_u32le buf 0 (* thiszone *);
  put_u32le buf 0 (* sigfigs *);
  put_u32le buf snaplen;
  put_u32le buf linktype_ethernet;
  buf

(* [ts_us] is the timestamp in microseconds (simulated time works fine). *)
let add_packet w ~ts_us (p : Packet.t) =
  let incl = min (min p.Packet.hdr_len snaplen) p.Packet.wire_len in
  put_u32le w (ts_us / 1_000_000);
  put_u32le w (ts_us mod 1_000_000);
  put_u32le w incl;
  put_u32le w p.Packet.wire_len;
  Buffer.add_subbytes w p.Packet.buf 0 incl

let contents = Buffer.contents

let write_file w path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (contents w))

(* ----- reading (for tests and inspection) ----- *)

type record = { ts_us : int; data : Bytes.t; orig_len : int }

exception Bad_capture of string

let get_u32le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let get_u16le s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

(* Total parse: every malformed-input case is a typed [Error], so decoding
   captured bytes can never raise out of the data path. *)
let parse_result s =
  if String.length s < 24 then Error "truncated global header"
  else if get_u32le s 0 <> magic then Error "bad magic (or byte-swapped)"
  else if get_u16le s 4 <> version_major then Error "unsupported version"
  else if get_u32le s 20 <> linktype_ethernet then Error "not Ethernet"
  else begin
    let n = String.length s in
    let rec go off acc =
      if off = n then Ok (List.rev acc)
      else if off + 16 > n then Error "truncated record header"
      else
        let ts_sec = get_u32le s off in
        let ts_usec = get_u32le s (off + 4) in
        let incl = get_u32le s (off + 8) in
        let orig_len = get_u32le s (off + 12) in
        if incl < 0 || off + 16 + incl > n then Error "truncated record data"
        else
          let data = Bytes.of_string (String.sub s (off + 16) incl) in
          go (off + 16 + incl)
            ({ ts_us = (ts_sec * 1_000_000) + ts_usec; data; orig_len } :: acc)
    in
    go 24 []
  end

let parse s =
  match parse_result s with Ok r -> r | Error e -> raise (Bad_capture e)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
