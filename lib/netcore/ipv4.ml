(* IPv4 header encode/decode (no options). Addresses are int32 read in
   network order; ports and lengths are host ints. *)

type addr = int32

let header_bytes = 20

let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

type t = {
  src : addr;
  dst : addr;
  proto : int;
  ttl : int;
  total_len : int;
  ident : int;
  dscp : int;
}

let make ?(ttl = 64) ?(ident = 0) ?(dscp = 0) ~src ~dst ~proto ~total_len () =
  { src; dst; proto; ttl; total_len; ident; dscp }

(* Decimal digits only: [int_of_string] alone would take "0x10", "1_0" and
   "-1", and an octet above 255 would carry into its neighbour. *)
let addr_of_string s =
  let octet x =
    if x <> "" && String.length x <= 3 && String.for_all (fun c -> c >= '0' && c <= '9') x
    then
      let v = int_of_string x in
      if v <= 255 then v else invalid_arg "Ipv4.addr_of_string"
    else invalid_arg "Ipv4.addr_of_string"
  in
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      Int32.of_int ((octet a lsl 24) lor (octet b lsl 16) lor (octet c lsl 8) lor octet d)
  | _ -> invalid_arg "Ipv4.addr_of_string"

let addr_to_string a =
  let b i = Int32.to_int (Int32.logand (Int32.shift_right_logical a (i * 8)) 0xFFl) in
  Printf.sprintf "%d.%d.%d.%d" (b 3) (b 2) (b 1) (b 0)

let checksum_offset = 10

(* The header from its fields, with the checksum computed over the bytes
   written. *)
let encode_fields buf ~off ~src ~dst ~proto ~ttl ~total_len ~ident ~dscp =
  Bytes.set_uint8 buf off 0x45 (* version 4, IHL 5 *);
  Bytes.set_uint8 buf (off + 1) (dscp lsl 2);
  Bytes.set_uint16_be buf (off + 2) total_len;
  Bytes.set_uint16_be buf (off + 4) ident;
  Bytes.set_uint16_be buf (off + 6) 0x4000 (* DF *);
  Bytes.set_uint8 buf (off + 8) ttl;
  Bytes.set_uint8 buf (off + 9) proto;
  Bytes.set_uint16_be buf (off + checksum_offset) 0;
  Bytes.set_int32_be buf (off + 12) src;
  Bytes.set_int32_be buf (off + 16) dst;
  Bytes.set_uint16_be buf (off + checksum_offset)
    (Checksum.of_bytes buf ~off ~len:header_bytes)

let encode t buf ~off =
  encode_fields buf ~off ~src:t.src ~dst:t.dst ~proto:t.proto ~ttl:t.ttl
    ~total_len:t.total_len ~ident:t.ident ~dscp:t.dscp

let fields buf ~off =
  {
    src = Bytes.get_int32_be buf (off + 12);
    dst = Bytes.get_int32_be buf (off + 16);
    proto = Bytes.get_uint8 buf (off + 9);
    ttl = Bytes.get_uint8 buf (off + 8);
    total_len = Bytes.get_uint16_be buf (off + 2);
    ident = Bytes.get_uint16_be buf (off + 4);
    dscp = Bytes.get_uint8 buf (off + 1) lsr 2;
  }

(* Total decode: truncation and a wrong version nibble are typed errors,
   never exceptions — garbage from the wire must not escape a packet
   decode. *)
let decode_result buf ~off =
  if off < 0 || off + header_bytes > Bytes.length buf then
    Error "Ipv4.decode: truncated header"
  else if Bytes.get_uint8 buf off lsr 4 <> 4 then Error "Ipv4.decode: not IPv4"
  else Ok (fields buf ~off)

let decode buf ~off =
  if Bytes.get_uint8 buf off lsr 4 <> 4 then invalid_arg "Ipv4.decode: not IPv4";
  fields buf ~off

let header_valid buf ~off = Checksum.valid buf ~off ~len:header_bytes

(* In-place rewrite of the address at [pos] to the low 32 bits of [addr]
   (an int, so the NAT fast path boxes no [int32]), with the incremental
   checksum update one 16-bit half at a time. *)
let rewrite_addr buf ~off ~pos addr =
  let old_hi = Bytes.get_uint16_be buf (off + pos)
  and old_lo = Bytes.get_uint16_be buf (off + pos + 2) in
  let new_hi = (addr lsr 16) land 0xFFFF and new_lo = addr land 0xFFFF in
  Bytes.set_uint16_be buf (off + pos) new_hi;
  Bytes.set_uint16_be buf (off + pos + 2) new_lo;
  let c = Bytes.get_uint16_be buf (off + checksum_offset) in
  let c = Checksum.update ~old_csum:c ~old_field:old_hi ~new_field:new_hi in
  let c = Checksum.update ~old_csum:c ~old_field:old_lo ~new_field:new_lo in
  Bytes.set_uint16_be buf (off + checksum_offset) c

let rewrite_src buf ~off ~src = rewrite_addr buf ~off ~pos:12 src
let rewrite_dst buf ~off ~dst = rewrite_addr buf ~off ~pos:16 (Int32.to_int dst)
