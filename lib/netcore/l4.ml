(* Minimal UDP and TCP header handling — enough for stateful NFs that match
   and rewrite ports. *)

let udp_header_bytes = 8
let tcp_header_bytes = 20

type udp = { src_port : int; dst_port : int; length : int }

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type tcp = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : tcp_flags;
  window : int;
}

let encode_udp_fields buf ~off ~src_port ~dst_port ~length =
  Bytes.set_uint16_be buf off src_port;
  Bytes.set_uint16_be buf (off + 2) dst_port;
  Bytes.set_uint16_be buf (off + 4) length;
  Bytes.set_uint16_be buf (off + 6) 0 (* checksum optional over IPv4 *)

let encode_udp (u : udp) buf ~off =
  encode_udp_fields buf ~off ~src_port:u.src_port ~dst_port:u.dst_port ~length:u.length

let decode_udp buf ~off : udp =
  {
    src_port = Bytes.get_uint16_be buf off;
    dst_port = Bytes.get_uint16_be buf (off + 2);
    length = Bytes.get_uint16_be buf (off + 4);
  }

(* Total decode with bounds checks — truncated transport headers are a
   typed error, not an out-of-bounds exception. *)
let decode_udp_result buf ~off =
  if off < 0 || off + udp_header_bytes > Bytes.length buf then
    Error "L4.decode_udp: truncated header"
  else Ok (decode_udp buf ~off)

let flags_byte f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor if f.ack then 0x10 else 0

let flags_of_byte b =
  { fin = b land 0x01 <> 0; syn = b land 0x02 <> 0; rst = b land 0x04 <> 0; ack = b land 0x10 <> 0 }

let encode_tcp_fields buf ~off ~src_port ~dst_port ~seq ~ack_seq ~flags ~window =
  Bytes.set_uint16_be buf off src_port;
  Bytes.set_uint16_be buf (off + 2) dst_port;
  Bytes.set_int32_be buf (off + 4) seq;
  Bytes.set_int32_be buf (off + 8) ack_seq;
  Bytes.set_uint8 buf (off + 12) 0x50 (* data offset 5 *);
  Bytes.set_uint8 buf (off + 13) (flags_byte flags);
  Bytes.set_uint16_be buf (off + 14) window;
  Bytes.set_uint16_be buf (off + 16) 0 (* checksum: not computed in simulation *);
  Bytes.set_uint16_be buf (off + 18) 0

let encode_tcp (t : tcp) buf ~off =
  encode_tcp_fields buf ~off ~src_port:t.src_port ~dst_port:t.dst_port ~seq:t.seq
    ~ack_seq:t.ack_seq ~flags:t.flags ~window:t.window

let decode_tcp buf ~off : tcp =
  {
    src_port = Bytes.get_uint16_be buf off;
    dst_port = Bytes.get_uint16_be buf (off + 2);
    seq = Bytes.get_int32_be buf (off + 4);
    ack_seq = Bytes.get_int32_be buf (off + 8);
    flags = flags_of_byte (Bytes.get_uint8 buf (off + 13));
    window = Bytes.get_uint16_be buf (off + 14);
  }

let decode_tcp_result buf ~off =
  if off < 0 || off + tcp_header_bytes > Bytes.length buf then
    Error "L4.decode_tcp: truncated header"
  else Ok (decode_tcp buf ~off)

(* Port rewrites shared by UDP and TCP (ports sit at the same offsets). *)
let rewrite_src_port buf ~off ~port = Bytes.set_uint16_be buf off port
let src_port buf ~off = Bytes.get_uint16_be buf off
let dst_port buf ~off = Bytes.get_uint16_be buf (off + 2)
