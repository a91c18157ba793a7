(* GTP-U (GPRS Tunnelling Protocol, user plane) — the encapsulation the UPF
   applies between the core network and the RAN. 8-byte mandatory header. *)

let header_bytes = 8
let udp_port = 2152
let msg_gpdu = 0xFF

type t = { msg_type : int; length : int; teid : int32 }

let make ?(msg_type = msg_gpdu) ~teid ~length () = { msg_type; length; teid }

let encode_fields buf ~off ~msg_type ~length ~teid =
  Bytes.set_uint8 buf off 0x30 (* version 1, PT=1, no extensions *);
  Bytes.set_uint8 buf (off + 1) msg_type;
  Bytes.set_uint16_be buf (off + 2) length;
  Bytes.set_int32_be buf (off + 4) teid

let encode t buf ~off =
  encode_fields buf ~off ~msg_type:t.msg_type ~length:t.length ~teid:t.teid

let decode buf ~off =
  if Bytes.get_uint8 buf off lsr 5 <> 1 then invalid_arg "Gtpu.decode: unsupported version";
  {
    msg_type = Bytes.get_uint8 buf (off + 1);
    length = Bytes.get_uint16_be buf (off + 2);
    teid = Bytes.get_int32_be buf (off + 4);
  }

(* Total overhead of a GTP-U tunnel on an inner IP packet:
   outer IPv4 + outer UDP + GTP-U. *)
let encap_overhead = Ipv4.header_bytes + L4.udp_header_bytes + header_bytes
