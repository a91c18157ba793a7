(* Ethernet II framing. *)

type mac = int (* low 48 bits *)

let header_bytes = 14

let ethertype_ipv4 = 0x0800

type t = { dst : mac; src : mac; ethertype : int }

(* A MAC is a 16-bit high half and a 32-bit low half on the wire. *)
let put_mac buf off m =
  Bytes.set_uint16_be buf off ((m lsr 32) land 0xFFFF);
  Bytes.set_int32_be buf (off + 2) (Int32.of_int m)

let get_mac buf off =
  (Bytes.get_uint16_be buf off lsl 32)
  lor (Int32.to_int (Bytes.get_int32_be buf (off + 2)) land 0xFFFFFFFF)

let encode_fields buf ~off ~dst ~src ~ethertype =
  put_mac buf off dst;
  put_mac buf (off + 6) src;
  Bytes.set_uint16_be buf (off + 12) ethertype

let encode t buf ~off = encode_fields buf ~off ~dst:t.dst ~src:t.src ~ethertype:t.ethertype

let decode buf ~off =
  {
    dst = get_mac buf off;
    src = get_mac buf (off + 6);
    ethertype = Bytes.get_uint16_be buf (off + 12);
  }
