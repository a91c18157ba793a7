(* Ethernet II framing. *)

type mac = int (* low 48 bits *)

let header_bytes = 14

let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806

type t = { dst : mac; src : mac; ethertype : int }

(* One or two hex digits per octet: [int_of_string] alone would take "-1"
   and "1_f", and a longer octet would carry into its neighbour. *)
let mac_of_string s =
  let hex_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  let octet x =
    if x <> "" && String.length x <= 2 && String.for_all hex_digit x then
      int_of_string ("0x" ^ x)
    else invalid_arg "Ethernet.mac_of_string"
  in
  match String.split_on_char ':' s with
  | [ _; _; _; _; _; _ ] as octets ->
      List.fold_left (fun acc x -> (acc lsl 8) lor octet x) 0 octets
  | _ -> invalid_arg "Ethernet.mac_of_string"

let mac_to_string m =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((m lsr 40) land 0xFF) ((m lsr 32) land 0xFF) ((m lsr 24) land 0xFF)
    ((m lsr 16) land 0xFF) ((m lsr 8) land 0xFF) (m land 0xFF)

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
