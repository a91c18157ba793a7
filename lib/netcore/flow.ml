(* Network flows: 5-tuples and their hash keys. *)

type t = {
  src_ip : Ipv4.addr;
  dst_ip : Ipv4.addr;
  src_port : int;
  dst_port : int;
  proto : int;
}

let make ~src_ip ~dst_ip ~src_port ~dst_port ~proto =
  { src_ip; dst_ip; src_port; dst_port; proto }

let equal a b =
  Int32.equal a.src_ip b.src_ip
  && Int32.equal a.dst_ip b.dst_ip
  && a.src_port = b.src_port
  && a.dst_port = b.dst_port
  && a.proto = b.proto

(* 64-bit mix (splitmix finalizer) — the flow-table key hash. Collision-safe lookups compare the full tuple on the OCaml side.
   Inlined so that the key's intermediates stay unboxed: only [key64]'s
   result is boxed, and [write_key64] boxes nothing. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] key_bits t =
  let open Int64 in
  let ip_part =
    logor
      (shift_left (logand (of_int32 t.src_ip) 0xFFFFFFFFL) 32)
      (logand (of_int32 t.dst_ip) 0xFFFFFFFFL)
  in
  let port_part = of_int ((t.src_port lsl 24) lxor (t.dst_port lsl 8) lxor t.proto) in
  mix64 (logxor (mix64 ip_part) port_part)

let key64 t = key_bits t

(* The key written where a probe reads it, without boxing it. *)
let write_key64 t buf off = Bytes.set_int64_le buf off (key_bits t)

let pp ppf t =
  Fmt.pf ppf "%s:%d -> %s:%d/%d"
    (Ipv4.addr_to_string t.src_ip) t.src_port
    (Ipv4.addr_to_string t.dst_ip) t.dst_port t.proto
