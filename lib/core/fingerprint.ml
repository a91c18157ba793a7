(* Stable 64-bit digests of observable state (FNV-1a). The differential
   oracle folds each executor run's final NF state into one of these and
   compares the hex strings: equal digests mean equal state without
   shipping the state itself across the comparison. Everything is fed as
   explicit integers/bytes so the digest is independent of in-memory
   representation (hash-table iteration order must be normalized by the
   caller before feeding). *)

type t = { mutable acc : int64 }

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let create () = { acc = offset_basis }

let feed_byte t b =
  t.acc <- Int64.mul (Int64.logxor t.acc (Int64.of_int (b land 0xff))) prime

let feed_int64 t x =
  for i = 0 to 7 do
    feed_byte t (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff)
  done

let feed_int t x = feed_int64 t (Int64.of_int x)
let feed_bool t b = feed_byte t (if b then 1 else 0)

let feed_string t s =
  feed_int t (String.length s);
  String.iter (fun c -> feed_byte t (Char.code c)) s

let feed_sub t b ~off ~len =
  feed_int t len;
  for i = off to off + len - 1 do
    feed_byte t (Char.code (Bytes.get b i))
  done

let feed_int_array t a =
  feed_int t (Array.length a);
  Array.iter (feed_int t) a

let feed_int64_array t a =
  feed_int t (Array.length a);
  Array.iter (feed_int64 t) a

let to_hex t = Printf.sprintf "%016Lx" t.acc

(* One-shot convenience: digest of a feeding function. *)
let of_fn f =
  let t = create () in
  f t;
  to_hex t
