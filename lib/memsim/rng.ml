(* Deterministic splitmix64 PRNG.

   All simulations in this repository must be reproducible run-to-run, so we
   avoid [Random] (whose default state is shared and seedable globally) in
   favour of explicitly threaded generator values. *)

(* The 64-bit state lives unboxed in an 8-byte buffer, so a draw stores
   it in place instead of allocating a fresh boxed [int64]. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

(* Advance the state and mix it. Inlined into every consumer so the
   result stays unboxed until it is narrowed to an [int] or [float]. *)
let[@inline always] next t =
  let open Int64 in
  let z = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.to_int (next t) land 1 = 1

(* Fisher-Yates shuffle, in place. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
