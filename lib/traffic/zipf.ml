(* Zipf(s) sampler over ranks 1..n via inverse-CDF binary search on a
   precomputed table. Rank 0 (returned 0-based) is the most popular. *)

type t = { cdf : float array }

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0.0 then invalid_arg "Zipf.create: s must be non-negative";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  { cdf }

(* Smallest index with cdf.(i) >= u. *)
let sample t rng =
  let u = Memsim.Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* Probability mass of rank [i] (0-based). *)
let pmf t i =
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)
