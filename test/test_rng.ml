(* Deterministic PRNG. *)

open Memsim

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits a = Rng.bits b)

let test_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_int_invalid () =
  let r = Rng.create 3 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_int_in_range () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range r ~lo:5 ~hi:9 in
    Alcotest.(check bool) "5 <= v <= 9" true (v >= 5 && v <= 9)
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_in_range r ~lo:3 ~hi:3)

let test_float_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_shuffle_permutation () =
  let r = Rng.create 6 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_shuffle_changes_order () =
  let r = Rng.create 6 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  Alcotest.(check bool) "order changed" true (arr <> Array.init 50 (fun i -> i))

let test_uniformity_coarse () =
  let r = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 20000 in
  for _ = 1 to n do
    let b = Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "each bucket within 20% of mean" true
        (abs (c - (n / 10)) < n / 50))
    buckets

let qcheck_int_bound =
  QCheck.Test.make ~name:"Rng.int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let qcheck_bits_nonneg =
  QCheck.Test.make ~name:"Rng.bits is non-negative" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      Rng.bits r >= 0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
    Alcotest.test_case "int_in_range" `Quick test_int_in_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "shuffle changes order" `Quick test_shuffle_changes_order;
    Alcotest.test_case "coarse uniformity" `Quick test_uniformity_coarse;
    Helpers.qcheck qcheck_int_bound;
    Helpers.qcheck qcheck_bits_nonneg;
  ]
