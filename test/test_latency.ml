(* Per-packet latency collection and its executor integration. *)

open Gunfu

let test_collector_empty () =
  let c = Metrics.Collector.create () in
  Alcotest.(check bool) "no samples -> None" true (Metrics.Collector.summarize c = None)

let test_collector_percentiles () =
  let c = Metrics.Collector.create () in
  (* 1..100 shuffled: nearest-rank percentiles are the values themselves
     (rank ceil(p*n/100) of 1..100 is exactly p). *)
  let vals = Array.init 100 (fun i -> i + 1) in
  Memsim.Rng.shuffle (Memsim.Rng.create 3) vals;
  Array.iter (fun v -> Metrics.Collector.record c v) vals;
  match Metrics.Collector.summarize c with
  | None -> Alcotest.fail "expected a summary"
  | Some l ->
      Alcotest.(check int) "count" 100 l.Metrics.l_count;
      Alcotest.(check (float 1e-9)) "mean" 50.5 l.Metrics.l_mean;
      Alcotest.(check int) "p50" 50 l.Metrics.l_p50;
      Alcotest.(check int) "p90" 90 l.Metrics.l_p90;
      Alcotest.(check int) "p99" 99 l.Metrics.l_p99;
      Alcotest.(check int) "max" 100 l.Metrics.l_max

let test_collector_growth () =
  let c = Metrics.Collector.create () in
  for i = 1 to 5000 do
    Metrics.Collector.record c i
  done;
  match Metrics.Collector.summarize c with
  | Some l ->
      Alcotest.(check int) "count grows past initial capacity" 5000 l.Metrics.l_count;
      Alcotest.(check int) "max" 5000 l.Metrics.l_max
  | None -> Alcotest.fail "expected a summary"

(* The summary as a full sort computes it: nearest-rank percentiles read off
   the sorted samples, max from the tail, mean from the sum. *)
let reference_summary samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pct p = sorted.(max 0 ((((p * n) + 99) / 100) - 1)) in
  {
    Metrics.l_count = n;
    l_mean = float_of_int (Array.fold_left ( + ) 0 sorted) /. float_of_int n;
    l_p50 = pct 50;
    l_p90 = pct 90;
    l_p99 = pct 99;
    l_max = sorted.(n - 1);
  }

(* Sample arrays of 1..400 values in the shapes selection can get wrong:
   uniform, heavy ties (few distinct values), all equal, sorted and
   reverse-sorted. Sizes 1 and 2 are drawn often. *)
let samples_gen =
  let open QCheck.Gen in
  let* n = frequency [ (1, return 1); (1, return 2); (6, int_range 1 400) ] in
  let* shape = int_bound 4 in
  let* vals =
    match shape with
    | 0 -> array_size (return n) (int_bound 1_000_000)
    | 1 -> array_size (return n) (int_bound 3)
    | 2 -> map (Array.make n) (int_bound 1000)
    | _ -> array_size (return n) (int_bound 500)
  in
  if shape = 3 then Array.sort compare vals;
  if shape = 4 then Array.sort (fun a b -> compare b a) vals;
  return vals

let qcheck_summarize_matches_sort =
  QCheck.Test.make ~name:"summarize matches the sorted reference" ~count:500
    (QCheck.make ~print:QCheck.Print.(array int) samples_gen)
    (fun samples ->
      let c = Metrics.Collector.create () in
      Array.iter (Metrics.Collector.record c) samples;
      Metrics.Collector.summarize c = Some (reference_summary samples))

let run_nat model =
  let s = Helpers.nat_setup ~n_flows:8192 () in
  match model with
  | `Rtc -> Rtc.run s.Helpers.worker s.Helpers.program (Helpers.nat_source s ~count:3000)
  | `Batch ->
      Exec.run (`Batch Batch_rtc.default_batch) s.Helpers.worker s.Helpers.program
        (Helpers.nat_source s ~count:3000)
  | `Il n ->
      Scheduler.run s.Helpers.worker s.Helpers.program ~n_tasks:n
        (Helpers.nat_source s ~count:3000)

let latency_of r =
  match r.Metrics.latency with
  | Some l -> l
  | None -> Alcotest.fail "executor did not collect latency"

let test_executors_collect () =
  List.iter
    (fun model ->
      let r = run_nat model in
      let l = latency_of r in
      Alcotest.(check int) "one sample per packet" r.Metrics.packets l.Metrics.l_count;
      Alcotest.(check bool) "ordered percentiles" true
        (l.Metrics.l_p50 <= l.Metrics.l_p90
        && l.Metrics.l_p90 <= l.Metrics.l_p99
        && l.Metrics.l_p99 <= l.Metrics.l_max);
      Alcotest.(check bool) "positive latency" true (l.Metrics.l_p50 > 0))
    [ `Rtc; `Batch; `Il 16 ]

let test_latency_ordering_between_models () =
  (* RTC has the lowest per-packet latency (no holding); interleaving holds
     packets across switches; batching additionally queues whole batches. *)
  let rtc = latency_of (run_nat `Rtc) in
  let il = latency_of (run_nat (`Il 16)) in
  let batch = latency_of (run_nat `Batch) in
  Alcotest.(check bool) "RTC p50 < interleaved p50" true
    (rtc.Metrics.l_p50 < il.Metrics.l_p50);
  Alcotest.(check bool) "interleaved p50 < batch p50" true
    (il.Metrics.l_p50 < batch.Metrics.l_p50)

let test_latency_bounded_by_run () =
  let r = run_nat (`Il 8) in
  let l = latency_of r in
  Alcotest.(check bool) "max latency below total run cycles" true
    (l.Metrics.l_max <= r.Metrics.cycles)

let test_cycles_to_ns () =
  let r = run_nat `Rtc in
  Alcotest.(check (float 1e-9)) "2.7 cycles = 1 ns at 2.7 GHz" 1.0
    (Metrics.cycles_to_ns r 27 /. 10.0)

let suite =
  [
    Alcotest.test_case "collector empty" `Quick test_collector_empty;
    Alcotest.test_case "collector percentiles" `Quick test_collector_percentiles;
    Alcotest.test_case "collector growth" `Quick test_collector_growth;
    Helpers.qcheck qcheck_summarize_matches_sort;
    Alcotest.test_case "executors collect" `Quick test_executors_collect;
    Alcotest.test_case "model latency ordering" `Quick test_latency_ordering_between_models;
    Alcotest.test_case "latency bounded by run" `Quick test_latency_bounded_by_run;
    Alcotest.test_case "cycles_to_ns" `Quick test_cycles_to_ns;
  ]
