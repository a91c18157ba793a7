(* The telemetry plane: inertness (a run with the tracer attached is
   byte-identical to one without), exact reconciliation of cache-level
   attribution against Memstats, well-formed Chrome trace export, and the
   telemetry invariants flagging tampered traces. Plus the satellite
   percentile/Memstats algebra pins. *)

open Gunfu
open Check

let strip e =
  ( e.Oracle.e_flow, e.Oracle.e_aux, e.Oracle.e_event, e.Oracle.e_dropped,
    e.Oracle.e_wire, e.Oracle.e_pkt, e.Oracle.e_clock )

(* ----- inertness: the other half of the plane's contract ----- *)

let test_attached_tracer_identical () =
  List.iter
    (fun exec ->
      let case = Progen.case ~seed:23 ~profile:"mix" ~packets:64 in
      let plain =
        Oracle.observe exec (case.Oracle.c_build ~packets:case.Oracle.c_packets)
      in
      let tr = Trace.create () in
      let traced =
        Oracle.observe ~telemetry:tr
          exec
          (case.Oracle.c_build ~packets:case.Oracle.c_packets)
      in
      Alcotest.(check string)
        (Exec.label exec ^ ": state digest identical")
        plain.Oracle.o_state traced.Oracle.o_state;
      Alcotest.(check bool)
        (Exec.label exec ^ ": emit streams identical")
        true
        (List.map strip plain.Oracle.o_emits = List.map strip traced.Oracle.o_emits);
      Alcotest.(check int)
        (Exec.label exec ^ ": cycle-identical")
        plain.Oracle.o_run.Metrics.cycles traced.Oracle.o_run.Metrics.cycles;
      (* And the tracer actually saw the run. *)
      Alcotest.(check int)
        (Exec.label exec ^ ": every pull traced")
        traced.Oracle.o_run.Metrics.packets (Trace.pulls tr);
      Alcotest.(check int)
        (Exec.label exec ^ ": every completion traced")
        traced.Oracle.o_run.Metrics.packets (Trace.completes tr))
    [ Oracle.reference; List.hd Oracle.executors; List.nth Oracle.executors 5 ]

(* Satellite of the compile-and-specialize pass: with the tracer armed the
   specialized path must stay observation- AND span-identical — same pulls,
   completions, attributed cycles and span stream as the interpreted run,
   and the budget/memstats invariants must still reconcile. *)
let test_specialized_traced_identical () =
  List.iter
    (fun exec ->
      let case = Progen.case ~seed:29 ~profile:"mix" ~packets:256 in
      let tr_i = Trace.create () in
      let interp =
        Oracle.observe ~telemetry:tr_i exec (case.Oracle.c_build ~packets:256)
      in
      let tr_s = Trace.create () in
      let spec =
        Oracle.observe ~specialize:true ~telemetry:tr_s exec
          (case.Oracle.c_build ~packets:256)
      in
      let label = spec.Oracle.o_label in
      (match Oracle.diff_observations ~reference:interp spec with
      | None -> ()
      | Some d -> Alcotest.failf "%s diverges when traced: %s" label d);
      Alcotest.(check int) (label ^ ": pulls equal") (Trace.pulls tr_i)
        (Trace.pulls tr_s);
      Alcotest.(check int) (label ^ ": completions equal") (Trace.completes tr_i)
        (Trace.completes tr_s);
      Alcotest.(check int)
        (label ^ ": attributed cycle budget equal")
        (Trace.attributed_cycles tr_i) (Trace.attributed_cycles tr_s);
      Alcotest.(check bool) (label ^ ": span streams identical") true
        (Trace.spans tr_i = Trace.spans tr_s);
      (match Invariants.check_telemetry tr_s spec.Oracle.o_run with
      | [] -> ()
      | viol :: _ ->
          Alcotest.failf "%s traced run violates %s: %s" label viol.Oracle.v_rule
            viol.Oracle.v_detail);
      match Telemetry.Attribution.reconcile tr_s spec.Oracle.o_run.Metrics.mem with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: attribution does not reconcile: %s" label e)
    [ Oracle.reference; List.hd Oracle.executors; List.nth Oracle.executors 5 ]

(* ----- a traced run to dissect ----- *)

let traced_run ?(packets = 10_000) ?(exec = Oracle.reference) () =
  let case = Progen.case ~seed:5 ~profile:"zipf" ~packets in
  let tr = Trace.create () in
  let obs =
    Oracle.observe ~telemetry:tr exec (case.Oracle.c_build ~packets)
  in
  (tr, obs.Oracle.o_run)

let test_reconciles_with_memstats () =
  let tr, run = traced_run () in
  Alcotest.(check int) "10k packets pulled" 10_000 (Trace.pulls tr);
  (match Telemetry.Attribution.reconcile tr run.Metrics.mem with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attribution does not reconcile: %s" e);
  (* The ring overflowed on a run this long; the books must not care. *)
  Alcotest.(check bool) "ring actually dropped spans" true (Trace.dropped tr > 0);
  match Invariants.check_telemetry tr run with
  | [] -> ()
  | viol :: _ ->
      Alcotest.failf "traced run violates %s: %s" viol.Oracle.v_rule
        viol.Oracle.v_detail

let test_scheduler_trace_clean () =
  (* The scheduler path exercises switches, occupancy and MSHR waits. *)
  let exec = List.nth Oracle.executors 5 in
  let tr, run = traced_run ~packets:512 ~exec () in
  Alcotest.(check int) "no spans dropped at 512 packets" 0 (Trace.dropped tr);
  Alcotest.(check bool) "switch spans recorded" true (Trace.switch_cycles tr > 0);
  Alcotest.(check bool) "occupancy sampled" true
    (Array.length (Trace.occupancy tr) > 0);
  (match Invariants.check_telemetry tr run with
  | [] -> ()
  | viol :: _ ->
      Alcotest.failf "%s traced run violates %s: %s" (Exec.label exec)
        viol.Oracle.v_rule viol.Oracle.v_detail);
  match Telemetry.Attribution.reconcile tr run.Metrics.mem with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attribution does not reconcile: %s" e

let test_chrome_export_valid () =
  let tr, _ = traced_run ~packets:512 () in
  let s = Telemetry.Chrome.export_string tr in
  match Telemetry.Chrome.validate_string s with
  | Ok n -> Alcotest.(check bool) "events exported" true (n > 0)
  | Error e -> Alcotest.failf "exported Chrome trace invalid: %s" e

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_attribution_report_renders () =
  let tr, run = traced_run ~packets:512 () in
  let report = Telemetry.Attribution.report ~run tr in
  List.iter
    (fun needle ->
      if not (contains report needle) then Alcotest.failf "report lacks %S" needle)
    [ "reconcil"; "attributed"; "pull" ]

(* ----- tamper detection ----- *)

let test_tampered_nesting_flagged () =
  let tr, run = traced_run ~packets:256 () in
  Alcotest.(check int) "no drops" 0 (Trace.dropped tr);
  let spans = Trace.spans tr in
  (* Drag one in-action memory span outside its enclosing action. *)
  let doctored =
    Array.map
      (fun sp ->
        if
          sp.Trace.sp_phase = Trace.State_access
          && sp.Trace.sp_unit >= 0
        then { sp with Trace.sp_ts = sp.Trace.sp_ts + 1_000_000 }
        else sp)
      spans
  in
  Alcotest.(check bool) "clean spans pass" true
    (Invariants.check_telemetry ~spans tr run = []);
  match
    List.filter
      (fun v -> v.Oracle.v_rule = "span-nesting")
      (Invariants.check_telemetry ~spans:doctored tr run)
  with
  | [] -> Alcotest.fail "doctored span escaped the nesting rule"
  | _ -> ()

let test_tampered_budget_flagged () =
  let tr, run = traced_run ~packets:256 () in
  let attributed = Trace.attributed_cycles tr in
  Alcotest.(check bool) "trace attributes cycles" true (attributed > 0);
  let shrunk = { run with Metrics.cycles = attributed - 1 } in
  match
    List.filter
      (fun v -> v.Oracle.v_rule = "span-budget")
      (Invariants.check_telemetry tr shrunk)
  with
  | [] -> Alcotest.fail "over-attribution escaped the budget rule"
  | _ -> ()

let test_tampered_memstats_flagged () =
  let tr, run = traced_run ~packets:256 () in
  let mem = { run.Metrics.mem with Memsim.Memstats.l1_hits = run.Metrics.mem.Memsim.Memstats.l1_hits + 1 } in
  let doctored = { run with Metrics.mem = mem } in
  match
    List.filter
      (fun v -> v.Oracle.v_rule = "span-memstats")
      (Invariants.check_telemetry tr doctored)
  with
  | [] -> Alcotest.fail "counter drift escaped the memstats rule"
  | _ -> ()

(* ----- Collector percentile edge cases (nearest-rank) ----- *)

let summarize_of samples =
  let c = Metrics.Collector.create () in
  List.iter (Metrics.Collector.record c) samples;
  Metrics.Collector.summarize c

let test_collector_empty () =
  Alcotest.(check bool) "0 samples summarize to None" true (summarize_of [] = None)

let test_collector_single () =
  match summarize_of [ 42 ] with
  | None -> Alcotest.fail "1 sample must summarize"
  | Some l ->
      Alcotest.(check int) "count" 1 l.Metrics.l_count;
      Alcotest.(check int) "p50 is the sample" 42 l.Metrics.l_p50;
      Alcotest.(check int) "p90 is the sample" 42 l.Metrics.l_p90;
      Alcotest.(check int) "p99 is the sample" 42 l.Metrics.l_p99;
      Alcotest.(check int) "max is the sample" 42 l.Metrics.l_max;
      Alcotest.(check (float 1e-9)) "mean is the sample" 42.0 l.Metrics.l_mean

let test_collector_nearest_rank_small_n () =
  (* n = 4: nearest rank = ceil(p*n/100), so p50 -> rank 2, p90/p99 -> rank 4. *)
  (match summarize_of [ 40; 10; 30; 20 ] with
  | None -> Alcotest.fail "4 samples must summarize"
  | Some l ->
      Alcotest.(check int) "p50 = 2nd of 4" 20 l.Metrics.l_p50;
      Alcotest.(check int) "p90 = 4th of 4" 40 l.Metrics.l_p90;
      Alcotest.(check int) "p99 = 4th of 4" 40 l.Metrics.l_p99);
  (* n = 2: p50 -> rank 1 (the smaller sample), not an interpolation. *)
  match summarize_of [ 100; 10 ] with
  | None -> Alcotest.fail "2 samples must summarize"
  | Some l ->
      Alcotest.(check int) "p50 = 1st of 2" 10 l.Metrics.l_p50;
      Alcotest.(check int) "p99 = 2nd of 2" 100 l.Metrics.l_p99

(* ----- Memstats algebra round-trips ----- *)

let mem_a =
  {
    Memsim.Memstats.reads = 101; writes = 57; line_accesses = 340; l1_hits = 200;
    l2_hits = 80; llc_hits = 30; dram_fills = 20; mshr_waits = 10;
    wait_cycles = 777; prefetch_issued = 44; prefetch_redundant = 5;
    prefetch_dropped = 2; mshr_stalls = 1;
  }

let mem_b =
  {
    Memsim.Memstats.reads = 11; writes = 3; line_accesses = 29; l1_hits = 17;
    l2_hits = 6; llc_hits = 3; dram_fills = 2; mshr_waits = 1; wait_cycles = 66;
    prefetch_issued = 4; prefetch_redundant = 1; prefetch_dropped = 0;
    mshr_stalls = 0;
  }

let test_memstats_roundtrip () =
  Alcotest.(check bool) "diff (add a b) b = a" true
    (Memsim.Memstats.diff (Memsim.Memstats.add mem_a mem_b) mem_b = mem_a);
  Alcotest.(check bool) "add (diff a b) b = a" true
    (Memsim.Memstats.add (Memsim.Memstats.diff mem_a mem_b) mem_b = mem_a);
  Alcotest.(check bool) "zero is the add identity" true
    (Memsim.Memstats.add mem_a Memsim.Memstats.zero = mem_a);
  Alcotest.(check bool) "diff with self is zero" true
    (Memsim.Memstats.diff mem_a mem_a = Memsim.Memstats.zero)

(* ----- Hist sanity ----- *)

let test_hist_percentiles () =
  let h = Trace.Hist.create () in
  Alcotest.(check int) "empty percentile" 0 (Trace.Hist.percentile h 99);
  for v = 1 to 15 do
    Trace.Hist.record h v
  done;
  (* Below 16 the histogram is exact. *)
  Alcotest.(check int) "exact p50 on 1..15" 8 (Trace.Hist.percentile h 50);
  Alcotest.(check int) "exact p99 on 1..15" 15 (Trace.Hist.percentile h 99);
  Trace.Hist.record h 1_000_000;
  Alcotest.(check int) "max tracks the outlier" 1_000_000 (Trace.Hist.max_value h);
  let p99 = Trace.Hist.percentile h 99 in
  Alcotest.(check bool) "p99 within 1/16 below the outlier" true
    (p99 <= 1_000_000 && float_of_int p99 >= 1_000_000.0 *. (1.0 -. 1.0 /. 16.0) *. 0.5)

let suite =
  [
    Alcotest.test_case "attached tracer changes nothing" `Quick
      test_attached_tracer_identical;
    Alcotest.test_case "specialized traced run identical" `Quick
      test_specialized_traced_identical;
    Alcotest.test_case "10k-packet trace reconciles with memstats" `Slow
      test_reconciles_with_memstats;
    Alcotest.test_case "scheduler trace clean" `Quick test_scheduler_trace_clean;
    Alcotest.test_case "chrome export well-formed" `Quick test_chrome_export_valid;
    Alcotest.test_case "attribution report renders" `Quick
      test_attribution_report_renders;
    Alcotest.test_case "tampered nesting flagged" `Quick test_tampered_nesting_flagged;
    Alcotest.test_case "tampered budget flagged" `Quick test_tampered_budget_flagged;
    Alcotest.test_case "tampered memstats flagged" `Quick
      test_tampered_memstats_flagged;
    Alcotest.test_case "collector: empty" `Quick test_collector_empty;
    Alcotest.test_case "collector: single sample" `Quick test_collector_single;
    Alcotest.test_case "collector: nearest rank on small n" `Quick
      test_collector_nearest_rank_small_n;
    Alcotest.test_case "memstats diff/add round-trips" `Quick test_memstats_roundtrip;
    Alcotest.test_case "hist percentiles" `Quick test_hist_percentiles;
  ]
