(* Repository benchmark: simulated and host cost of three workloads.

     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
     perfbench.exe selfcheck [--seed N]

   [--trace 0] measures the end-to-end metrics with nothing attached;
   [--trace 1] is a separate run that takes the per-layer numbers by timing
   and counting the benchmark's own calls into each layer, and prints where
   the host time goes. Either way the last line of standard output is one
   JSON object {correct, attempted, failed, metrics}; the exit code is 1
   when an output check fails. Workloads are described in workloads.ml. *)

open Gunfu
open Hostcost
module W = Workloads

(* Set-ups per end-to-end run; setup_s is their median. *)
let setups = 5

(* peak_heap_mb is read after this many measured chunks: a fixed amount of
   work, so it is a deterministic function of the seed, however many chunks
   the time budget allows (the heap keeps growing over a run). *)
let heap_chunks = 20

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ----- output ----- *)

(* Prints the result line and returns the final verdict: a value that is
   not a finite number (JSON has none) marks the run incorrect. *)
let print_result ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let body =
    List.map
      (fun (name, v, unit) ->
        let v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name v unit)
      metrics
  in
  let correct = correct && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body);
  correct

let gc_params () =
  let g = Gc.get () in
  Printf.sprintf
    "minor_heap_size=%d words, space_overhead=%d, max_overhead=%d, allocation_policy=%d, \
     window_size=%d, stack_limit=%d"
    g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.max_overhead g.Gc.allocation_policy
    g.Gc.window_size g.Gc.stack_limit

let header (w : W.t) ~seed ~trace =
  Printf.printf "perfbench %s seed=%d trace=%d: closed loop, one OS thread, %d flows, chunks of %d packets\n"
    w.W.name seed trace W.n_flows w.W.chunk_packets;
  Printf.printf "  gc (defaults, untuned): %s\n" (gc_params ())

(* ----- conservation over measured chunks ----- *)

type tally = { mutable offered : int; mutable delivered : int }

(* Every offered packet completes; emits + drops + faulted = offered, and
   the emit count is confirmed independently by the bytes on the wire. *)
let add_chunk t (w : W.t) (r : Metrics.run) =
  t.offered <- t.offered + w.W.chunk_packets;
  let emits = r.Metrics.packets - r.Metrics.drops - r.Metrics.faulted in
  if r.Metrics.packets = w.W.chunk_packets && r.Metrics.wire_bytes = emits * w.W.out_len then
    t.delivered <- t.delivered + emits

let verdict t (v : W.verdict) =
  let attempted = t.offered + v.W.offered in
  let failed = min attempted (attempted - t.delivered - v.W.offered + v.W.failed) in
  (attempted, failed)

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* ----- end-to-end run (tracing off) ----- *)

let heap_mb () = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* [f ()] between two calibration loops: its result, its host seconds as
   timed, the host's slowdown while it ran (the mean of the two loops, see
   [Hostcost.Calib]) and the second loop's time. *)
let calibrated f =
  let before = Calib.run () in
  let r, ns = time f in
  let after = Calib.run () in
  (r, fi ns /. 1e9, Calib.slowdown ((before + after) / 2), after)

let e2e name ~seed ~seconds =
  (* The first loop of a process runs on fresh pages; it is not a sample. *)
  ignore (Calib.run () : int);
  let w, setup_first_s, setup_first_slow, cal0 = calibrated (fun () -> W.setup name ~seed) in
  header w ~seed ~trace:0;
  let tally = { offered = 0; delivered = 0 } in
  let kpps = ref [] and raw = ref [] and slow = ref [] and wpp = ref [] in
  (* Calibration loops bracket every chunk; the mean of the two around a
     chunk is the host's slowdown while it ran. *)
  let cal = ref cal0 in
  let chunk ?samples () =
    let w0 = words () in
    let r, ns = time (fun () -> w.W.measure ?samples ()) in
    let dw = words () -. w0 in
    let cal1 = Calib.run () in
    let slowdown = Calib.slowdown ((!cal + cal1) / 2) in
    cal := cal1;
    add_chunk tally w r;
    let k = fi r.Metrics.packets /. (fi ns /. 1e9) /. 1e3 in
    raw := k :: !raw;
    slow := slowdown :: !slow;
    kpps := (k *. slowdown) :: !kpps;
    wpp := (dw /. fi r.Metrics.packets) :: !wpp;
    r
  in
  let start = now_ns () in
  (* The first chunk has a fixed packet count, so the simulated metrics
     taken from it are deterministic functions of the seed, whatever number
     of chunks the time budget then allows. *)
  let samples = W.samples w.W.chunk_packets in
  let r0 = chunk ~samples () in
  let heap_first = heap_mb () in
  let peak_heap_mb = ref heap_first in
  while seconds_since start < fi seconds || List.length !kpps < heap_chunks do
    ignore (chunk () : Metrics.run);
    if List.length !kpps = heap_chunks then peak_heap_mb := heap_mb ()
  done;
  let measured_s = seconds_since start in
  let heap_last = heap_mb () in
  (* setup_s is the median, in seconds of an uncontended host, of the run's
     own set-up and [setups - 1] more, each built from a full collection,
     timed and dropped after the measured chunks. *)
  let setup_samples =
    (setup_first_s, setup_first_slow)
    :: List.init (setups - 1) (fun _ ->
           Gc.full_major ();
           let _, s, slow, _ = calibrated (fun () -> Sys.opaque_identity (W.setup name ~seed)) in
           (s, slow))
  in
  let v = w.W.verify () in
  let attempted, failed = verdict tally v in
  let sorted = W.sorted_samples samples in
  let lat p = Hostcost.quantile_interp sorted p /. r0.Metrics.freq_ghz in
  let host_kpps = median !kpps in
  Printf.printf "  measured %d chunks (%d packets) in %.2f s\n" (List.length !kpps)
    tally.offered measured_s;
  Printf.printf "  host kpps per chunk, as timed: min %.1f, median %.1f, max %.1f\n"
    (List.fold_left Float.min infinity !raw)
    (median !raw)
    (List.fold_left Float.max 0.0 !raw);
  Printf.printf "  host slowdown per chunk (calibration loop / %.1f ms): median %.3f\n"
    (Calib.reference_ns /. 1e6) (median !slow);
  Printf.printf "  host_kpps = median of (kpps as timed x slowdown) = %.1f\n" host_kpps;
  Printf.printf "  top heap: %.2f MB after the first chunk, %.2f MB after %d (reported), %.2f MB after the last\n"
    heap_first !peak_heap_mb heap_chunks heap_last;
  Printf.printf "  set-ups as timed (s) / slowdown: %s\n"
    (String.concat " " (List.map (fun (s, slow) -> Printf.sprintf "%.4f/%.3f" s slow) setup_samples));
  Printf.printf "  simulated latency samples: %d (first chunk)\n" (Array.length sorted);
  Printf.printf "  output checks: %d/%d packets failed%s\n" failed attempted
    (if v.W.note = "" then "" else "; " ^ v.W.note);
  print_result ~correct:(failed = 0) ~attempted ~failed
    [
      ("setup_s", median (List.map (fun (s, slow) -> s /. slow) setup_samples), "s");
      ("host_kpps", host_kpps, "kpps");
      ("alloc_words_per_pkt", median !wpp, "words");
      ("peak_heap_mb", !peak_heap_mb, "MB");
      ("sim_mpps", Metrics.mpps r0, "Mpps");
      ("sim_latency_p50_ns", lat 0.50, "ns");
      ("sim_latency_p99_ns", lat 0.99, "ns");
      ("delivered_frac", ratio (fi (attempted - failed)) (fi attempted), "ratio");
    ]

(* ----- traced run: per-layer numbers from outside ----- *)

type instrumented = {
  mutable wall_ns : int;
  mutable words : float;
  mutable packets : int;
  mutable gc_ns : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable promoted : float;
}

let traced name ~seed ~seconds =
  ignore (Gc_time.total () : int);
  let w = W.setup ~record:true name ~seed in
  header w ~seed ~trace:1;
  let tally = { offered = 0; delivered = 0 } in
  (* First chunk: memsim and executor counters; the recorder keeps the
     demand lines seen from the worker's creation up to here. *)
  let r0 = w.W.measure () in
  add_chunk tally w r0;
  let scr0 = Option.map (fun (s : W.scr_view) -> s.W.last ()) w.W.scr in
  Option.iter W.Recorder.finish w.W.recorder;
  (* Alternate plain and instrumented chunks: the plain ones are the
     reference for the tracing overhead. *)
  let p = W.probe () in
  let acc =
    { wall_ns = 0; words = 0.0; packets = 0; gc_ns = 0; minor_gcs = 0; major_gcs = 0; promoted = 0.0 }
  in
  let plain = ref [] and instr = ref [] and slow = ref [] in
  let start = now_ns () in
  while seconds_since start < fi seconds || List.length !instr < 3 do
    slow := Calib.slowdown (Calib.run ()) :: !slow;
    let r, ns = time (fun () -> w.W.measure ()) in
    add_chunk tally w r;
    plain := (fi ns /. fi r.Metrics.packets) :: !plain;
    let s0 = Gc.quick_stat () in
    let g0 = Gc_time.total () in
    Gc_time.forget ();
    let w0 = words () in
    let r, ns = time (fun () -> w.W.measure ~probe:p ()) in
    let dw = words () -. w0 in
    let g1 = Gc_time.total () in
    List.iter Gc_time.settle (W.meters p);
    let s1 = Gc.quick_stat () in
    add_chunk tally w r;
    instr := (fi ns /. fi r.Metrics.packets) :: !instr;
    acc.wall_ns <- acc.wall_ns + ns;
    acc.words <- acc.words +. dw;
    acc.packets <- acc.packets + r.Metrics.packets;
    acc.gc_ns <- acc.gc_ns + (g1 - g0);
    acc.minor_gcs <- acc.minor_gcs + (s1.Gc.minor_collections - s0.Gc.minor_collections);
    acc.major_gcs <- acc.major_gcs + (s1.Gc.major_collections - s0.Gc.major_collections);
    acc.promoted <- acc.promoted +. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  done;
  let pk = fi acc.packets in
  let per_pkt x = x /. pk in
  (* Each instrumented chunk runs right after its plain twin, so the pair
     shares the host's contention phase; the median pair ratio is the
     overhead. *)
  let overhead = median (List.map2 (fun i p -> ratio i p) !instr !plain) -. 1.0 in
  (* Layer self times over the instrumented chunks. *)
  let traffic_ns = fi p.W.pull.Meter.ns in
  let export_ns = fi p.W.export.Meter.ns and apply_ns = fi p.W.apply.Meter.ns in
  let core_ns = fi acc.wall_ns -. traffic_ns -. export_ns -. apply_ns in
  let core_words =
    acc.words -. fi (List.fold_left (fun a m -> a + m.Meter.words) 0 (W.meters p))
  in
  (* nfs: one sub-run with the Trace plane attached (interpreted bodies). *)
  let tr = Trace.create () in
  let rt = w.W.traced tr in
  let actions = List.fold_left (fun a (_, _, n, _) -> a + n) 0 (Trace.action_rows tr) in
  (* memsim counters of the first chunk. *)
  let mem = r0.Metrics.mem in
  let pk0 = fi r0.Metrics.packets in
  let lines_per_pkt = fi mem.Memsim.Memstats.line_accesses /. pk0 in
  let attempts =
    mem.Memsim.Memstats.prefetch_issued + mem.Memsim.Memstats.prefetch_redundant
    + mem.Memsim.Memstats.prefetch_dropped
  in
  let cycles0 =
    match scr0 with
    | Some res -> Array.fold_left (fun a r -> a + r.Metrics.cycles) 0 res.Scaleout.Scr.sr_runs
    | None -> r0.Metrics.cycles
  in
  let stall_share = ratio (fi (Array.fold_left ( + ) 0 r0.Metrics.state_cycles)) (fi cycles0) in
  (* memsim replay: the recorded prefix through a fresh hierarchy. *)
  let replay_ns, replay_ok, replay_lines =
    match w.W.recorder with
    | None -> (0.0, None, 0)
    | Some rc ->
        let reps = List.init 5 (fun _ -> W.Recorder.replay rc) in
        let ns = median (List.map (fun (ns, _) -> fi ns /. fi (max 1 rc.W.Recorder.n)) reps) in
        (* Prefetches change cache state without a demand access, so only
           a prefetch-free prefix must reproduce the counters. *)
        let check =
          match rc.W.Recorder.at_end with
          | Some c when c.Memsim.Memstats.prefetch_issued > 0 -> None
          | _ -> Some (W.Recorder.reproduces rc (snd (List.hd reps)))
        in
        (ns, check, rc.W.Recorder.n)
  in
  let core_ns_per_pkt = per_pkt core_ns in
  let memsim_est_ns = replay_ns *. lines_per_pkt *. pk in
  let cuckoo_ns, cuckoo_miss = w.W.cuckoo () in
  let mdi_ns, mdi_miss = match w.W.mdi with Some f -> f () | None -> (0.0, 0) in
  let scaleout =
    match (w.W.scr, scr0) with
    | Some view, Some res ->
        let st = res.Scaleout.Scr.sr_stats in
        let records = fi st.Scaleout.Scr.st_records in
        let ref_ns =
          median
            (List.init 3 (fun _ ->
                 let r, ns = time (fun () -> view.W.ref_rtc ()) in
                 fi ns /. fi r.Metrics.packets))
        in
        [
          ("scaleout.records_per_pkt", records /. pk0, "count");
          ("scaleout.applied_per_pkt", fi st.Scaleout.Scr.st_applied /. pk0, "count");
          ( "scaleout.coalesced_frac",
            ratio (fi st.Scaleout.Scr.st_coalesced) (records *. fi (view.W.cores - 1)),
            "ratio" );
          ("scaleout.windows_per_pkt", fi st.Scaleout.Scr.st_windows /. pk0, "count");
          ("scaleout.export_ns_per_record", ratio export_ns (fi p.W.export.Meter.calls), "ns");
          ("scaleout.apply_ns_per_record", ratio apply_ns (fi p.W.apply.Meter.calls), "ns");
          ("scaleout.self_ns_per_pkt", core_ns_per_pkt, "ns");
          ("scaleout.ref_rtc_ns_per_pkt", ref_ns, "ns");
          ( "scaleout.imbalance_served",
            (match res.Scaleout.Scr.sr_merged.Metrics.imbalance with
            | Some (_, served) -> served
            | None -> 1.0),
            "ratio" );
        ]
    | _ ->
        List.map
          (fun (n, u) -> (n, 0.0, u))
          [
            ("scaleout.records_per_pkt", "count"); ("scaleout.applied_per_pkt", "count");
            ("scaleout.coalesced_frac", "ratio"); ("scaleout.windows_per_pkt", "count");
            ("scaleout.export_ns_per_record", "ns"); ("scaleout.apply_ns_per_record", "ns");
            ("scaleout.self_ns_per_pkt", "ns"); ("scaleout.ref_rtc_ns_per_pkt", "ns");
            ("scaleout.imbalance_served", "ratio");
          ]
  in
  let v = w.W.verify () in
  let attempted, failed = verdict tally v in
  let failed = min attempted (failed + cuckoo_miss + mdi_miss) in
  let correct = failed = 0 && replay_ok <> Some false in
  (* Where the host time goes: rows partition the instrumented chunks'
     wall time. Every GC pause goes to the gc row, out of the row whose
     calls it fell in; the memsim row is the replay estimate inside core. *)
  let gc_ns = fi acc.gc_ns in
  let self (m : Meter.t) = fi (m.Meter.ns - m.Meter.gc_ns) in
  let metered_gc = fi (List.fold_left (fun a m -> a + m.Meter.gc_ns) 0 (W.meters p)) in
  let rows =
    (if w.W.scr = None then [ ("traffic (source pulls)", self p.W.pull) ]
     else
       [ ("scaleout export (sc_export)", self p.W.export); ("scaleout apply (sc_apply)", self p.W.apply) ])
    @ [
        ("memsim (replay estimate)", memsim_est_ns);
        ( (if w.W.scr = None then "core other (executor, nfs, structures)"
           else "scaleout self other (engine, rtc, nfs)"),
          core_ns -. memsim_est_ns -. (gc_ns -. metered_gc) );
        ("gc (runtime events)", gc_ns);
      ]
  in
  Printf.printf "\n  where the host time goes (%s, %d instrumented packets, %.1f ms wall)\n" name
    acc.packets (fi acc.wall_ns /. 1e6);
  Printf.printf "  %-40s %10s %8s %9s\n" "layer" "self ms" "share" "ns/pkt";
  List.iter
    (fun (label, ns) ->
      Printf.printf "  %-40s %10.2f %7.1f%% %9.1f\n" label (ns /. 1e6)
        (100.0 *. ratio ns (fi acc.wall_ns)) (per_pkt ns))
    rows;
  Printf.printf "  %-40s %10.2f %7.1f%% %9.1f\n" "total" (fi acc.wall_ns /. 1e6) 100.0
    (per_pkt (fi acc.wall_ns));
  Printf.printf "  gc inside wrapped calls: %.2f ms (moved from their rows to the gc row)\n"
    (metered_gc /. 1e6);
  Printf.printf "  trace.overhead_frac = %.4f (instrumented vs plain chunks, %d pairs)\n" overhead
    (List.length !instr);
  Printf.printf "  memsim replay: %d lines, counters %s\n" replay_lines
    (match replay_ok with
    | Some true -> "reproduced exactly"
    | Some false -> "DIFFER"
    | None -> "not compared (prefetching executor)");
  Printf.printf "  output checks: %d/%d packets failed%s; gc events lost: %d; call intervals unkept: %d\n"
    failed attempted
    (if v.W.note = "" then "" else "; " ^ v.W.note)
    (Gc_time.lost ())
    (List.fold_left (fun a m -> a + m.Meter.unkept) 0 (W.meters p));
  let plain_kpps = List.map (fun ns -> 1e6 /. ns) !plain in
  let ph = w.W.phases in
  print_result ~correct ~attempted ~failed
    ([
       ("traffic.ns_per_pkt", per_pkt traffic_ns, "ns");
       ("traffic.words_per_pkt", per_pkt (fi p.W.pull.Meter.words), "words");
       ("core.ns_per_pkt", core_ns_per_pkt, "ns");
       ("core.words_per_pkt", per_pkt core_words, "words");
       ("core.switches_per_pkt", fi r0.Metrics.switches /. pk0, "count");
       ("core.state_stall_share", stall_share, "ratio");
       ("nfs.actions_per_pkt", ratio (fi actions) (fi rt.Metrics.packets), "count");
       ("nfs.action_cycles_share", ratio (fi (Trace.action_cycles tr)) (fi rt.Metrics.cycles), "ratio");
       ("structures.cuckoo_lookup_ns", cuckoo_ns, "ns");
       ("structures.mdi_lookup_ns", mdi_ns, "ns");
       ("memsim.lines_per_pkt", lines_per_pkt, "count");
       ("memsim.l1_misses_per_pkt", fi (Memsim.Memstats.l1_misses mem) /. pk0, "count");
       ("memsim.dram_fills_per_pkt", fi mem.Memsim.Memstats.dram_fills /. pk0, "count");
       ("memsim.prefetch_issued_per_pkt", fi mem.Memsim.Memstats.prefetch_issued /. pk0, "count");
       ("memsim.prefetch_dropped_frac", ratio (fi mem.Memsim.Memstats.prefetch_dropped) (fi attempts), "ratio");
       ("memsim.mshr_wait_cycles_per_pkt", fi mem.Memsim.Memstats.wait_cycles /. pk0, "cycles");
       ("memsim.replay_ns_per_line", replay_ns, "ns");
       ("memsim.host_share_est", ratio (replay_ns *. lines_per_pkt) core_ns_per_pkt, "ratio");
     ]
    @ scaleout
    @ [
        ("gc.minor_collections_per_kpkt", 1000.0 *. per_pkt (fi acc.minor_gcs), "count");
        ("gc.promoted_words_per_pkt", per_pkt acc.promoted, "words");
        ("gc.major_collections", fi acc.major_gcs, "count");
        ("setup.traffic_s", ph.W.traffic_s, "s");
        ("setup.populate_s", ph.W.populate_s, "s");
        ("setup.compile_s", ph.W.compile_s, "s");
        ("setup.warmup_s", ph.W.warmup_s, "s");
        ("trace.overhead_frac", overhead, "ratio");
        ("host.kpps_as_timed", median plain_kpps, "kpps");
        ("host.slowdown", median !slow, "ratio");
      ])

(* ----- self-checks: each metric family sees the program ----- *)

(* Simulated metrics of a nat-il16 instance's first chunk. *)
let nat_sim (w : W.t) =
  let s = W.samples w.W.chunk_packets in
  let r0 = w.W.measure ~samples:s () in
  let sorted = W.sorted_samples s in
  ( Metrics.mpps r0,
    Hostcost.quantile_interp sorted 0.5,
    Hostcost.quantile_interp sorted 0.99,
    r0.Metrics.cycles )

(* Host cost of [a] relative to [b]: chunks alternate between the two
   instances, so each pair shares the host's contention phase, and the
   median pair ratio is reported for throughput and for core ns/pkt. The
   two chunks of a pair share one host slowdown, so host_kpps's
   calibration would cancel from the ratio. *)
let paired (a : W.t) (b : W.t) ~pairs =
  let kpps (w : W.t) =
    let r, ns = time (fun () -> w.W.measure ()) in
    fi r.Metrics.packets /. fi ns
  in
  let pa = W.probe () and pb = W.probe () in
  let core (w : W.t) (p : W.probe) =
    let before = p.W.pull.Meter.ns in
    let r, ns = time (fun () -> w.W.measure ~probe:p ()) in
    fi (ns - (p.W.pull.Meter.ns - before)) /. fi r.Metrics.packets
  in
  let ratios =
    List.init pairs (fun _ ->
        let ka = kpps a in
        let kb = kpps b in
        let ca = core a pa in
        let cb = core b pb in
        (ka /. kb, ca /. cb))
  in
  (median (List.map fst ratios), median (List.map snd ratios))

let selfcheck ~seed =
  let ok = ref true in
  let check name cond detail =
    Printf.printf "%s %s: %s\n%!" (if cond then "ok  " else "FAIL") name detail;
    if not cond then ok := false
  in
  let spec = W.nat ~seed () and interp = W.nat ~specialize:false ~seed () in
  let sim_s = nat_sim spec and sim_i = nat_sim interp in
  let pp_sim (mpps, p50, p99, cycles) =
    Printf.sprintf "%.17g Mpps, p50 %.17g, p99 %.17g cycles, %d run cycles" mpps p50 p99 cycles
  in
  check "nat-il16 specialize leaves every sim_* metric identical" (sim_s = sim_i)
    (pp_sim sim_s ^ " vs " ^ pp_sim sim_i);
  let kpps_ratio, core_ratio = paired spec interp ~pairs:21 in
  check "nat-il16 specialize moves host_kpps" (kpps_ratio > 1.02)
    (Printf.sprintf "specialized/interpreted = %.3f (median of 21 chunk pairs)" kpps_ratio);
  check "nat-il16 specialize moves core.ns_per_pkt" (core_ratio < 0.97)
    (Printf.sprintf "specialized/interpreted = %.3f (median of 21 chunk pairs)" core_ratio);
  let mpps_0, _, _, _ = nat_sim (W.nat ~prefetch_distance:0 ~seed ()) in
  let mpps_1, _, _, _ = sim_s in
  check "nat-il16 prefetch_distance 0 moves sim_mpps" (mpps_0 <> mpps_1)
    (Printf.sprintf "%.4f vs %.4f Mpps" mpps_0 mpps_1);
  let w = W.upf ~record:true ~seed () in
  ignore (w.W.measure () : Metrics.run);
  (match w.W.recorder with
  | Some rc ->
      W.Recorder.finish rc;
      let _, replayed = W.Recorder.replay rc in
      check "upf-rtc memsim replay reproduces the hit/miss counters"
        (W.Recorder.reproduces rc replayed)
        (Printf.sprintf "%d lines replayed" rc.W.Recorder.n)
  | None -> check "upf-rtc memsim replay" false "no recorder");
  !ok

(* ----- command line ----- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe run --workload (nat-il16|upf-rtc|scr-zipf) --seed N --seconds S \
     --trace (0|1)\n       perfbench.exe selfcheck [--seed N]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        opts ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let int_opt o key ~default =
    match List.assoc_opt key o with
    | None -> ( match default with Some d -> d | None -> usage ())
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let ok =
    match args with
    | "run" :: rest ->
        let o = opts [] rest in
        let name = match List.assoc_opt "workload" o with Some n -> n | None -> usage () in
        if not (List.mem name W.names) then usage ();
        let seed = int_opt o "seed" ~default:None in
        let seconds = int_opt o "seconds" ~default:None in
        if seconds <= 0 then usage ();
        (match int_opt o "trace" ~default:(Some 0) with
        | 0 -> e2e name ~seed ~seconds
        | 1 -> traced name ~seed ~seconds
        | _ -> usage ())
    | "selfcheck" :: rest -> selfcheck ~seed:(int_opt (opts [] rest) "seed" ~default:(Some 1))
    | _ -> usage ()
  in
  exit (if ok then 0 else 1)
