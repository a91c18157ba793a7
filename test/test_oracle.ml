(* The differential execution oracle, in-tree: every generated program and
   every shipped composition must behave identically under all executors
   (RTC reference, Batch_rtc over batch sizes, Scheduler over both policies
   and task counts), and the oracle itself must detect and minimize
   injected divergences. *)

open Gunfu
open Check

let specs_dir = "../specs"

(* The acceptance sweep: this many program seeds, each exercised under
   every traffic profile. *)
let sweep_seeds = 51
let sweep_packets = 64

(* Observe each executor exactly once per case and use the same
   observation for both the differential diff and the executor-independent
   invariants — half the work of the CLI's two passes. *)
let exercise (case : Oracle.case) =
  let fresh () = case.Oracle.c_build ~packets:case.Oracle.c_packets in
  let repro () = case.Oracle.c_repro ~packets:case.Oracle.c_packets in
  let check_invariants label obs =
    match Invariants.check obs with
    | [] -> ()
    | viol :: _ ->
        Alcotest.failf "%s under %s violates %s: %s (replay: %s)" case.Oracle.c_name
          label viol.Invariants.v_rule viol.Invariants.v_detail (repro ())
  in
  let ref_obs = Oracle.observe Oracle.reference (fresh ()) in
  check_invariants (Exec.label Oracle.reference) ref_obs;
  List.iter
    (fun exec ->
      let obs = Oracle.observe exec (fresh ()) in
      (match Oracle.diff_observations ~reference:ref_obs obs with
      | None -> ()
      | Some detail ->
          Alcotest.failf "%s: %s diverges from rtc: %s (replay: %s)"
            case.Oracle.c_name (Exec.label exec) detail (repro ()));
      check_invariants (Exec.label exec) obs)
    Oracle.executors

let test_sweep profile () =
  for i = 0 to sweep_seeds - 1 do
    exercise (Progen.case ~seed:(1 + i) ~profile ~packets:sweep_packets)
  done

let test_spec_compositions () =
  let cases = Progen.spec_cases ~specs_dir ~seed:3 ~packets:96 () in
  Alcotest.(check int) "all shipped compositions covered"
    (List.length Progen.spec_names) (List.length cases);
  List.iter exercise cases

let test_executor_grid () =
  (* The comparison set the issue requires: batches, both policies over
     n_tasks in {1,2,4,8,16}, rtc as reference. *)
  let names = Oracle.executor_names in
  Alcotest.(check int) "reference + 3 batches + 2 policies x 5 task counts" 14
    (List.length names);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "rtc"; "batch-1"; "batch-8"; "batch-32"; "il-rr-1-d1"; "il-rr-16-d1"; "il-rf-1-d1";
      "il-rf-16-d1" ]

(* The compiler passes the analyzer reasons about — match removal and
   redundant-prefetch removal — must be observation-preserving: the
   oracle's full diff (inputs, counters, per-flow output streams, final
   state digest) over every shipped composition and every opts
   combination, against the default-opts build. *)
let test_opts_observation_preserving () =
  let observe_with opts name =
    let case = Progen.spec_case ~opts ~specs_dir ~name ~seed:11 ~packets:96 () in
    Oracle.observe Oracle.reference (case.Oracle.c_build ~packets:case.Oracle.c_packets)
  in
  List.iter
    (fun name ->
      let ref_obs = observe_with Compiler.default_opts name in
      List.iter
        (fun (mr, pd) ->
          let opts =
            { Compiler.default_opts with Compiler.match_removal = mr; prefetch_dedup = pd }
          in
          match Oracle.diff_observations ~reference:ref_obs (observe_with opts name) with
          | None -> ()
          | Some d ->
              Alcotest.failf "%s with match_removal=%b prefetch_dedup=%b diverges: %s" name
                mr pd d)
        [ (false, false); (true, false); (true, true) ])
    Progen.spec_names

(* ----- the oracle's own machinery ----- *)

let sample_observation () =
  let case = Progen.case ~seed:5 ~profile:"uniform" ~packets:32 in
  Oracle.observe Oracle.reference (case.Oracle.c_build ~packets:32)

let test_identical_runs_do_not_diverge () =
  let case = Progen.case ~seed:5 ~profile:"uniform" ~packets:32 in
  let obs1 = Oracle.observe Oracle.reference (case.Oracle.c_build ~packets:32) in
  let obs2 = Oracle.observe Oracle.reference (case.Oracle.c_build ~packets:32) in
  Alcotest.(check (option string)) "fresh rebuilds of one seed are identical" None
    (Oracle.diff_observations ~reference:obs1 obs2)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_diff name part ref_obs obs =
  match Oracle.diff_observations ~reference:ref_obs obs with
  | None -> Alcotest.failf "%s: tampered observation not flagged" name
  | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" name d part)
        true (contains ~sub:part d)

let test_diff_detects_tampering () =
  let obs = sample_observation () in
  expect_diff "packet count" "completed-packet counts differ" obs
    {
      obs with
      Oracle.o_run = { obs.Oracle.o_run with Metrics.packets = obs.Oracle.o_run.Metrics.packets + 1 };
    };
  expect_diff "drop count" "drop counts differ" obs
    {
      obs with
      Oracle.o_run = { obs.Oracle.o_run with Metrics.drops = obs.Oracle.o_run.Metrics.drops + 1 };
    };
  expect_diff "wire bytes" "wire byte counts differ" obs
    {
      obs with
      Oracle.o_run =
        { obs.Oracle.o_run with Metrics.wire_bytes = obs.Oracle.o_run.Metrics.wire_bytes + 1 };
    };
  expect_diff "input stream" "input streams differ" obs
    { obs with Oracle.o_inputs = List.tl obs.Oracle.o_inputs };
  expect_diff "state digest" "state digests differ" obs
    { obs with Oracle.o_state = "deadbeefdeadbeef" };
  (match obs.Oracle.o_emits with
  | e :: rest ->
      expect_diff "per-flow stream" "diverges at its packet" obs
        { obs with Oracle.o_emits = { e with Oracle.e_aux = e.Oracle.e_aux + 1 } :: rest }
  | [] -> Alcotest.fail "sample observation produced no emits")

(* A case whose state digest changes on every rebuild: the reference and
   every comparison run see different "final state", so the oracle must
   report a divergence at any workload length — and minimize it to one
   packet. *)
let broken_case () =
  let base = Progen.case ~seed:5 ~profile:"uniform" ~packets:32 in
  let builds = ref 0 in
  {
    base with
    Oracle.c_name = "broken-digest";
    Oracle.c_build =
      (fun ~packets ->
        incr builds;
        let n = !builds in
        let inst = base.Oracle.c_build ~packets in
        { inst with Oracle.digest = (fun fp -> Gunfu.Fingerprint.feed_int fp n) });
  }

let test_check_case_reports_divergence () =
  match Oracle.check_case (broken_case ()) with
  | None -> Alcotest.fail "injected state divergence not reported"
  | Some d ->
      Alcotest.(check string) "first comparison executor blamed" "batch-1"
        d.Oracle.d_exec;
      Alcotest.(check int) "minimized to a single packet" 1 d.Oracle.d_packets;
      Alcotest.(check bool) "detail names the state digest" true
        (contains ~sub:"state digests differ" d.Oracle.d_detail);
      Alcotest.(check bool) "repro command present" true
        (contains ~sub:"gunfu_cli check" d.Oracle.d_repro);
      (* The pretty-printer must carry seed + replay line. *)
      let rendered = Fmt.str "%a" Oracle.pp_divergence d in
      Alcotest.(check bool) "rendering includes replay" true
        (contains ~sub:"replay:" rendered)

let test_minimize_shrinks () =
  let case = broken_case () in
  let exec = List.hd Oracle.executors in
  Alcotest.(check int) "always-diverging case shrinks to 1 packet" 1
    (Oracle.minimize case exec ~packets:16)

(* Any (seed, profile, prefix length, executor) drawn at random agrees
   with rtc — the differential claim as a QCheck property. *)
let qcheck_random_case_agrees =
  QCheck.Test.make ~name:"random generated case agrees with rtc" ~count:12
    QCheck.(
      quad (int_range 1 10_000)
        (int_bound (List.length Progen.profiles - 1))
        (int_range 4 48)
        (int_bound (List.length Oracle.executors - 1)))
    (fun (seed, pi, packets, xi) ->
      let profile = List.nth Progen.profiles pi in
      let case = Progen.case ~seed ~profile ~packets in
      let exec = List.nth Oracle.executors xi in
      Oracle.diverges case exec ~packets = None)

let suite =
  [
    Alcotest.test_case "executor grid" `Quick test_executor_grid;
    Alcotest.test_case "identical runs agree" `Quick test_identical_runs_do_not_diverge;
    Alcotest.test_case "diff detects tampering" `Quick test_diff_detects_tampering;
    Alcotest.test_case "check_case reports divergence" `Quick test_check_case_reports_divergence;
    Alcotest.test_case "minimize shrinks repro" `Quick test_minimize_shrinks;
    Helpers.qcheck qcheck_random_case_agrees;
    Alcotest.test_case "spec compositions agree" `Quick test_spec_compositions;
    Alcotest.test_case "opts observation-preserving" `Quick test_opts_observation_preserving;
    Alcotest.test_case "sweep: uniform" `Quick (test_sweep "uniform");
    Alcotest.test_case "sweep: zipf" `Quick (test_sweep "zipf");
    Alcotest.test_case "sweep: burst" `Quick (test_sweep "burst");
    Alcotest.test_case "sweep: mix" `Quick (test_sweep "mix");
  ]
