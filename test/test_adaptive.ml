(* Closed-loop adaptive runtime: the policy's decision table and its
   three hysteresis layers, driver inertness (a controller that never
   moves leaves the run byte-identical to an uncontrolled one), decision
   log determinism, the adaptive oracle axis (plain, faulted, SCR
   hand-off), the decision-log invariants' tamper resistance, and the
   committed BENCH_PR10.json's headline claim. *)

open Gunfu

(* ----- synthetic signals for the decision table ----- *)

let mk ?(i = 0) ?(pulls = 256) ?(kpps = 5000.0) ?(mem = 0.25) ?(deep = 0.0)
    ?(sw = 0.05) ?(occ = 1.0) ?(stalls = 0) ?(skew = 0.0) ?(imb = 1.0) () =
  {
    Adaptive.Window.w_index = i;
    w_pulls = pulls;
    w_completes = pulls;
    w_cycles = 100_000;
    w_kpps = kpps;
    w_mem_share = mem;
    w_deep_share = deep;
    w_switch_share = sw;
    w_mshr_occ = occ;
    w_active_occ = 4.0;
    w_fault_rate = 0.0;
    w_stalls = stalls;
    w_skew = skew;
    w_imbalance = imb;
  }

let label p = Adaptive.Config.label (Adaptive.Policy.config p)

let check_move name expected actual =
  Alcotest.(check (option string))
    name expected
    (Option.map Adaptive.Policy.move_label actual)

(* Default params: confirm = 2, cooldown = 1. One matching window holds
   (streak 1), the second fires, the window after is the cooldown. *)

let test_mem_up_widens () =
  let p = Adaptive.Policy.create ~initial:Adaptive.Config.default () in
  let hot i = mk ~i ~mem:0.5 ~deep:0.5 () in
  check_move "first hot window holds" None (Adaptive.Policy.decide p (hot 0));
  check_move "second fires tasks-up" (Some "tasks-up") (Adaptive.Policy.decide p (hot 1));
  Alcotest.(check string) "widened" "il-rr-16-d1" (label p);
  check_move "cooldown holds" None (Adaptive.Policy.decide p (hot 2));
  check_move "streak rebuilds" None (Adaptive.Policy.decide p (hot 3));
  check_move "then distance-up" (Some "distance-up") (Adaptive.Policy.decide p (hot 4));
  Alcotest.(check string) "deeper prefetch" "il-rr-16-d2" (label p)

let test_mem_down_to_batch () =
  let p =
    Adaptive.Policy.create
      ~initial:
        (`Il { Exec.policy = Scheduler.Round_robin; n_tasks = 2; distance = 1 })
      ()
  in
  let cold i = mk ~i ~mem:0.05 ~sw:0.2 () in
  check_move "first cold window holds" None (Adaptive.Policy.decide p (cold 0));
  check_move "minimum width collapses to batch" (Some "to-batch-32")
    (Adaptive.Policy.decide p (cold 1));
  Alcotest.(check string) "batched rtc" "batch-32" (label p);
  (* Memory pressure from batch re-enters the interleave no narrower than
     the default width, not at the 2-task width the march walked through. *)
  check_move "cooldown holds" None (Adaptive.Policy.decide p (mk ~i:2 ()));
  let hot i = mk ~i ~mem:0.5 ~deep:0.5 () in
  check_move "hot holds" None (Adaptive.Policy.decide p (hot 3));
  check_move "re-enters interleave" (Some "to-il-rr-8-d1")
    (Adaptive.Policy.decide p (hot 4));
  Alcotest.(check string) "floored re-entry" "il-rr-8-d1" (label p)

let test_stall_prefers_ready_first () =
  let p = Adaptive.Policy.create ~initial:Adaptive.Config.default () in
  (* Both the stall rule and mem-up match; stall-rf has priority. *)
  let s i = mk ~i ~mem:0.5 ~deep:0.5 ~stalls:3 () in
  check_move "holds" None (Adaptive.Policy.decide p (s 0));
  check_move "ready-first wins priority" (Some "policy-rf")
    (Adaptive.Policy.decide p (s 1));
  Alcotest.(check string) "switched" "il-rf-8-d1" (label p)

let test_scr_handoff_and_return () =
  let p = Adaptive.Policy.create ~scr:4 ~initial:Adaptive.Config.default () in
  let skewed i = mk ~i ~skew:0.5 ~imb:2.5 () in
  check_move "holds" None (Adaptive.Policy.decide p (skewed 0));
  check_move "hands off" (Some "scr-handoff") (Adaptive.Policy.decide p (skewed 1));
  Alcotest.(check string) "replicated" "scr-4" (label p);
  check_move "cooldown" None (Adaptive.Policy.decide p (skewed 2));
  let flat i = mk ~i ~skew:0.05 () in
  check_move "holds" None (Adaptive.Policy.decide p (flat 3));
  check_move "returns" (Some "scr-return") (Adaptive.Policy.decide p (flat 4));
  Alcotest.(check string) "back on the single core" "il-rr-8-d1" (label p)

let test_no_handoff_without_scr () =
  let p = Adaptive.Policy.create ~initial:Adaptive.Config.default () in
  let skewed i = mk ~i ~skew:0.9 ~imb:4.0 () in
  for i = 0 to 9 do
    check_move "never hands off" None (Adaptive.Policy.decide p (skewed i))
  done

(* Hysteresis layer 1: the deadband. A signal living between the low and
   high marks matches nothing. *)
let test_deadband_holds () =
  let p = Adaptive.Policy.create ~initial:Adaptive.Config.default () in
  for i = 0 to 39 do
    check_move "mid-band holds" None (Adaptive.Policy.decide p (mk ~i ~mem:0.25 ~sw:0.2 ()))
  done;
  Alcotest.(check string) "config untouched" "il-rr-8-d1" (label p)

(* Hysteresis layer 2: the confirmation streak. An oscillating signal
   resets the streak every other window and can never fire. *)
let test_oscillation_never_fires () =
  let p = Adaptive.Policy.create ~initial:Adaptive.Config.default () in
  for i = 0 to 39 do
    let s =
      if i mod 2 = 0 then mk ~i ~mem:0.5 ~deep:0.5 ()
      else mk ~i ~mem:0.05 ~sw:0.2 ()
    in
    check_move "oscillation holds" None (Adaptive.Policy.decide p s)
  done;
  Alcotest.(check string) "config untouched" "il-rr-8-d1" (label p)

(* Hysteresis layer 3: the throughput guard. A post-move regression
   beyond [regress] reverts the move and pins the rule for good. *)
let test_guard_reverts_and_pins () =
  let p = Adaptive.Policy.create ~initial:Adaptive.Config.default () in
  let hot i = mk ~i ~kpps:5000.0 ~mem:0.5 ~deep:0.5 () in
  check_move "holds" None (Adaptive.Policy.decide p (hot 0));
  check_move "fires" (Some "tasks-up") (Adaptive.Policy.decide p (hot 1));
  (* First full post-move window collapsed 40%: revert. *)
  check_move "guard reverts" (Some "revert")
    (Adaptive.Policy.decide p (mk ~i:2 ~kpps:3000.0 ~mem:0.5 ~deep:0.5 ()));
  Alcotest.(check string) "back to the pre-move config" "il-rr-8-d1" (label p);
  (* The offending rule is pinned: the same signal never fires it again. *)
  for i = 3 to 20 do
    check_move "pinned" None (Adaptive.Policy.decide p (hot i))
  done;
  Alcotest.(check string) "config stays" "il-rr-8-d1" (label p)

let test_saturated_knob_holds () =
  let p =
    Adaptive.Policy.create
      ~initial:
        (`Il { Exec.policy = Scheduler.Round_robin; n_tasks = 16; distance = 3 })
      ()
  in
  for i = 0 to 9 do
    check_move "everything maxed: hold" None
      (Adaptive.Policy.decide p (mk ~i ~mem:0.6 ~deep:0.6 ()))
  done

(* ----- driver: inertness ----- *)

(* Params no real signal can match: the controller is installed but can
   never propose a move. *)
let frozen =
  {
    Adaptive.Policy.default_params with
    Adaptive.Policy.hi_mem = 2.0;
    lo_mem = -1.0;
    hi_switch = 2.0;
    hi_occ = 1e18;
    hi_skew = 2.0;
    hi_imb = 1e18;
  }

type emit = {
  em_flow : int;
  em_aux : int;
  em_event : string;
  em_pktid : int;
  em_wire : int;
  em_pkt : string;
  em_clock : int;
}

(* A fresh single-core plant over a shared pre-traced stream, mirroring
   the oracle axis' delivery semantics. *)
let build_plant (rc : Check.Recovery.rcase) items =
  let plat = Platform.create ~cfg:rc.Check.Recovery.r_cfg ~cores:1 () in
  let worker = Platform.worker plat 0 in
  let full = Array.init rc.Check.Recovery.r_universe Fun.id in
  let ci = rc.Check.Recovery.r_build worker ~owned:full in
  let remaining = ref items in
  let source () =
    match !remaining with
    | [] -> None
    | (item : Workload.item) :: rest ->
        remaining := rest;
        let pkt = Option.map Netcore.Packet.clone item.Workload.packet in
        Option.iter (Netcore.Packet.Pool.assign ci.Check.Recovery.ci_pool) pkt;
        Some
          {
            Workload.packet = pkt;
            aux = item.Workload.aux;
            flow_hint = item.Workload.flow_hint;
          }
  in
  let ctx = Worker.ctx worker in
  let emits = ref [] in
  let on_complete (task : Nftask.t) =
    let em_pkt, em_pktid, em_wire =
      match task.Nftask.packet with
      | Some p ->
          (Check.Oracle.packet_fingerprint p, p.Netcore.Packet.id, p.Netcore.Packet.wire_len)
      | None -> ("", -1, 0)
    in
    emits :=
      {
        em_flow = task.Nftask.flow_hint;
        em_aux = task.Nftask.aux;
        em_event = Event.to_key task.Nftask.event;
        em_pktid;
        em_wire;
        em_pkt;
        em_clock = ctx.Exec_ctx.clock;
      }
      :: !emits
  in
  (worker, ci, source, on_complete, emits)

let test_inertness () =
  let rc = Check.Recovery.gen_rcase ~seed:17 ~profile:"mix" ~packets:600 in
  let items = rc.Check.Recovery.r_trace () in
  (* Uncontrolled: one Exec.run, no driver. *)
  let worker, ci, source, on_complete, emits = build_plant rc items in
  let bare =
    Exec.run ~fault:(Fault.create ()) ~on_complete (Exec.il 8) worker
      ci.Check.Recovery.ci_program source
  in
  let bare_emits = List.rev !emits in
  (* Controlled, but the policy can never move. *)
  let worker2, ci2, source2, on_complete2, emits2 = build_plant rc items in
  let policy =
    Adaptive.Policy.create ~params:frozen ~initial:Adaptive.Config.default ()
  in
  let oc =
    Adaptive.Driver.run ~epoch:64 ~on_complete:on_complete2 ~policy
      {
        Adaptive.Driver.pl_worker = worker2;
        pl_program = ci2.Check.Recovery.ci_program;
        pl_source = source2;
        pl_plane = Fault.create ();
        pl_scr = None;
      }
  in
  Alcotest.(check int) "no moves" 0 oc.Adaptive.Driver.o_moves;
  Alcotest.(check int) "one uninterrupted leg" 1 (List.length oc.Adaptive.Driver.o_legs);
  List.iter
    (fun (d : Adaptive.Driver.decision) ->
      Alcotest.(check bool) "every decision a hold" true (d.Adaptive.Driver.d_move = None))
    oc.Adaptive.Driver.o_decisions;
  (* Byte-identical observations: same emits in the same order with the
     same packet ids, bytes and clocks. *)
  Alcotest.(check int) "same emit count" (List.length bare_emits) (List.length (List.rev !emits2));
  Alcotest.(check bool) "byte-identical emit stream" true (bare_emits = List.rev !emits2);
  Alcotest.(check int) "same packets" bare.Metrics.packets oc.Adaptive.Driver.o_run.Metrics.packets;
  Alcotest.(check int) "same cycles" bare.Metrics.cycles oc.Adaptive.Driver.o_run.Metrics.cycles

(* ----- determinism ----- *)

let decision_key (d : Adaptive.Driver.decision) =
  Printf.sprintf "w%d@%d %s -> %s" d.Adaptive.Driver.d_index
    d.Adaptive.Driver.d_cycles
    (match d.Adaptive.Driver.d_move with
    | Some m -> Adaptive.Policy.move_label m
    | None -> "hold")
    (Adaptive.Config.label d.Adaptive.Driver.d_to)

let test_determinism () =
  let run () =
    let rc = Check.Recovery.gen_rcase ~seed:11 ~profile:"mix" ~packets:800 in
    Check.Adaptcheck.check_rcase ~epoch:96 ~initial:`Rtc rc
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "first passes" true (Check.Recovery.passed a);
  Alcotest.(check bool) "second passes" true (Check.Recovery.passed b);
  Alcotest.(check bool) "at least one move" true (a.Check.Recovery.oc_extra.Check.Adaptcheck.moves > 0);
  Alcotest.(check (list string))
    "identical decision logs"
    (List.map decision_key a.Check.Recovery.oc_extra.Check.Adaptcheck.decisions)
    (List.map decision_key b.Check.Recovery.oc_extra.Check.Adaptcheck.decisions)

(* ----- the oracle axis ----- *)

let test_oracle_plain () =
  let rc = Check.Recovery.gen_rcase ~seed:23 ~profile:"uniform" ~packets:768 in
  let oc = Check.Adaptcheck.check_rcase ~epoch:96 rc in
  Alcotest.(check bool)
    (Format.asprintf "%a" Check.Recovery.pp_outcome oc)
    true (Check.Recovery.passed oc)

let test_oracle_faulted () =
  let rc = Check.Recovery.gen_rcase ~seed:29 ~profile:"burst" ~packets:640 in
  let plan = Check.Faultgen.create ~rate_ppm:30_000 ~seed:29 () in
  let oc = Check.Adaptcheck.check_rcase ~plan ~epoch:64 rc in
  Alcotest.(check bool)
    (Format.asprintf "%a" Check.Recovery.pp_outcome oc)
    true (Check.Recovery.passed oc)

let test_oracle_scr_handoff () =
  let rc = Check.Recovery.gen_rcase ~seed:13 ~profile:"zipf" ~packets:1024 in
  (* Aggressive skew marks so the zipf case hands off within a window. *)
  let params =
    {
      Adaptive.Policy.default_params with
      Adaptive.Policy.hi_skew = 0.05;
      lo_skew = 0.01;
      hi_imb = 1.1;
      confirm = 1;
    }
  in
  let oc = Check.Adaptcheck.check_rcase ~scr:4 ~params ~epoch:128 rc in
  Alcotest.(check bool)
    (Format.asprintf "%a" Check.Recovery.pp_outcome oc)
    true (Check.Recovery.passed oc);
  let handed_off =
    List.exists
      (fun (d : Adaptive.Driver.decision) ->
        match d.Adaptive.Driver.d_move with
        | Some Adaptive.Policy.Scr_handoff -> true
        | _ -> false)
      oc.Check.Recovery.oc_extra.Check.Adaptcheck.decisions
  in
  Alcotest.(check bool) "the stream was handed off" true handed_off

let test_plan_and_scr_rejected () =
  let rc = Check.Recovery.gen_rcase ~seed:3 ~profile:"uniform" ~packets:64 in
  let plan = Check.Faultgen.create ~rate_ppm:10_000 ~seed:3 () in
  match Check.Adaptcheck.check_rcase ~plan ~scr:2 rc with
  | _ -> Alcotest.fail "plan + scr accepted"
  | exception Invalid_argument _ -> ()

(* ----- decision-log invariants: tamper resistance ----- *)

let rules vs =
  List.map (fun (v : Check.Oracle.violation) -> v.Check.Oracle.v_rule) vs

let test_tamper_detected () =
  let rc = Check.Recovery.gen_rcase ~seed:11 ~profile:"mix" ~packets:800 in
  let items = rc.Check.Recovery.r_trace () in
  let _, oc =
    Check.Adaptcheck.adaptive_pass ~epoch:96 ~initial:`Rtc ~items rc
  in
  Alcotest.(check (list string)) "clean before tampering" []
    (rules (Check.Invariants.check_adaptive oc));
  Alcotest.(check bool) "has a move to tamper with" true
    (oc.Adaptive.Driver.o_moves > 0);
  let flag name rule tampered =
    Alcotest.(check bool) name true
      (List.mem rule (rules (Check.Invariants.check_adaptive tampered)))
  in
  (* A move marked as landing at a non-quiescent boundary. *)
  flag "non-quiescent move flagged" "adaptive-quiescence"
    {
      oc with
      Adaptive.Driver.o_decisions =
        List.map
          (fun (d : Adaptive.Driver.decision) ->
            if d.Adaptive.Driver.d_move <> None then
              { d with Adaptive.Driver.d_quiescent = false }
            else d)
          oc.Adaptive.Driver.o_decisions;
    };
  (* A hold that silently changed the configuration. *)
  flag "hold changing the config flagged" "adaptive-chain"
    {
      oc with
      Adaptive.Driver.o_decisions =
        List.map
          (fun (d : Adaptive.Driver.decision) ->
            if d.Adaptive.Driver.d_move = None then
              {
                d with
                Adaptive.Driver.d_to =
                  (if d.Adaptive.Driver.d_to = `Rtc then Adaptive.Config.default
                   else `Rtc);
              }
            else d)
          oc.Adaptive.Driver.o_decisions;
    };
  (* A move count that disagrees with the log. *)
  flag "move-count mismatch flagged" "adaptive-count"
    { oc with Adaptive.Driver.o_moves = oc.Adaptive.Driver.o_moves + 1 };
  (* A truncated log no longer matches the trace's Decision spans. *)
  flag "truncated log flagged" "adaptive-count"
    {
      oc with
      Adaptive.Driver.o_decisions = List.tl oc.Adaptive.Driver.o_decisions;
      o_moves =
        List.length
          (List.filter
             (fun (d : Adaptive.Driver.decision) -> d.Adaptive.Driver.d_move <> None)
             (List.tl oc.Adaptive.Driver.o_decisions));
    }

(* ----- the committed baseline's headline claim ----- *)

(* BENCH_PR10.json pins the adapt sweep; its aggregate row (x = 3.0) is
   the PR's acceptance claim: the controller beats every static
   configuration on total packets over total cycles. *)
let test_bench_headline () =
  let contents =
    let ic = open_in "../BENCH_PR10.json" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Telemetry.Baseline.of_string contents with
  | Error e -> Alcotest.failf "BENCH_PR10.json unreadable: %s" e
  | Ok b ->
      let fig =
        match
          List.find_opt
            (fun (f : Telemetry.Baseline.figure) -> f.Telemetry.Baseline.f_name = "adapt")
            b.Telemetry.Baseline.figures
        with
        | Some f -> f
        | None -> Alcotest.fail "no adapt figure in BENCH_PR10.json"
      in
      let aggregate (s : Telemetry.Baseline.series) =
        match
          List.find_opt
            (fun (p : Telemetry.Baseline.point) -> p.Telemetry.Baseline.x = 3.0)
            s.Telemetry.Baseline.points
        with
        | Some p -> List.assoc_opt "kpps" p.Telemetry.Baseline.metrics
        | None -> None
      in
      let kpps_of label =
        match
          List.find_opt
            (fun (s : Telemetry.Baseline.series) -> s.Telemetry.Baseline.s_label = label)
            fig.Telemetry.Baseline.series
        with
        | Some s -> aggregate s
        | None -> None
      in
      let adaptive =
        match kpps_of "adaptive" with
        | Some v -> v
        | None -> Alcotest.fail "no adaptive aggregate in BENCH_PR10.json"
      in
      let statics =
        List.filter
          (fun (s : Telemetry.Baseline.series) -> s.Telemetry.Baseline.s_label <> "adaptive")
          fig.Telemetry.Baseline.series
      in
      Alcotest.(check bool) "several static configurations pinned" true
        (List.length statics >= 5);
      List.iter
        (fun (s : Telemetry.Baseline.series) ->
          match aggregate s with
          | None -> Alcotest.failf "no aggregate for %s" s.Telemetry.Baseline.s_label
          | Some v ->
              if not (adaptive > v) then
                Alcotest.failf "adaptive %.0f kpps does not beat %s %.0f kpps"
                  adaptive s.Telemetry.Baseline.s_label v)
        statics

let suite =
  [
    Alcotest.test_case "mem-up widens then deepens" `Quick test_mem_up_widens;
    Alcotest.test_case "mem-down collapses to batch, re-entry floored" `Quick
      test_mem_down_to_batch;
    Alcotest.test_case "stalls prefer ready-first" `Quick test_stall_prefers_ready_first;
    Alcotest.test_case "scr hand-off and return" `Quick test_scr_handoff_and_return;
    Alcotest.test_case "no hand-off without scr" `Quick test_no_handoff_without_scr;
    Alcotest.test_case "deadband holds" `Quick test_deadband_holds;
    Alcotest.test_case "oscillation never fires" `Quick test_oscillation_never_fires;
    Alcotest.test_case "guard reverts and pins" `Quick test_guard_reverts_and_pins;
    Alcotest.test_case "saturated knobs hold" `Quick test_saturated_knob_holds;
    Alcotest.test_case "inert controller is byte-identical" `Quick test_inertness;
    Alcotest.test_case "decision log is deterministic" `Quick test_determinism;
    Alcotest.test_case "oracle: plain" `Quick test_oracle_plain;
    Alcotest.test_case "oracle: faulted" `Quick test_oracle_faulted;
    Alcotest.test_case "oracle: scr hand-off round trip" `Quick test_oracle_scr_handoff;
    Alcotest.test_case "plan + scr rejected" `Quick test_plan_and_scr_rejected;
    Alcotest.test_case "tampered decision log detected" `Quick test_tamper_detected;
    Alcotest.test_case "BENCH_PR10 headline: adaptive beats every static" `Quick
      test_bench_headline;
  ]
