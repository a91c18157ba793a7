(* Crash-tolerant scale-out: core-failure injection, checkpoint/replay
   recovery, exactly-once emits. *)

open Check

let specs_dir = "../specs"

(* ----- the kill schedule ----- *)

let test_decide_kill_shape () =
  let fg = Faultgen.create ~seed:7 () in
  (match Faultgen.decide_kill fg ~cores:1 ~packets:400 with
  | None -> ()
  | Some _ -> Alcotest.fail "a lone core must never be killed");
  (match Faultgen.decide_kill fg ~cores:4 ~packets:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "no packets, no kill");
  match Faultgen.decide_kill fg ~cores:4 ~packets:400 with
  | None -> Alcotest.fail "cores >= 2 must schedule a kill"
  | Some (victim, g) ->
      Alcotest.(check bool) "victim in range" true (victim >= 0 && victim < 4);
      Alcotest.(check bool) "kill in the middle half" true (g >= 100 && g < 300);
      (* deterministic *)
      Alcotest.(check bool)
        "deterministic" true
        (Faultgen.decide_kill fg ~cores:4 ~packets:400 = Some (victim, g))

(* ----- the platform journal ----- *)

let entry pkt =
  { Gunfu.Platform.Recovery.e_pkt = pkt; e_hint = 0; e_aux = 0; e_inj = None }

let test_journal_epochs () =
  let j =
    Gunfu.Platform.Recovery.journal { Gunfu.Platform.Recovery.epoch = 4; log_capacity = 8 }
  in
  Alcotest.(check bool) "boundary before pull 0" true (Gunfu.Platform.Recovery.boundary j);
  Gunfu.Platform.Recovery.checkpoint j "ck0";
  for _ = 1 to 4 do
    Gunfu.Platform.Recovery.record j (entry None)
  done;
  Alcotest.(check bool) "boundary at epoch" true (Gunfu.Platform.Recovery.boundary j);
  Alcotest.(check int) "suffix holds the epoch" 4
    (List.length (Gunfu.Platform.Recovery.suffix j));
  Gunfu.Platform.Recovery.checkpoint j "ck1";
  Alcotest.(check int) "checkpoint trims the log" 0
    (List.length (Gunfu.Platform.Recovery.suffix j));
  Gunfu.Platform.Recovery.record j (entry None);
  Alcotest.(check bool) "mid-epoch is not a boundary" false
    (Gunfu.Platform.Recovery.boundary j);
  Alcotest.(check (option string)) "last checkpoint" (Some "ck1")
    (Gunfu.Platform.Recovery.last_checkpoint j);
  Alcotest.(check int) "trim accounting" 4 (Gunfu.Platform.Recovery.trimmed j);
  Alcotest.(check int) "no overflow" 0 (Gunfu.Platform.Recovery.overflowed j)

let test_journal_validates () =
  Alcotest.check_raises "epoch must be positive"
    (Invalid_argument "Platform.Recovery.journal: epoch must be positive") (fun () ->
      ignore
        (Gunfu.Platform.Recovery.journal
           { Gunfu.Platform.Recovery.epoch = 0; log_capacity = 8 }));
  Alcotest.check_raises "log must cover an epoch"
    (Invalid_argument "Platform.Recovery.journal: log_capacity must cover one epoch")
    (fun () ->
      ignore
        (Gunfu.Platform.Recovery.journal
           { Gunfu.Platform.Recovery.epoch = 8; log_capacity = 4 }))

let test_owner_pinning () =
  Alcotest.(check int) "hint mod cores" 2 (Gunfu.Platform.Recovery.owner ~cores:3 5);
  Alcotest.(check int) "hint-less falls to core 0" 0
    (Gunfu.Platform.Recovery.owner ~cores:3 (-1))

(* ----- recovery equivalence sweeps ----- *)

let kill_recovers rc ~seed ~cores =
  let plan = Faultgen.create ~seed () in
  let oc = Recovery.check_case ~plan ~cores rc in
  (match oc.Recovery.oc_extra.Recovery.k_kill with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a scheduled kill");
  List.iter
    (fun (label, viol) ->
      Alcotest.failf "%s: %a" label Oracle.pp_violation viol)
    oc.Recovery.oc_violations;
  (match oc.Recovery.oc_divergence with
  | None -> ()
  | Some d -> Alcotest.failf "recovered run diverged: %s (repro: %s)" d oc.Recovery.oc_repro);
  Alcotest.(check bool) "victim checkpointed" true (oc.Recovery.oc_extra.Recovery.k_checkpoints > 0)

let test_gen_kill_sweep () =
  List.iter
    (fun seed ->
      List.iter
        (fun profile ->
          kill_recovers
            (Recovery.gen_rcase ~seed ~profile ~packets:160)
            ~seed ~cores:4)
        [ "uniform"; "zipf" ])
    [ 1; 2; 3; 4 ]

let test_gen_kill_profiles () =
  (* the adversarial arrival orders, and an odd core count *)
  List.iter
    (fun profile ->
      kill_recovers (Recovery.gen_rcase ~seed:11 ~profile ~packets:160) ~seed:11 ~cores:3)
    [ "burst"; "mix" ]

let test_spec_kill_sweep () =
  List.iter
    (fun name ->
      kill_recovers
        (Recovery.spec_rcase ~specs_dir ~name ~seed:5 ~packets:160)
        ~seed:5 ~cores:4)
    Progen.spec_names

(* Exhaustive over victims: force every (victim, kill point) corner,
   including a kill before the victim's first pull. *)
let test_forced_kill_corners () =
  let rc = Recovery.gen_rcase ~seed:9 ~profile:"zipf" ~packets:120 in
  List.iter
    (fun victim ->
      List.iter
        (fun g_kill ->
          let oc = Recovery.check_case ~kill:(victim, g_kill) ~cores:3 rc in
          if not (Recovery.passed oc) then
            Alcotest.failf "victim=%d g=%d: %a" victim g_kill Recovery.pp_outcome oc)
        [ 0; 59; 119 ])
    [ 0; 1; 2 ]

(* ----- the inert plane ----- *)

let strip (p : Recovery.pass) =
  List.map
    (fun (label, (o : Oracle.observation)) ->
      (label, o.Oracle.o_emits, o.Oracle.o_inputs, o.Oracle.o_run))
    p.Recovery.p_obs

let test_journal_inert () =
  List.iter
    (fun seed ->
      let rc = Recovery.gen_rcase ~seed ~profile:"zipf" ~packets:96 in
      (* Trace once (as check_case does) so both passes see the same
         run-local packet ids; each pass still executes its own clones. *)
      let items = lazy (rc.Recovery.r_trace ()) in
      let rc = { rc with Recovery.r_trace = (fun () -> Lazy.force items) } in
      let off = Recovery.observe_platform ~journal:false ~cores:3 rc in
      let on = Recovery.observe_platform ~journal:true ~cores:3 rc in
      Alcotest.(check bool)
        "journaling is byte-inert on observations" true
        (strip off = strip on);
      Alcotest.(check string) "and on the state digest" off.Recovery.p_digest
        on.Recovery.p_digest)
    [ 3; 8 ]

(* ----- invariant teeth ----- *)

let obs_of_emits emits packets : Oracle.observation =
  {
    Oracle.o_label = "fake";
    o_run =
      {
        Gunfu.Metrics.label = "fake";
        packets;
        drops = List.length (List.filter (fun e -> e.Oracle.e_dropped) emits);
        cycles = 0;
        instrs = 0;
        wire_bytes = 0;
        switches = 0;
        mem = Memsim.Memstats.zero;
        freq_ghz = 1.0;
        state_cycles = [||];
        latency = None;
        faulted = 0;
        faults = [];
        degraded = false;
        imbalance = None;
      };
    o_emits = emits;
    o_inputs = [];
    o_state = "";
    o_mshr_pending = 0;
    o_mshr_limit = 1;
  }

let emit ?(pktid = 0) ?(flow = 0) ?(dropped = false) ?(wire = 64) () : Oracle.emit =
  {
    Oracle.e_flow = flow;
    e_aux = 0;
    e_event = (if dropped then "DROP" else "EMIT");
    e_dropped = dropped;
    e_wire = wire;
    e_pkt = "pk";
    e_pktid = pktid;
    e_clock = 0;
  }

let test_check_recovery_teeth () =
  let e0 = emit ~pktid:0 () and e1 = emit ~pktid:1 ~flow:1 () in
  let dup = emit ~pktid:0 () in
  (* clean: 2 offered, 1 replayed *)
  let live = [ ("core0", obs_of_emits [ e0 ] 1); ("core1", obs_of_emits [ dup; e1 ] 2) ] in
  Alcotest.(check int) "clean case has no violations" 0
    (List.length
       (Invariants.check_recovery ~offered:2 ~live ~deduped:[ e0; e1 ]
          ~suppressed:[ (dup, Some e0) ]));
  (* lost packet: deduped comes up short *)
  Alcotest.(check bool) "lost completion detected" true
    (List.exists
       (fun v -> v.Oracle.v_rule = "recovery-conservation")
       (Invariants.check_recovery ~offered:2 ~live ~deduped:[ e0 ]
          ~suppressed:[ (dup, Some e0) ]));
  (* duplicate divergence: replayed content differs from the original *)
  let mutant = emit ~pktid:0 ~wire:999 () in
  Alcotest.(check bool) "diverging replay detected" true
    (List.exists
       (fun v -> v.Oracle.v_rule = "exactly-once")
       (Invariants.check_recovery ~offered:2
          ~live:[ ("core0", obs_of_emits [ e0 ] 1); ("core1", obs_of_emits [ mutant; e1 ] 2) ]
          ~deduped:[ e0; e1 ]
          ~suppressed:[ (mutant, Some e0) ]));
  (* orphan replay: no original on the dead core *)
  Alcotest.(check bool) "orphan replay detected" true
    (List.exists
       (fun v -> v.Oracle.v_rule = "exactly-once")
       (Invariants.check_recovery ~offered:2 ~live ~deduped:[ e0; e1 ]
          ~suppressed:[ (dup, None) ]))

(* ----- Kill_core is inert outside the platform ----- *)

let test_kill_core_inert_in_executors () =
  (* arming Kill_core on a single-core oracle run must change nothing *)
  let case = Progen.case ~seed:17 ~profile:"zipf" ~packets:64 in
  let base =
    Oracle.observe Oracle.reference (case.Oracle.c_build ~packets:64)
  in
  let inst = case.Oracle.c_build ~packets:64 in
  let plane = Gunfu.Fault.create () in
  Gunfu.Fault.inject plane ~packet_id:3 Gunfu.Fault.Kill_core;
  let emits = ref 0 in
  let run =
    Gunfu.Exec.run ~fault:plane
      ~on_complete:(fun _ -> incr emits)
      `Rtc inst.Oracle.worker inst.Oracle.program inst.Oracle.source
  in
  Alcotest.(check int) "same completions" (List.length base.Oracle.o_emits) !emits;
  Alcotest.(check int) "same drops" base.Oracle.o_run.Gunfu.Metrics.drops
    run.Gunfu.Metrics.drops;
  Alcotest.(check int) "nothing quarantined" 0 run.Gunfu.Metrics.faulted

let suite =
  [
    Alcotest.test_case "decide_kill: range, determinism, lone-core" `Quick
      test_decide_kill_shape;
    Alcotest.test_case "journal: epochs, trim, suffix" `Quick test_journal_epochs;
    Alcotest.test_case "journal: plan validation" `Quick test_journal_validates;
    Alcotest.test_case "owner: RSS pinning" `Quick test_owner_pinning;
    Alcotest.test_case "gen sweep: killed run matches failure-free reference" `Slow
      test_gen_kill_sweep;
    Alcotest.test_case "burst/mix profiles recover on 3 cores" `Slow
      test_gen_kill_profiles;
    Alcotest.test_case "spec sweep: nat/sfc4/upf_downlink recover" `Slow
      test_spec_kill_sweep;
    Alcotest.test_case "forced kill corners: every victim, edge kill points" `Slow
      test_forced_kill_corners;
    Alcotest.test_case "journaling is byte-inert when no core dies" `Quick
      test_journal_inert;
    Alcotest.test_case "check_recovery: teeth" `Quick test_check_recovery_teeth;
    Alcotest.test_case "Kill_core is a no-op for executors" `Quick
      test_kill_core_inert_in_executors;
  ]
