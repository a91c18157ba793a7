(* The fault-injection plane: deterministic schedules, containment in every
   executor, graceful degradation (poisoning, typed overflow), and — the
   other half of the contract — byte-identical behaviour when injection is
   disabled. *)

open Gunfu
open Check

(* ----- plan determinism ----- *)

let test_plan_deterministic () =
  let a = Faultgen.create ~rate_ppm:50_000 ~seed:7 () in
  let b = Faultgen.create ~rate_ppm:50_000 ~seed:7 () in
  for i = 0 to 9_999 do
    if Faultgen.decide a i <> Faultgen.decide b i then
      Alcotest.failf "plans with equal seeds disagree at index %d" i
  done;
  let c = Faultgen.create ~rate_ppm:50_000 ~seed:8 () in
  let differs = ref false in
  for i = 0 to 9_999 do
    if Faultgen.decide a i <> Faultgen.decide c i then differs := true
  done;
  Alcotest.(check bool) "different seeds give different schedules" true !differs

let test_plan_rate () =
  let t = Faultgen.create ~rate_ppm:10_000 ~seed:5 () in
  let n = Faultgen.planned t ~packets:100_000 in
  if n < 500 || n > 2_000 then
    Alcotest.failf "1%% plan fired %d times over 100000 packets" n;
  Alcotest.(check int) "rate 0 never fires" 0
    (Faultgen.planned (Faultgen.create ~rate_ppm:0 ~seed:5 ()) ~packets:10_000)

(* ----- plane unit behaviour ----- *)

let test_poisoning () =
  let p = Fault.create () in
  Alcotest.(check bool) "fault passes through complete" true
    (Fault.complete p ~flow:7 ~faulted:(Some Fault.Action_raise)
    = Some Fault.Action_raise);
  ignore (Fault.complete p ~flow:7 ~faulted:(Some Fault.Action_raise));
  Alcotest.(check bool) "not yet degraded" false (Fault.degraded p);
  ignore (Fault.complete p ~flow:7 ~faulted:(Some Fault.Action_raise));
  Alcotest.(check bool) "degraded after threshold" true (Fault.degraded p);
  Alcotest.(check int) "one flow poisoned" 1 (Fault.poisoned_flows p);
  (* A clean completion of the poisoned flow is still quarantined. *)
  Alcotest.(check bool) "poisoned flow completion converted" true
    (Fault.complete p ~flow:7 ~faulted:None = Some Fault.Poisoned);
  Alcotest.(check bool) "other flows unaffected" true
    (Fault.complete p ~flow:8 ~faulted:None = None);
  (* A success between faults resets the consecutive counter. *)
  ignore (Fault.complete p ~flow:9 ~faulted:(Some Fault.Parse_error));
  ignore (Fault.complete p ~flow:9 ~faulted:(Some Fault.Parse_error));
  ignore (Fault.complete p ~flow:9 ~faulted:None);
  ignore (Fault.complete p ~flow:9 ~faulted:(Some Fault.Parse_error));
  Alcotest.(check int) "interleaved success prevents poisoning" 1
    (Fault.poisoned_flows p);
  Alcotest.(check int) "faulted counts every quarantined completion" 7
    (Fault.faulted p)

let test_guard_contains () =
  let worker = Worker.create ~id:0 () in
  let ctx = Worker.ctx worker in
  let p = Fault.create () in
  let task = Nftask.create 0 in
  let boom =
    Action.make ~name:"boom" (fun _ _ -> failwith "organic bug in NF code")
  in
  (match Fault.guard p ~nf:"nf_x" boom ctx task with
  | Event.Faulted "action" -> ()
  | e -> Alcotest.failf "expected FAULT[action], got %s" (Event.to_key e));
  let shed =
    Action.make ~name:"shed" (fun _ _ ->
        raise (Fault.Fault (Fault.Table_overflow, "nat_tbl")))
  in
  (match Fault.guard p ~nf:"nf_x" shed ctx task with
  | Event.Faulted "overflow" -> ()
  | e -> Alcotest.failf "expected FAULT[overflow], got %s" (Event.to_key e));
  Alcotest.(check bool) "taxonomy attributes both faults" true
    (Fault.counts p
    = [ ("nat_tbl", Fault.Table_overflow, 1); ("nf_x", Fault.Action_raise, 1) ]);
  (* A clean action is untouched by the barrier. *)
  let ok = Action.make ~name:"ok" (fun _ _ -> Event.Match_success) in
  Alcotest.(check bool) "clean action passes through" true
    (Event.equal (Fault.guard p ~nf:"nf_x" ok ctx task) Event.Match_success)

let test_faulted_event_roundtrip () =
  List.iter
    (fun r ->
      let e = Event.Faulted (Fault.reason_to_key r) in
      Alcotest.(check bool)
        ("event key roundtrip for " ^ Fault.reason_to_key r)
        true
        (Event.equal (Event.of_key (Event.to_key e)) e);
      Alcotest.(check bool) "reason recovered" true
        (Fault.reason_of_event e = Some r))
    [
      Fault.Parse_error; Fault.Table_overflow; Fault.Action_raise;
      Fault.Mshr_stall; Fault.Poisoned;
    ]

(* ----- typed cuckoo overflow policies ----- *)

(* Fill every slot of the table: once population = buckets x slots, any
   insert of a fresh key must reject no matter how the displacement rng
   rolls — a single rejected insert proves much less (retrying the same key
   draws a different walk and may succeed). *)
let saturate table =
  let nslots =
    Structures.Cuckoo.nbuckets table * Structures.Cuckoo.slots_per_bucket
  in
  let key = ref 0x10000000L in
  let attempts = ref 0 in
  while Structures.Cuckoo.population table < nslots && !attempts < 1_000_000 do
    ignore (Structures.Cuckoo.insert table ~key:!key ~value:0);
    key := Int64.add !key 1L;
    incr attempts
  done;
  if Structures.Cuckoo.population table < nslots then
    Alcotest.fail "could not saturate the cuckoo table";
  !key

let test_cuckoo_policies () =
  let t = Structures.Cuckoo.create (Memsim.Layout.create ()) ~label:"c" ~capacity:16 () in
  let key = ref (saturate t) in
  let full_pop = Structures.Cuckoo.population t in
  (* Drop_new: rejected, population unchanged. *)
  (match Structures.Cuckoo.insert_policy t ~policy:Structures.Cuckoo.Drop_new ~key:!key ~value:0 with
  | Structures.Cuckoo.Rejected -> ()
  | _ -> Alcotest.fail "Drop_new must reject on overflow");
  Alcotest.(check int) "Drop_new leaves population" full_pop
    (Structures.Cuckoo.population t);
  (* Shed_flow: also rejected at the structure level (the caller faults). *)
  (match Structures.Cuckoo.insert_policy t ~policy:Structures.Cuckoo.Shed_flow ~key:!key ~value:0 with
  | Structures.Cuckoo.Rejected -> ()
  | _ -> Alcotest.fail "Shed_flow must reject at the structure level");
  (* Evict_lru: the new key gets in, a victim comes out, population holds. *)
  (match Structures.Cuckoo.insert_policy t ~policy:Structures.Cuckoo.Evict_lru ~key:!key ~value:99 with
  | Structures.Cuckoo.Evicted { victim_key; _ } ->
      Alcotest.(check bool) "victim was a resident" true
        (victim_key >= 0x10000000L && victim_key < !key);
      Alcotest.(check bool) "victim no longer resident" true
        (Structures.Cuckoo.lookup t victim_key = None)
  | _ -> Alcotest.fail "Evict_lru must evict on overflow");
  Alcotest.(check bool) "new key resident after eviction" true
    (Structures.Cuckoo.lookup t !key = Some 99);
  Alcotest.(check int) "population unchanged by eviction" full_pop
    (Structures.Cuckoo.population t);
  (* Updating an existing key is never an overflow. *)
  (match Structures.Cuckoo.insert_policy t ~policy:Structures.Cuckoo.Drop_new ~key:!key ~value:7 with
  | Structures.Cuckoo.Updated -> ()
  | _ -> Alcotest.fail "existing key must update in place")

(* ----- NAT learner under match-table pressure ----- *)

(* A dynamic NAT whose match table is pre-saturated with alien keys: every
   learner insert hits Rejected, exercising the overflow policy on the
   data path. *)
let pressured_nat policy =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let nat = Nfs.Nat.create layout ~name:"nat" ~overflow:policy ~n_flows:64 () in
  ignore (saturate (Nfs.Classifier.table nat.Nfs.Nat.classifier));
  let gen =
    Traffic.Flowgen.create ~seed:31 ~n_flows:8 ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let pool = Netcore.Packet.Pool.create layout ~count:64 in
  let source = Workload.of_flowgen gen ~pool ~count:48 in
  (worker, Nfs.Nat.dynamic_program nat, source)

let test_nat_shed_flow_contained () =
  let worker, program, source = pressured_nat Structures.Cuckoo.Shed_flow in
  let r = Rtc.run worker program source in
  Alcotest.(check int) "every packet accounted" 48 r.Metrics.packets;
  Alcotest.(check bool) "overflows quarantined, not crashed" true
    (r.Metrics.faulted > 0);
  Alcotest.(check bool) "taxonomy blames the NAT's overflow" true
    (List.exists
       (fun (nf, reason, n) -> nf = "nat" && reason = Fault.Table_overflow && n > 0)
       r.Metrics.faults);
  Alcotest.(check bool) "repeated overflow degrades the NF" true r.Metrics.degraded;
  Alcotest.(check int) "conservation: emits + drops + faulted = offered" 48
    ((r.Metrics.packets - r.Metrics.drops - r.Metrics.faulted)
    + r.Metrics.drops + r.Metrics.faulted)

let test_nat_drop_new_is_clean_drop () =
  let worker, program, source = pressured_nat Structures.Cuckoo.Drop_new in
  let r = Rtc.run worker program source in
  Alcotest.(check int) "every packet accounted" 48 r.Metrics.packets;
  Alcotest.(check int) "no faults under Drop_new" 0 r.Metrics.faulted;
  Alcotest.(check bool) "rejected flows are plain drops" true (r.Metrics.drops > 0)

(* ----- executors under an injected schedule ----- *)

let observe_with ?plan exec case =
  Oracle.observe ?plan exec (case.Oracle.c_build ~packets:case.Oracle.c_packets)

let assert_invariants name obs =
  match Oracle.check_invariants obs with
  | [] -> ()
  | viol :: _ ->
      Alcotest.failf "%s violates %s: %s" name viol.Oracle.v_rule
        viol.Oracle.v_detail

let test_all_executors_agree_under_faults () =
  List.iter
    (fun profile ->
      let case = Progen.case ~seed:11 ~profile ~packets:64 in
      let plan = Faultgen.create ~rate_ppm:150_000 ~seed:11 () in
      let ref_obs = observe_with ~plan Oracle.reference case in
      Alcotest.(check bool)
        (profile ^ ": schedule actually injects")
        true
        (ref_obs.Oracle.o_run.Metrics.faulted > 0);
      assert_invariants ("rtc/" ^ profile) ref_obs;
      List.iter
        (fun exec ->
          let obs = observe_with ~plan exec case in
          (match Oracle.diff_observations ~reference:ref_obs obs with
          | None -> ()
          | Some d ->
              Alcotest.failf "%s diverges under faults (%s): %s" (Exec.label exec)
                profile d);
          assert_invariants (Exec.label exec ^ "/" ^ profile) obs)
        Oracle.executors)
    [ "uniform"; "zipf" ]

let test_rf_drain_starvation_regression () =
  (* Regression: gen-syn-42 at 128 packets decides a single Stall_mshrs at
     pull index 116, which drops an il-rf-4-d1 task's prefetch right as the
     source drains. The Ready_first scan used to prefer no-op visits of
     idle slots over the unready task, so its fill was never re-issued and
     the run spun forever. The fix gates idle slots on loadable work; this
     case must now terminate and agree with the reference. *)
  let case = Progen.case ~seed:42 ~profile:"uniform" ~packets:128 in
  let plan = Faultgen.create ~rate_ppm:10_000 ~seed:42 () in
  let ref_obs = observe_with ~plan Oracle.reference case in
  let rf4 =
    List.find (fun e -> Exec.label e = "il-rf-4-d1") Oracle.executors
  in
  let obs = observe_with ~plan rf4 case in
  (match Oracle.diff_observations ~reference:ref_obs obs with
  | None -> ()
  | Some d -> Alcotest.failf "il-rf-4-d1 diverges: %s" d);
  assert_invariants "il-rf-4-d1/starvation" obs

let test_heavy_faults_poison_flows () =
  (* At a brutal 60% rate on a skewed profile some flow must hit the
     consecutive-fault threshold; the run degrades but still terminates
     with every packet accounted. *)
  let case = Progen.case ~seed:13 ~profile:"zipf" ~packets:96 in
  let plan = Faultgen.create ~rate_ppm:600_000 ~seed:13 () in
  let obs = observe_with ~plan Oracle.reference case in
  let r = obs.Oracle.o_run in
  assert_invariants "rtc/heavy" obs;
  Alcotest.(check bool) "run degrades" true r.Metrics.degraded;
  Alcotest.(check bool) "poisoned completions in the taxonomy" true
    (List.exists
       (fun (nf, reason, _) -> nf = "flow" && reason = Fault.Poisoned)
       r.Metrics.faults)

let test_disabled_injection_identical () =
  (* Rate 0 threads a live (empty) plane through the executor; the
     observable run must be indistinguishable from no plane at all. *)
  let strip e =
    ( e.Oracle.e_flow, e.Oracle.e_aux, e.Oracle.e_event, e.Oracle.e_dropped,
      e.Oracle.e_wire, e.Oracle.e_pkt, e.Oracle.e_clock )
  in
  List.iter
    (fun exec ->
      let case = Progen.case ~seed:17 ~profile:"mix" ~packets:64 in
      let plain = observe_with exec case in
      let zero =
        observe_with ~plan:(Faultgen.create ~rate_ppm:0 ~seed:17 ()) exec case
      in
      Alcotest.(check string)
        (Exec.label exec ^ ": state digest identical")
        plain.Oracle.o_state zero.Oracle.o_state;
      Alcotest.(check bool)
        (Exec.label exec ^ ": emit streams identical")
        true
        (List.map strip plain.Oracle.o_emits = List.map strip zero.Oracle.o_emits);
      Alcotest.(check int)
        (Exec.label exec ^ ": cycle-identical")
        plain.Oracle.o_run.Metrics.cycles zero.Oracle.o_run.Metrics.cycles;
      Alcotest.(check int) "no faults" 0 zero.Oracle.o_run.Metrics.faulted)
    [ Oracle.reference; List.hd Oracle.executors; List.nth Oracle.executors 5 ]

(* The specialized hot path's exception barrier must be byte-identical to
   Fault.guard: under a 1-2% injected schedule, every executor running
   specialized agrees with the interpreted reference — same faulted
   counts, same taxonomy, same per-flow streams, same state digests. *)
let test_specialized_agrees_under_faults () =
  List.iter
    (fun profile ->
      let case = Progen.case ~seed:19 ~profile ~packets:96 in
      let plan = Faultgen.create ~rate_ppm:15_000 ~seed:19 () in
      Alcotest.(check bool)
        (profile ^ ": 1.5% schedule actually injects")
        true
        (Faultgen.planned plan ~packets:96 > 0);
      let ref_obs = observe_with ~plan Oracle.reference case in
      assert_invariants ("rtc/" ^ profile) ref_obs;
      List.iter
        (fun exec ->
          let obs =
            Oracle.observe ~specialize:true ~plan exec
              (case.Oracle.c_build ~packets:case.Oracle.c_packets)
          in
          (match Oracle.diff_observations ~reference:ref_obs obs with
          | None -> ()
          | Some d ->
              Alcotest.failf "%s diverges under faults (%s): %s" obs.Oracle.o_label
                profile d);
          assert_invariants (obs.Oracle.o_label ^ "/" ^ profile) obs)
        (Oracle.reference :: Oracle.executors))
    [ "uniform"; "zipf" ]

(* Property: for any seed, profile and executor, a moderate injected
   schedule never produces a cross-executor divergence. *)
let prop_no_divergence_under_faults =
  QCheck.Test.make ~name:"oracle agrees under injected faults" ~count:20
    QCheck.(
      triple (int_bound 1_000) (int_bound 3)
        (int_bound (List.length Oracle.executors - 1)))
    (fun (seed, pi, xi) ->
      let profile = List.nth Progen.profiles pi in
      let case = Progen.case ~seed:(seed + 1) ~profile ~packets:48 in
      let plan = Faultgen.create ~rate_ppm:120_000 ~seed:(seed + 1) () in
      let exec = List.nth Oracle.executors xi in
      Oracle.diverges ~plan case exec ~packets:48 = None)

(* Same property with the executor under test specialized. *)
let prop_specialized_no_divergence_under_faults =
  QCheck.Test.make ~name:"specialized path agrees under injected faults" ~count:15
    QCheck.(
      triple (int_bound 1_000) (int_bound 3)
        (int_bound (List.length Oracle.executors - 1)))
    (fun (seed, pi, xi) ->
      let profile = List.nth Progen.profiles pi in
      let case = Progen.case ~seed:(seed + 1) ~profile ~packets:48 in
      let plan = Faultgen.create ~rate_ppm:120_000 ~seed:(seed + 1) () in
      let exec = List.nth Oracle.executors xi in
      Oracle.diverges ~plan ~specialize:true case exec ~packets:48 = None)

let suite =
  [
    Alcotest.test_case "plan is deterministic" `Quick test_plan_deterministic;
    Alcotest.test_case "plan respects rate" `Quick test_plan_rate;
    Alcotest.test_case "poisoning after consecutive faults" `Quick test_poisoning;
    Alcotest.test_case "guard contains action exceptions" `Quick test_guard_contains;
    Alcotest.test_case "faulted event key roundtrip" `Quick test_faulted_event_roundtrip;
    Alcotest.test_case "cuckoo overflow policies" `Quick test_cuckoo_policies;
    Alcotest.test_case "nat shed-flow overflow contained" `Quick
      test_nat_shed_flow_contained;
    Alcotest.test_case "nat drop-new overflow drops" `Quick
      test_nat_drop_new_is_clean_drop;
    Alcotest.test_case "all executors agree under faults" `Slow
      test_all_executors_agree_under_faults;
    Alcotest.test_case "rf drain starvation regression" `Quick
      test_rf_drain_starvation_regression;
    Alcotest.test_case "heavy faults poison flows" `Quick test_heavy_faults_poison_flows;
    Alcotest.test_case "disabled injection is identical" `Quick
      test_disabled_injection_identical;
    Alcotest.test_case "specialized path agrees under faults" `Slow
      test_specialized_agrees_under_faults;
    Helpers.qcheck prop_no_divergence_under_faults;
    Helpers.qcheck prop_specialized_no_divergence_under_faults;
  ]
