(* The director compiler: flattening, match removal, prefetch dedup. *)

open Gunfu

let no_opt = { Compiler.match_removal = false; prefetch_dedup = false; prefetching = true }

let test_flatten_structure () =
  let s = Helpers.nat_setup ~opts:no_opt () in
  let p = s.Helpers.program in
  (* __start, __done, 7 classifier states, 1 mapper state. *)
  Alcotest.(check int) "control state count" 10 (Program.n_states p);
  Alcotest.(check bool) "start is not done" false (Program.is_done p (Program.start p));
  (* Entry: __start --packet--> nat_cls.get_key *)
  let first = Program.step p (Program.start p) Event.Packet_arrival in
  Alcotest.(check string) "entry state" "nat_cls.get_key" (Program.info p first).Program.qname

let test_flatten_walk_success_path () =
  let s = Helpers.nat_setup ~opts:no_opt () in
  let p = s.Helpers.program in
  let step_name cs ev = (Program.info p (Program.step p cs (Event.of_key ev))).Program.qname in
  let cs0 = Program.step p (Program.start p) Event.Packet_arrival in
  Alcotest.(check string) "get_key -> hash_1" "nat_cls.hash_1" (step_name cs0 "get_key_done");
  let cs1 = Program.step p cs0 (Event.User "get_key_done") in
  let cs2 = Program.step p cs1 (Event.User "hash_done") in
  Alcotest.(check string) "hash_1 -> bucket_check_1" "nat_cls.bucket_check_1"
    (Program.info p cs2).Program.qname;
  let cs3 = Program.step p cs2 (Event.User "bucket_hit") in
  (* MATCH_SUCCESS exits the classifier into the mapper. *)
  let cs4 = Program.step p cs3 Event.Match_success in
  Alcotest.(check string) "classifier exit wires to data module" "nat_map.flow_mapper"
    (Program.info p cs4).Program.qname;
  (* Mapper emits "packet", which terminates the single-NF chain. *)
  Alcotest.(check bool) "mapper exit completes" true
    (Program.is_done p (Program.step p cs4 Event.Packet_arrival))

let test_flatten_match_fail_drops () =
  let s = Helpers.nat_setup ~opts:no_opt () in
  let p = s.Helpers.program in
  let cs = Program.cs_by_name p "nat_cls.bucket_check_2" in
  Alcotest.(check bool) "MATCH_FAIL goes to done" true
    (Program.is_done p (Program.step p cs Event.Match_fail))

let test_undefined_transition_raises () =
  let s = Helpers.nat_setup ~opts:no_opt () in
  let p = s.Helpers.program in
  let cs = Program.cs_by_name p "nat_cls.get_key" in
  match Program.step p cs (Event.User "nonsense") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undefined transition must raise"

let test_missing_action_impl () =
  let s = Helpers.nat_setup () in
  let broken =
    let inst = Nfs.Classifier.instance s.Helpers.nat.Nfs.Nat.classifier in
    { inst with Compiler.i_actions = List.tl inst.Compiler.i_actions }
  in
  let nf =
    {
      Spec.n_name = "broken";
      n_modules = [ (broken.Compiler.i_name, "flow_classifier") ];
      n_transitions = [];
    }
  in
  match Compiler.compile ~name:"broken" [ broken ] nf with
  | exception Compiler.Compile_error _ -> ()
  | _ -> Alcotest.fail "missing action implementation must fail compilation"

let test_missing_binding () =
  let s = Helpers.nat_setup () in
  let inst = Nfs.Classifier.instance s.Helpers.nat.Nfs.Nat.classifier in
  let broken = { inst with Compiler.i_bindings = [] } in
  let nf =
    {
      Spec.n_name = "broken";
      n_modules = [ (broken.Compiler.i_name, "flow_classifier") ];
      n_transitions = [];
    }
  in
  match Compiler.compile ~name:"broken" [ broken ] nf with
  | exception Compiler.Compile_error _ -> ()
  | _ -> Alcotest.fail "missing prefetch binding must fail compilation"

(* ----- match removal ----- *)

let count_states_with_prefix p prefix =
  let n = ref 0 in
  for i = 0 to Program.n_states p - 1 do
    let q = (Program.info p i).Program.qname in
    if String.length q >= String.length prefix && String.sub q 0 (String.length prefix) = prefix
    then incr n
  done;
  !n

let test_match_removal_prunes_classifiers () =
  let with_mr = { Compiler.default_opts with Compiler.match_removal = true } in
  let s = Helpers.sfc_setup ~length:4 ~opts:with_mr () in
  let p = s.Helpers.s_program in
  (* Only the first classifier (lb_cls) survives; nat/nm/fw classifiers are
     gone. *)
  Alcotest.(check bool) "lb classifier kept" true (count_states_with_prefix p "lb_cls." > 0);
  Alcotest.(check int) "nat classifier removed" 0 (count_states_with_prefix p "nat_cls.");
  Alcotest.(check int) "nm classifier removed" 0 (count_states_with_prefix p "nm_cls.");
  Alcotest.(check int) "fw classifier removed" 0 (count_states_with_prefix p "fw1_cls.")

let test_match_removal_keeps_different_keys () =
  (* The UPF PDR matcher keys sub-flows differently from the UE-IP session
     classifier: match removal must keep both. *)
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let mgw = Traffic.Mgw.create ~n_sessions:64 ~n_pdrs:4 () in
  let upf =
    Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:4 ()
  in
  Nfs.Upf.populate upf;
  let p = Nfs.Upf.program ~opts:{ Compiler.default_opts with Compiler.match_removal = true } upf in
  Alcotest.(check bool) "session classifier kept" true
    (count_states_with_prefix p "upf_cls." > 0);
  Alcotest.(check bool) "pdr matcher kept" true (count_states_with_prefix p "upf_pdr." > 0)

let test_match_removal_preserves_behaviour () =
  (* Same traffic, with and without MR: all packets must complete with the
     same per-flow effects (NAT rewrite identical). *)
  let run opts =
    let s = Helpers.sfc_setup ~length:4 ~opts () in
    let r = Rtc.run s.Helpers.s_worker s.Helpers.s_program
        (Workload.of_flowgen s.Helpers.s_gen ~pool:s.Helpers.s_pool ~count:2000) in
    (r, s)
  in
  let r_plain, s_plain = run Compiler.default_opts in
  let r_mr, s_mr = run { Compiler.default_opts with Compiler.match_removal = true } in
  Alcotest.(check int) "same packet count" r_plain.Metrics.packets r_mr.Metrics.packets;
  Alcotest.(check int) "same drops" r_plain.Metrics.drops r_mr.Metrics.drops;
  (* Monitor accounting must agree flow-by-flow (same seed => same traffic). *)
  let nm_plain = Option.get s_plain.Helpers.s_sfc.Nfs.Sfc.nm in
  let nm_mr = Option.get s_mr.Helpers.s_sfc.Nfs.Sfc.nm in
  Alcotest.(check (array int)) "per-flow packet counters identical"
    nm_plain.Nfs.Monitor.pkt_count nm_mr.Nfs.Monitor.pkt_count

let test_match_removal_faster () =
  let run opts =
    let s = Helpers.sfc_setup ~n_flows:65536 ~length:6 ~opts () in
    Scheduler.run s.Helpers.s_worker s.Helpers.s_program ~n_tasks:16
      (Workload.of_flowgen s.Helpers.s_gen ~pool:s.Helpers.s_pool ~count:20_000)
  in
  let plain = run Compiler.default_opts in
  let mr = run { Compiler.default_opts with Compiler.match_removal = true } in
  Alcotest.(check bool) "MR at least 1.5x faster on len-6 SFC" true
    (Metrics.mpps mr > 1.5 *. Metrics.mpps plain)

(* ----- prefetch dedup ----- *)

let prefetch_of p name = (Program.info p (Program.cs_by_name p name)).Program.prefetch

let test_prefetch_dedup_removes_header () =
  (* In an SFC every classifier's get_key wants the packet header; after the
     first fetch it is resident for the packet's lifetime, so dedup must
     strip it from later classifiers. *)
  let with_dedup = Compiler.default_opts in
  let s = Helpers.sfc_setup ~length:2 ~opts:with_dedup () in
  let p = s.Helpers.s_program in
  let has_header name =
    List.exists
      (fun t -> match t with Prefetch.Packet_header _ -> true | _ -> false)
      (prefetch_of p name)
  in
  Alcotest.(check bool) "first classifier fetches header" true (has_header "lb_cls.get_key");
  Alcotest.(check bool) "second classifier header deduped" false
    (has_header "nat_cls.get_key")

let test_prefetch_dedup_keeps_match_addrs () =
  (* match_addrs are invalidated by every hash action, so bucket checks must
     keep their prefetch in both classifiers. *)
  let s = Helpers.sfc_setup ~length:2 () in
  let p = s.Helpers.s_program in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " keeps match prefetch") true
        (List.exists
           (fun t -> Prefetch.equal_target t Prefetch.Match_addrs)
           (prefetch_of p name)))
    [ "lb_cls.bucket_check_1"; "nat_cls.bucket_check_1"; "nat_cls.key_check_1" ]

let test_prefetch_dedup_off () =
  let s = Helpers.sfc_setup ~length:2 ~opts:no_opt () in
  let p = s.Helpers.s_program in
  let has_header name =
    List.exists
      (fun t -> match t with Prefetch.Packet_header _ -> true | _ -> false)
      (prefetch_of p name)
  in
  Alcotest.(check bool) "without dedup the second header prefetch stays" true
    (has_header "nat_cls.get_key")

let test_prefetching_disabled () =
  let opts = { Compiler.default_opts with Compiler.prefetching = false } in
  let s = Helpers.nat_setup ~opts () in
  let p = s.Helpers.program in
  for i = 0 to Program.n_states p - 1 do
    Alcotest.(check (list string)) "no prefetch targets" []
      (List.map (Fmt.str "%a" Prefetch.pp_target) (Program.info p i).Program.prefetch)
  done

let suite =
  [
    Alcotest.test_case "flatten structure" `Quick test_flatten_structure;
    Alcotest.test_case "flatten success path" `Quick test_flatten_walk_success_path;
    Alcotest.test_case "match fail drops" `Quick test_flatten_match_fail_drops;
    Alcotest.test_case "undefined transition raises" `Quick test_undefined_transition_raises;
    Alcotest.test_case "missing action impl" `Quick test_missing_action_impl;
    Alcotest.test_case "missing binding" `Quick test_missing_binding;
    Alcotest.test_case "MR prunes classifiers" `Quick test_match_removal_prunes_classifiers;
    Alcotest.test_case "MR keeps different keys" `Quick test_match_removal_keeps_different_keys;
    Alcotest.test_case "MR preserves behaviour" `Quick test_match_removal_preserves_behaviour;
    Alcotest.test_case "MR is faster" `Slow test_match_removal_faster;
    Alcotest.test_case "dedup removes header" `Quick test_prefetch_dedup_removes_header;
    Alcotest.test_case "dedup keeps match addrs" `Quick test_prefetch_dedup_keeps_match_addrs;
    Alcotest.test_case "dedup off keeps header" `Quick test_prefetch_dedup_off;
    Alcotest.test_case "prefetching disabled" `Quick test_prefetching_disabled;
  ]
