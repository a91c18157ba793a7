(* NF model primitives: events, FSM, NFTask, prefetch targets, metrics. *)

open Gunfu

(* ----- events ----- *)

let test_event_roundtrip () =
  List.iter
    (fun e ->
      Alcotest.(check bool) ("roundtrip " ^ Event.to_key e) true
        (Event.equal e (Event.of_key (Event.to_key e))))
    [
      Event.Packet_arrival; Event.Match_success; Event.Match_fail; Event.Emit_packet;
      Event.Drop_packet; Event.User "hash_done";
    ]

let test_event_user_key () =
  Alcotest.(check string) "user event key" "tree_ready" (Event.to_key (Event.User "tree_ready"));
  Alcotest.(check bool) "of_key canonicalizes" true
    (Event.equal Event.Match_success (Event.of_key "MATCH_SUCCESS"))

(* ----- FSM ----- *)

let build_simple () =
  let b = Fsm.Builder.create () in
  let s0 = Fsm.Builder.add_state b "a" in
  let s1 = Fsm.Builder.add_state b "b" in
  let s2 = Fsm.Builder.add_state b "c" in
  Fsm.Builder.add_edge b ~src:s0 ~event:"go" ~dst:s1;
  Fsm.Builder.add_edge b ~src:s0 ~event:"skip" ~dst:s2;
  Fsm.Builder.add_edge b ~src:s1 ~event:"go" ~dst:s2;
  (Fsm.Builder.build b, s0, s1, s2)

let test_fsm_step () =
  let fsm, s0, s1, s2 = build_simple () in
  Alcotest.(check (option int)) "a --go--> b" (Some s1) (Fsm.step fsm s0 (Event.User "go"));
  Alcotest.(check (option int)) "a --skip--> c" (Some s2) (Fsm.step fsm s0 (Event.User "skip"));
  Alcotest.(check (option int)) "undefined transition" None (Fsm.step fsm s2 (Event.User "go"))

let test_fsm_add_state_idempotent () =
  let b = Fsm.Builder.create () in
  let x = Fsm.Builder.add_state b "x" in
  Alcotest.(check int) "same id on re-add" x (Fsm.Builder.add_state b "x")

let test_fsm_nondeterminism_rejected () =
  let b = Fsm.Builder.create () in
  let s0 = Fsm.Builder.add_state b "a" in
  let s1 = Fsm.Builder.add_state b "b" in
  let s2 = Fsm.Builder.add_state b "c" in
  Fsm.Builder.add_edge b ~src:s0 ~event:"go" ~dst:s1;
  match Fsm.Builder.add_edge b ~src:s0 ~event:"go" ~dst:s2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "conflicting edge must be rejected"

let test_fsm_duplicate_edge_ok () =
  let b = Fsm.Builder.create () in
  let s0 = Fsm.Builder.add_state b "a" in
  let s1 = Fsm.Builder.add_state b "b" in
  Fsm.Builder.add_edge b ~src:s0 ~event:"go" ~dst:s1;
  Fsm.Builder.add_edge b ~src:s0 ~event:"go" ~dst:s1;
  let fsm = Fsm.Builder.build b in
  Alcotest.(check int) "one successor" 1 (List.length (Fsm.successors fsm s0))

let test_fsm_graph_queries () =
  let fsm, s0, s1, s2 = build_simple () in
  Alcotest.(check (list int)) "preds of c" [ s0; s1 ]
    (List.sort compare (Fsm.predecessors fsm s2));
  Alcotest.(check bool) "c terminal" true (Fsm.is_terminal fsm s2);
  Alcotest.(check bool) "a not terminal" false (Fsm.is_terminal fsm s0);
  Alcotest.(check (option int)) "index by name" (Some s1) (Fsm.index fsm "b");
  Alcotest.(check string) "name by index" "b" (Fsm.name fsm s1);
  Alcotest.(check int) "n_states" 3 (Fsm.n_states fsm)

(* ----- NFTask ----- *)

let test_nftask_load_resets () =
  let t = Nftask.create 3 in
  t.Nftask.matched <- 5;
  t.Nftask.sub_matched <- 7;
  Nftask.set_match t ~addr:1 ~bytes:2;
  Bytes.set_int64_le t.Nftask.temps.Nftask.key 0 99L;
  t.Nftask.temps.Nftask.regs.(0) <- 42;
  Nftask.load t ~cs:2 ~packet:None ~aux:1 ~flow_hint:12;
  Alcotest.(check int) "cs set" 2 t.Nftask.cs;
  Alcotest.(check int) "matched reset" (-1) t.Nftask.matched;
  Alcotest.(check int) "sub_matched reset" (-1) t.Nftask.sub_matched;
  Alcotest.(check int) "match addr cleared" (-1) t.Nftask.match_addr;
  Alcotest.(check int64) "key cleared" 0L (Bytes.get_int64_le t.Nftask.temps.Nftask.key 0);
  Alcotest.(check int) "regs cleared" 0 t.Nftask.temps.Nftask.regs.(0);
  Alcotest.(check int) "aux stored" 1 t.Nftask.aux;
  Alcotest.(check int) "flow hint stored" 12 t.Nftask.flow_hint;
  Alcotest.(check bool) "active" true t.Nftask.active

let test_nftask_retire () =
  let t = Nftask.create 0 in
  Nftask.load t ~cs:0 ~packet:None ~aux:0 ~flow_hint:(-1);
  Nftask.retire t;
  Alcotest.(check bool) "inactive after retire" false t.Nftask.active;
  match Nftask.packet_exn t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "packet_exn on empty task must raise"

(* ----- prefetch targets ----- *)

let arena_a = lazy (Structures.State_arena.create (Memsim.Layout.create ()) ~label:"A" ~entry_bytes:8 ~count:10 ())
let arena_b = lazy (Structures.State_arena.create (Memsim.Layout.create ()) ~label:"B" ~entry_bytes:8 ~count:10 ())

let test_target_equality () =
  let a = Lazy.force arena_a and b = Lazy.force arena_b in
  Alcotest.(check bool) "same arena equal" true
    (Prefetch.equal_target (Prefetch.Per_flow (a, [])) (Prefetch.Per_flow (a, [])));
  Alcotest.(check bool) "different arena unequal" false
    (Prefetch.equal_target (Prefetch.Per_flow (a, [])) (Prefetch.Per_flow (b, [])));
  Alcotest.(check bool) "per-flow vs sub-flow unequal" false
    (Prefetch.equal_target (Prefetch.Per_flow (a, [])) (Prefetch.Sub_flow (a, [])));
  Alcotest.(check bool) "match_addrs equal" true
    (Prefetch.equal_target Prefetch.Match_addrs Prefetch.Match_addrs);
  Alcotest.(check bool) "packet header sizes" false
    (Prefetch.equal_target (Prefetch.Packet_header 32) (Prefetch.Packet_header 64))

(* The blocks [targets] resolve to through the array resolver, as
   (addr, bytes) pairs. It writes from block 1 on, leaving block 0 as it
   was, the way a speculative fetch resolves past the Fetch blocks. *)
let resolved targets (t : Nftask.t) =
  Nftask.set_block t 0 ~addr:0xdead ~bytes:1;
  let stop = Prefetch.resolve targets t ~at:1 in
  let block i = (Nftask.block_addr t i, Nftask.block_bytes t i) in
  Alcotest.(check (pair int int)) "block 0 untouched" (0xdead, 1) (block 0);
  List.init (stop - 1) (fun i -> block (i + 1))

let test_target_resolution () =
  let a = Lazy.force arena_a in
  let t = Nftask.create 0 in
  Nftask.load t ~cs:0 ~packet:None ~aux:0 ~flow_hint:(-1);
  (* Unresolvable before a match. *)
  Alcotest.(check (list (pair int int))) "per-flow unresolved" []
    (resolved [ Prefetch.Per_flow (a, []) ] t);
  t.Nftask.matched <- 3;
  Alcotest.(check (list (pair int int))) "per-flow resolves to entry"
    [ (Structures.State_arena.addr a 3, 8) ]
    (resolved [ Prefetch.Per_flow (a, []) ] t);
  Nftask.set_match t ~addr:0x100 ~bytes:64;
  Alcotest.(check (list (pair int int))) "match addr passes through"
    [ (0x100, 64) ]
    (resolved [ Prefetch.Match_addrs ] t);
  (* No packet: header target resolves empty rather than crashing. *)
  Alcotest.(check (list (pair int int))) "no packet -> empty" []
    (resolved [ Prefetch.Packet_header 64 ] t);
  Alcotest.(check (list (pair int int))) "targets in order, unresolvable skipped"
    [ (0x100, 64); (Structures.State_arena.addr a 3, 8) ]
    (resolved [ Prefetch.Match_addrs; Prefetch.Packet_header 64; Prefetch.Per_flow (a, []) ] t)

let test_target_field_resolution () =
  let layout = Memsim.Layout.create () in
  let a =
    Structures.State_arena.create_record layout ~label:"R"
      ~field_offsets:[ ("x", 0); ("y", 32) ] ~record_bytes:64 ~count:4 ()
  in
  let t = Nftask.create 0 in
  Nftask.load t ~cs:0 ~packet:None ~aux:0 ~flow_hint:(-1);
  t.Nftask.matched <- 2;
  Alcotest.(check (list (pair int int))) "field slices"
    [
      (Structures.State_arena.field_addr a 2 "x", 8);
      (Structures.State_arena.field_addr a 2 "y", 16);
    ]
    (resolved [ Prefetch.Per_flow (a, [ ("x", 8); ("y", 16) ]) ] t);
  (* More blocks than the array holds: it grows, keeping the earlier ones. *)
  let many = List.init 12 (fun _ -> Prefetch.Per_flow (a, [ ("x", 8); ("y", 16) ])) in
  let blocks = resolved many t in
  Alcotest.(check int) "24 blocks" 24 (List.length blocks);
  Alcotest.(check (list (pair int int))) "grown array keeps every block"
    (List.concat
       (List.init 12 (fun _ ->
            [
              (Structures.State_arena.field_addr a 2 "x", 8);
              (Structures.State_arena.field_addr a 2 "y", 16);
            ])))
    blocks

(* ----- metrics ----- *)

let mk_run ?(cycles = 2_700_000) ?(packets = 1000) ?(wire = 64000) () =
  {
    Metrics.label = "t";
    packets;
    drops = 0;
    cycles;
    instrs = cycles / 2;
    wire_bytes = wire;
    switches = 0;
    mem = Memsim.Memstats.zero;
    freq_ghz = 2.7;
    state_cycles = Array.make Exec_ctx.n_classes 0;
    latency = None;
    faulted = 0;
    faults = [];
    degraded = false;
    imbalance = None;
  }

let test_metrics_math () =
  let r = mk_run () in
  (* 2.7e6 cycles at 2.7 GHz = 1 ms; 1000 packets -> 1 Mpps. *)
  Alcotest.(check (float 1e-6)) "mpps" 1.0 (Metrics.mpps r);
  (* 64000 bytes in 1 ms = 0.512 Gbps *)
  Alcotest.(check (float 1e-6)) "gbps" 0.512 (Metrics.gbps r);
  Alcotest.(check (float 1e-6)) "ipc" 0.5 (Metrics.ipc r);
  Alcotest.(check (float 1e-6)) "cycles per packet" 2700.0 (Metrics.cycles_per_packet r)

let test_metrics_line_rate_cap () =
  let r = mk_run ~cycles:27_000 ~wire:640_000 () in
  Alcotest.(check (float 1e-6)) "capped at line rate" 100.0
    (Metrics.gbps_scaled r ~cores:16)

let test_metrics_merge_parallel () =
  let a = mk_run ~cycles:1000 ~packets:10 ~wire:100 () in
  let b = mk_run ~cycles:2000 ~packets:20 ~wire:200 () in
  let m = Metrics.merge_parallel [ a; b ] in
  Alcotest.(check int) "packets sum" 30 m.Metrics.packets;
  Alcotest.(check int) "cycles max" 2000 m.Metrics.cycles;
  Alcotest.(check int) "wire sum" 300 m.Metrics.wire_bytes

let test_metrics_zero_safe () =
  let r = mk_run ~cycles:0 ~packets:0 ~wire:0 () in
  Alcotest.(check (float 0.0)) "mpps zero" 0.0 (Metrics.mpps r);
  Alcotest.(check (float 0.0)) "cyc/pkt zero" 0.0 (Metrics.cycles_per_packet r)

let suite =
  [
    Alcotest.test_case "event roundtrip" `Quick test_event_roundtrip;
    Alcotest.test_case "event user key" `Quick test_event_user_key;
    Alcotest.test_case "fsm step" `Quick test_fsm_step;
    Alcotest.test_case "fsm add_state idempotent" `Quick test_fsm_add_state_idempotent;
    Alcotest.test_case "fsm nondeterminism rejected" `Quick test_fsm_nondeterminism_rejected;
    Alcotest.test_case "fsm duplicate edge ok" `Quick test_fsm_duplicate_edge_ok;
    Alcotest.test_case "fsm graph queries" `Quick test_fsm_graph_queries;
    Alcotest.test_case "nftask load resets" `Quick test_nftask_load_resets;
    Alcotest.test_case "nftask retire" `Quick test_nftask_retire;
    Alcotest.test_case "target equality" `Quick test_target_equality;
    Alcotest.test_case "target resolution" `Quick test_target_resolution;
    Alcotest.test_case "target field resolution" `Quick test_target_field_resolution;
    Alcotest.test_case "metrics math" `Quick test_metrics_math;
    Alcotest.test_case "metrics line-rate cap" `Quick test_metrics_line_rate_cap;
    Alcotest.test_case "metrics merge parallel" `Quick test_metrics_merge_parallel;
    Alcotest.test_case "metrics zero safe" `Quick test_metrics_zero_safe;
  ]
