(* Executors: RTC baseline vs the interleaved scheduler — functional
   equivalence, accounting, and the performance relationships the paper's
   execution model predicts. *)

open Gunfu

let test_rtc_processes_all () =
  let s = Helpers.nat_setup () in
  let r = Rtc.run s.Helpers.worker s.Helpers.program (Helpers.nat_source s ~count:500) in
  Alcotest.(check int) "all packets completed" 500 r.Metrics.packets;
  Alcotest.(check int) "no drops" 0 r.Metrics.drops;
  Alcotest.(check bool) "cycles advanced" true (r.Metrics.cycles > 0);
  Alcotest.(check int) "wire bytes accounted" (500 * 128) r.Metrics.wire_bytes

let test_scheduler_processes_all () =
  let s = Helpers.nat_setup () in
  let r =
    Scheduler.run s.Helpers.worker s.Helpers.program ~n_tasks:16
      (Helpers.nat_source s ~count:500)
  in
  Alcotest.(check int) "all packets completed" 500 r.Metrics.packets;
  Alcotest.(check int) "no drops" 0 r.Metrics.drops;
  Alcotest.(check bool) "switches recorded" true (r.Metrics.switches > 500)

let test_scheduler_single_task () =
  let s = Helpers.nat_setup () in
  let r =
    Scheduler.run s.Helpers.worker s.Helpers.program ~n_tasks:1
      (Helpers.nat_source s ~count:100)
  in
  Alcotest.(check int) "single task completes everything" 100 r.Metrics.packets

let test_scheduler_more_tasks_than_packets () =
  let s = Helpers.nat_setup () in
  let r =
    Scheduler.run s.Helpers.worker s.Helpers.program ~n_tasks:64
      (Helpers.nat_source s ~count:10)
  in
  Alcotest.(check int) "completes with idle tasks" 10 r.Metrics.packets

let test_scheduler_empty_source () =
  let s = Helpers.nat_setup () in
  let r =
    Scheduler.run s.Helpers.worker s.Helpers.program ~n_tasks:8
      (Helpers.nat_source s ~count:0)
  in
  Alcotest.(check int) "empty source" 0 r.Metrics.packets

let test_invalid_n_tasks () =
  let s = Helpers.nat_setup () in
  List.iter
    (fun n_tasks ->
      match
        Scheduler.run s.Helpers.worker s.Helpers.program ~n_tasks
          (Helpers.nat_source s ~count:1)
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "n_tasks = %d must be rejected" n_tasks)
    [ 0; -1; -16 ]

(* One NFTask degenerates to run-to-completion: the completion stream must
   match RTC packet-for-packet — same order, same events, same sizes. *)
let test_single_task_matches_rtc_order () =
  let completions exec =
    let s = Helpers.nat_setup ~seed:9 () in
    let order = ref [] in
    let on_complete (t : Nftask.t) =
      let wire =
        match t.Nftask.packet with
        | Some p -> p.Netcore.Packet.wire_len
        | None -> 0
      in
      order := (t.Nftask.flow_hint, Event.to_key t.Nftask.event, wire) :: !order
    in
    let _ =
      exec ~on_complete s.Helpers.worker s.Helpers.program
        (Helpers.nat_source s ~count:300)
    in
    List.rev !order
  in
  let rtc = completions (fun ~on_complete w p src -> Rtc.run ~on_complete w p src) in
  let il =
    completions (fun ~on_complete w p src ->
        Scheduler.run ~on_complete w p ~n_tasks:1 src)
  in
  Alcotest.(check int) "same completion count" (List.length rtc) (List.length il);
  let i = ref 0 in
  List.iter2
    (fun ((rf, re, rw) as a) b ->
      if a <> b then Alcotest.failf "completion #%d differs: rtc (%d,%s,%d)" !i rf re rw;
      incr i)
    rtc il

(* Functional equivalence: both executors perform the same rewrites. *)
let test_models_equivalent_effects () =
  let run exec =
    let s = Helpers.nat_setup ~seed:7 () in
    let packets = ref [] in
    let base = Helpers.nat_source s ~count:200 in
    let tap () =
      match base () with
      | None -> None
      | Some item ->
          (match item.Workload.packet with Some p -> packets := p :: !packets | None -> ());
          Some item
    in
    let _ = exec s.Helpers.worker s.Helpers.program tap in
    List.rev_map Netcore.Packet.flow_of_headers !packets
  in
  let rtc_flows = run (fun w p src -> Rtc.run w p src) in
  let il_flows = run (fun w p src -> Scheduler.run w p ~n_tasks:16 src) in
  Alcotest.(check int) "same count" (List.length rtc_flows) (List.length il_flows);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "identical header rewrites" true (Netcore.Flow.equal a b))
    rtc_flows il_flows

let test_nat_rewrite_applied () =
  let s = Helpers.nat_setup () in
  let flow = Traffic.Flowgen.flow s.Helpers.gen 5 in
  let pkt = Netcore.Packet.make ~flow ~wire_len:128 () in
  Netcore.Packet.Pool.assign s.Helpers.pool pkt;
  let r = Helpers.run_one s.Helpers.worker s.Helpers.program pkt in
  Alcotest.(check int) "one packet" 1 r.Metrics.packets;
  let out = Netcore.Packet.flow_of_headers pkt in
  Alcotest.(check string) "source translated"
    (Netcore.Ipv4.addr_to_string s.Helpers.nat.Nfs.Nat.map_ip.(5))
    (Netcore.Ipv4.addr_to_string out.Netcore.Flow.src_ip);
  Alcotest.(check int) "port translated" s.Helpers.nat.Nfs.Nat.map_port.(5)
    out.Netcore.Flow.src_port;
  Alcotest.(check bool) "destination untouched" true
    (Int32.equal out.Netcore.Flow.dst_ip flow.Netcore.Flow.dst_ip);
  Alcotest.(check bool) "ip checksum remains valid" true
    (Netcore.Ipv4.header_valid pkt.Netcore.Packet.buf ~off:pkt.Netcore.Packet.l3_off)

let test_unknown_flow_dropped () =
  let s = Helpers.nat_setup () in
  (* A flow outside the populated universe: MATCH_FAIL -> drop. *)
  let stranger =
    Netcore.Flow.make ~src_ip:(Netcore.Ipv4.addr_of_string "172.16.99.99")
      ~dst_ip:(Netcore.Ipv4.addr_of_string "172.16.0.1") ~src_port:4999 ~dst_port:4999
      ~proto:17
  in
  let pkt = Netcore.Packet.make ~flow:stranger ~wire_len:64 () in
  Netcore.Packet.Pool.assign s.Helpers.pool pkt;
  let r = Helpers.run_one s.Helpers.worker s.Helpers.program pkt in
  Alcotest.(check int) "completed" 1 r.Metrics.packets;
  Alcotest.(check int) "dropped" 1 r.Metrics.drops;
  Alcotest.(check int) "dropped bytes not counted" 0 r.Metrics.wire_bytes

(* ----- the execution-model relationships (§VII-A) ----- *)

let measured ~n_tasks =
  let s = Helpers.nat_setup ~n_flows:65536 () in
  let count = 20_000 in
  if n_tasks = 0 then
    Rtc.run s.Helpers.worker s.Helpers.program (Helpers.nat_source s ~count)
  else
    Scheduler.run s.Helpers.worker s.Helpers.program ~n_tasks
      (Helpers.nat_source s ~count)

let test_interleaving_beats_rtc () =
  let rtc = measured ~n_tasks:0 in
  let il = measured ~n_tasks:16 in
  Alcotest.(check bool) "16 NFTasks at least 1.5x RTC" true
    (Metrics.mpps il > 1.5 *. Metrics.mpps rtc)

let test_single_task_overhead () =
  (* Fig 11: one NFTask is worse than RTC — scheduler overhead without
     overlap. *)
  let rtc = measured ~n_tasks:0 in
  let il1 = measured ~n_tasks:1 in
  Alcotest.(check bool) "1 NFTask slower than RTC" true
    (Metrics.mpps il1 < Metrics.mpps rtc)

let test_interleaving_reduces_misses () =
  let rtc = measured ~n_tasks:0 in
  let il = measured ~n_tasks:16 in
  Alcotest.(check bool) "fewer L1 misses per packet" true
    (Metrics.l1_misses_per_packet il < Metrics.l1_misses_per_packet rtc);
  Alcotest.(check bool) "LLC misses nearly eliminated" true
    (Metrics.llc_misses_per_packet il < 0.2 *. Metrics.llc_misses_per_packet rtc)

let test_interleaving_raises_ipc () =
  let rtc = measured ~n_tasks:0 in
  let il = measured ~n_tasks:16 in
  Alcotest.(check bool) "IPC improves" true (Metrics.ipc il > Metrics.ipc rtc)

let test_prefetches_issued_only_when_interleaving () =
  let rtc = measured ~n_tasks:0 in
  let il = measured ~n_tasks:16 in
  Alcotest.(check int) "RTC never prefetches" 0 rtc.Metrics.mem.Memsim.Memstats.prefetch_issued;
  Alcotest.(check bool) "scheduler prefetches" true
    (il.Metrics.mem.Memsim.Memstats.prefetch_issued > 0)

let test_ready_first_policy () =
  (* Same packets processed, same effects, and never slower at low task
     counts. *)
  let run policy =
    let s = Helpers.nat_setup ~n_flows:16384 ~seed:6 () in
    Scheduler.run ~policy s.Helpers.worker s.Helpers.program ~n_tasks:4
      (Helpers.nat_source s ~count:5000)
  in
  let rr = run Scheduler.Round_robin in
  let rf = run Scheduler.Ready_first in
  Alcotest.(check int) "same packet count" rr.Metrics.packets rf.Metrics.packets;
  Alcotest.(check int) "same drops" rr.Metrics.drops rf.Metrics.drops;
  Alcotest.(check bool) "ready-first not slower at 4 tasks" true
    (Metrics.mpps rf >= Metrics.mpps rr *. 0.98)

let test_state_access_share_drops () =
  let rtc = measured ~n_tasks:0 in
  let il = measured ~n_tasks:16 in
  let share r = Metrics.state_access_share r [ Sref.Match_state; Sref.Per_flow ] in
  Alcotest.(check bool) "state-access share shrinks under interleaving" true
    (share il < share rtc)

(* ----- scheduling pinned to the seeded behaviour ----- *)

let nat_run ~n_flows ~count () =
  let s = Helpers.nat_setup ~n_flows ~seed:11 () in
  (s.Helpers.worker, s.Helpers.program, Helpers.nat_source s ~count)

let sfc4_run ~count () =
  let s = Helpers.sfc_setup ~length:4 () in
  ( s.Helpers.s_worker,
    s.Helpers.s_program,
    Workload.of_flowgen s.Helpers.s_gen ~pool:s.Helpers.s_pool ~count )

(* MD5 of one interleaved run under 16 NFTasks: every completion in order
   (flow, event, load cycle), then cycles, counts and the prefetch and
   line counters. *)
let schedule_digest ?(policy = Scheduler.Round_robin) ~prefetch_distance
    (worker, program, source) =
  let b = Buffer.create 4096 in
  let on_complete (t : Nftask.t) =
    Printf.bprintf b "%d %s %d;" t.Nftask.flow_hint (Event.to_key t.Nftask.event)
      t.Nftask.start_clock
  in
  let r =
    Scheduler.run ~policy ~prefetch_distance ~on_complete worker program ~n_tasks:16 source
  in
  let m = r.Metrics.mem in
  Printf.bprintf b "cycles %d packets %d drops %d prefetch %d/%d/%d lines %d l1 %d waits %d/%d"
    r.Metrics.cycles r.Metrics.packets r.Metrics.drops m.Memsim.Memstats.prefetch_issued
    m.Memsim.Memstats.prefetch_redundant m.Memsim.Memstats.prefetch_dropped
    m.Memsim.Memstats.line_accesses m.Memsim.Memstats.l1_hits m.Memsim.Memstats.mshr_waits
    m.Memsim.Memstats.wait_cycles;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Distances above 1 also issue the targets of FSM successor states. The
   digests were captured while the Fetch blocks were still lists. A lone
   NAT's successor targets resolve only to lines already resident or in
   flight, which the redundant-prefetch counter sees; in the LB -> NAT ->
   NM -> FW chain they reach other NFs' state and issue new lines. So the
   digests pin which speculative blocks are issued, and when. The chain at
   distance 5 reaches some states along two paths, which pins that each
   is visited once. *)
let test_speculative_fetch_digest () =
  let nat () = nat_run ~n_flows:4096 ~count:3000 () and sfc4 () = sfc4_run ~count:3000 () in
  List.iter
    (fun (name, setup, d, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s distance %d digest" name d)
        expected
        (schedule_digest ~prefetch_distance:d (setup ())))
    [
      ("nat", nat, 1, "f988f13c702cac05d021cd145c0d1ed3");
      ("nat", nat, 2, "ede977f19c2f85ea3c20cea1d9015aaa");
      ("nat", nat, 3, "f9fc36db54715f001e37572f25a398e7");
      ("sfc4", sfc4, 1, "fee7188b56286a5cd35eabd694744c7e");
      ("sfc4", sfc4, 2, "56f009c06c882ca1abb3cbff8a279532");
      ("sfc4", sfc4, 3, "c3f56fc4f1e1381264f8b93d6f8063a8");
      ("sfc4", sfc4, 5, "1a2dc150ea045970adb627f654b0d579");
    ]

(* A fan-out two FSM steps ahead: a -> b -> e, and e branches on the
   flow's parity to c or d, which read one line each of two per-flow
   arenas. Action a resolves the per-flow index, so from b on speculation
   at distance 3 reaches c and d in one frontier level and issues both
   lines. With two MSHRs they compete for the slots: the order in which a
   level is walked decides which line is dropped and what c or d later
   waits for. A scheduler that walks a level in concatenation order
   instead of reversed fails this digest; every shipped NF passes the
   other digests either way, because none speculates into a fan-out whose
   targets it can already resolve. *)
let fan_spec =
  Spec.module_spec_of_string
    "module: fan\n\
     category: StatefulNF\n\
     transitions:\n\
     - Start,packet->a\n\
     - a,a_done->b\n\
     - b,b_done->e\n\
     - e,go_c->c\n\
     - e,go_d->d\n\
     - c,c_done->End\n\
     - d,d_done->End\n\
     fetching:\n\
    \  c:\n\
    \  - left\n\
    \  d:\n\
    \  - right\n\
     states:\n\
    \  left: per_flow\n\
    \  right: per_flow\n"

let fan_run ~count =
  let n_flows = 4096 in
  let base = Worker.default_cfg in
  let cfg =
    {
      base with
      Worker.mem_cfg = { base.Worker.mem_cfg with Memsim.Hierarchy.mshr_count = 2 };
    }
  in
  let worker = Worker.create ~cfg ~id:0 () in
  let layout = Worker.layout worker in
  let gen =
    Traffic.Flowgen.create ~seed:3 ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let pool = Netcore.Packet.Pool.create layout ~count:256 in
  let arena label =
    Structures.State_arena.create layout ~label ~entry_bytes:64 ~count:n_flows ()
  in
  let left = arena "left" and right = arena "right" in
  let act name ?invalidates event f =
    let event = Event.User event in
    Action.make ~base_cycles:10 ~base_instrs:10 ?invalidates ~name (fun ctx task ->
        f ctx task;
        event)
  in
  let read arena ctx task =
    ignore (Nfs.Nf_common.per_flow_read ctx task arena ~name:"f" : int)
  in
  let go_c = Event.User "go_c" and go_d = Event.User "go_d" in
  let instance =
    {
      Compiler.i_name = "f";
      i_spec = fan_spec;
      i_actions =
        [
          ( "a",
            act "a" ~invalidates:[ `Per_flow ] "a_done" (fun _ task ->
                task.Nftask.matched <- task.Nftask.flow_hint) );
          ("b", act "b" "b_done" (fun _ _ -> ()));
          ( "e",
            Action.make ~base_cycles:10 ~base_instrs:10 ~name:"e" (fun _ task ->
                if task.Nftask.flow_hint land 1 = 0 then go_c else go_d) );
          ("c", act "c" "c_done" (read left));
          ("d", act "d" "d_done" (read right));
        ];
      i_bindings =
        [ ("left", Prefetch.Per_flow (left, [])); ("right", Prefetch.Per_flow (right, [])) ];
      i_key_kind = None;
    }
  in
  let nf = { Spec.n_name = "fan"; n_modules = [ ("f", "fan") ]; n_transitions = [] } in
  let program = Compiler.compile ~name:"fan" [ instance ] nf in
  (worker, program, Workload.of_flowgen gen ~pool ~count)

let test_frontier_order_digest () =
  Alcotest.(check string) "fan distance 3 digest" "a7ff09d240f18a779a4447a391e625e9"
    (schedule_digest ~prefetch_distance:3 (fan_run ~count:2000))

(* Eight flows under 16 tasks: most pulls find their flow busy and wait in
   the stash. The completion order was captured while per-flow ordering
   still counted active tasks in a table, for both policies. *)
let test_stash_heavy_order () =
  List.iter
    (fun (policy, name, expected) ->
      Alcotest.(check string) (name ^ " completion order") expected
        (schedule_digest ~policy ~prefetch_distance:1 (nat_run ~n_flows:8 ~count:2000 ())))
    [
      (Scheduler.Round_robin, "round-robin", "60f1c8bb9999d70b2a63cf12fa24a918");
      (Scheduler.Ready_first, "ready-first", "f14ead615be0992e15596517b1760a01");
    ]

(* Property: for any traffic seed, every execution model produces the same
   observable per-flow effects (monitor accounting) — the execution model
   changes performance, never semantics. *)
let qcheck_models_semantically_equal =
  QCheck.Test.make ~name:"all execution models produce identical effects" ~count:8
    QCheck.(int_range 1 1000)
    (fun seed ->
      let run exec =
        let worker = Worker.create ~id:0 () in
        let layout = Worker.layout worker in
        let gen =
          Traffic.Flowgen.create ~seed ~n_flows:512
            ~size_model:(Traffic.Flowgen.Fixed 128) ()
        in
        let pool = Netcore.Packet.Pool.create layout ~count:64 in
        let nm = Nfs.Monitor.create layout ~name:"nm" ~n_flows:512 () in
        Nfs.Monitor.populate nm (Traffic.Flowgen.flows gen);
        let program = Nfs.Monitor.program nm in
        let _ = exec worker program (Workload.of_flowgen gen ~pool ~count:800) in
        Array.copy nm.Nfs.Monitor.pkt_count
      in
      let rtc = run (fun w p s -> Rtc.run w p s) in
      let il = run (fun w p s -> Scheduler.run w p ~n_tasks:16 s) in
      let batch = run (Exec.run (`Batch Batch_rtc.default_batch)) in
      let rf =
        run (fun w p s -> Scheduler.run ~policy:Scheduler.Ready_first w p ~n_tasks:16 s)
      in
      rtc = il && il = batch && batch = rf)

let suite =
  [
    Alcotest.test_case "rtc processes all" `Quick test_rtc_processes_all;
    Helpers.qcheck qcheck_models_semantically_equal;
    Alcotest.test_case "scheduler processes all" `Quick test_scheduler_processes_all;
    Alcotest.test_case "scheduler single task" `Quick test_scheduler_single_task;
    Alcotest.test_case "more tasks than packets" `Quick test_scheduler_more_tasks_than_packets;
    Alcotest.test_case "empty source" `Quick test_scheduler_empty_source;
    Alcotest.test_case "invalid n_tasks" `Quick test_invalid_n_tasks;
    Alcotest.test_case "speculative fetch digest" `Quick test_speculative_fetch_digest;
    Alcotest.test_case "speculative frontier order" `Quick test_frontier_order_digest;
    Alcotest.test_case "stash-heavy completion order" `Quick test_stash_heavy_order;
    Alcotest.test_case "single task matches rtc order" `Quick
      test_single_task_matches_rtc_order;
    Alcotest.test_case "models equivalent effects" `Quick test_models_equivalent_effects;
    Alcotest.test_case "nat rewrite applied" `Quick test_nat_rewrite_applied;
    Alcotest.test_case "unknown flow dropped" `Quick test_unknown_flow_dropped;
    Alcotest.test_case "interleaving beats RTC" `Slow test_interleaving_beats_rtc;
    Alcotest.test_case "single task overhead" `Slow test_single_task_overhead;
    Alcotest.test_case "interleaving reduces misses" `Slow test_interleaving_reduces_misses;
    Alcotest.test_case "interleaving raises IPC" `Slow test_interleaving_raises_ipc;
    Alcotest.test_case "prefetch accounting" `Slow test_prefetches_issued_only_when_interleaving;
    Alcotest.test_case "ready-first policy" `Slow test_ready_first_policy;
    Alcotest.test_case "state-access share drops" `Slow test_state_access_share_drops;
  ]
