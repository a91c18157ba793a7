(* Per-packet allocation budget of the action path and of the interleaved
   scheduler's step. An NFTask is a fixed, preallocated context that
   actions update in place (§V, Fig 9a), so driving a UPF downlink packet
   through [Rtc.run] specialized allocates nothing, and interpreted only
   what Δ and the fault barrier cost. The source hands out pre-built
   items, and a zero-packet run is subtracted, so only the per-packet path
   is counted: engine dispatch, the fault barrier, Δ, the action bodies
   and the structure probes. The AMF case pins the signalling path's cost
   per NAS message the same way. The NAT cases run 16 interleaved
   NFTasks, so they also count the scheduler's visit: the Fetch step's
   block array, per-flow ordering, the NF-C mapper body and, at distance
   2, speculation; one of them also counts the traffic pull. The SCR case
   counts the replicated data path: spray, delivery ring, update records
   and their GUPD1 frames, and the window scans. Every budget is the
   reading of the dev profile (no cross-module inlining), the worse of
   the two profiles, plus under one word. *)

open Gunfu

let n_sessions = 1024
let n_pdrs = 16
let packets = 4000

(* Minor words per packet of [program] over [packets] pre-built items from
   [source ~count], run by [exec] interpreted or through
   [Specialize.install]. *)
let words_per_packet ~specialize ~exec (worker, program, source) =
  if specialize then Specialize.install program;
  let items count =
    let src = source ~count in
    Array.init count (fun _ -> src ())
  in
  let replay (items : Workload.item option array) =
    let i = ref 0 in
    fun () ->
      if !i < Array.length items then begin
        let it = items.(!i) in
        incr i;
        it
      end
      else None
  in
  let words items =
    let src = replay items in
    let before = Gc.minor_words () in
    let (_ : Metrics.run) = exec worker program src in
    Gc.minor_words () -. before
  in
  (* Warm the memo tables and the latency collector first. *)
  ignore (words (items 500) : float);
  let measured = items packets in
  let empty = words [||] in
  let full = words measured in
  (full -. empty) /. float_of_int packets

(* [Helpers.upf_setup]'s session count and PDR shape. *)
let upf () =
  let worker, mgw, pool, _upf, program = Helpers.upf_setup ~n_sessions ~n_pdrs () in
  (worker, program, fun ~count -> Workload.of_mgw_downlink mgw ~pool ~count)

(* [Helpers.amf_setup]'s 1,024 UEs, one NAS message per item. *)
let amf () =
  let worker, gen, pool, _amf, program = Helpers.amf_setup () in
  (worker, program, fun ~count -> Workload.of_amf gen ~pool ~count)

(* UPF specialized: 0.00 words per packet. It read 3.00 while the
   classifier's key extractor returned a boxed int64; the key is now
   written into the task's 8-byte slot and the Cuckoo probes read it
   there. UPF interpreted: 94.06, because [Fsm.step] and [Fault.guard]
   still allocate per action; making them cheaper would spend the host
   margin perfbench's self-check requires of the specialized path. AMF
   specialized: 27.06 words per message (30.06 with the boxed key), with
   the dispatch action handing back one prebuilt event per message type
   (57.28 when it built a fresh event string per message) and the
   field-sliced [State_arena] lookups allocating no option (46.62 when
   they did). Any closure, option, list or variant built per action lands
   above these budgets. NAT il16 specialized: 0.22 words per packet,
   about 640 words per run that grow with the task count (0.16 here; one
   task reads 0.00) and the stash appends of pulls whose flow is busy
   (0.06). It read 6.22 with the boxed key and the [Int32] the mapper
   handed to the source-address rewrite (now an int rewrite), and 36.47
   while the Fetch step built (addr, bytes) lists, per-flow ordering
   counted flows in a hashtable and the NF-C body returned an option. *)
let check_budget ~exec ~specialize ~budget setup () =
  let w = words_per_packet ~specialize ~exec (setup ()) in
  if w > budget then
    Alcotest.failf "%.2f minor words per packet, budget %.1f" w budget

let rtc w p src = Rtc.run w p src
let il16 w p src = Exec.run (Exec.il 16) w p src

(* [Helpers.nat_setup]'s 4,096 uniform flows. *)
let nat () =
  let s = Helpers.nat_setup () in
  (s.Helpers.worker, s.Helpers.program, fun ~count -> Helpers.nat_source s ~count)

(* NAT il16 at prefetch distance 2: the Fetch step also speculates one
   FSM step ahead, over successor arrays built once per loop and two int
   frontier buffers, so it reads the distance-1 0.22 words. It read
   154.52 while each speculation walked [Fsm.successors] lists. *)
let il16_d2 w p src =
  Exec.run (`Il { Exec.policy = Scheduler.Round_robin; n_tasks = 16; distance = 2 }) w p src

(* NAT il16 specialized with its traffic pull inside the measured call:
   [Workload.of_flowgen] over a packet arena, as perfbench's nat-il16
   drives it, instead of pre-built items. Each run gets a fresh source
   built before the bracket; the ring is warmed by a full turn, and a
   zero-packet run is subtracted. *)
let pull_words_per_packet () =
  let s = Helpers.nat_setup () in
  Specialize.install s.Helpers.program;
  let arena = Netcore.Packet.Arena.create () in
  let words count =
    let src = Workload.of_flowgen ~arena s.Helpers.gen ~pool:s.Helpers.pool ~count in
    let before = Gc.minor_words () in
    let (_ : Metrics.run) = il16 s.Helpers.worker s.Helpers.program src in
    Gc.minor_words () -. before
  in
  (* A full turn of the ring first, so every slot holds its packet. *)
  ignore (words (Netcore.Packet.Arena.size arena) : float);
  let empty = words 0 in
  let full = words packets in
  (full -. empty) /. float_of_int packets

(* 6.21 words per packet: the work item and its [Some] (6 words; the
   packet arrives as the arena slot's stored option), plus the 0.22 of
   the scheduler above. It read 17.21 while the pull built an
   (index, packet) pair and a fresh [Some] around the arena's packet, the
   classifier boxed its key and the mapper boxed an [Int32]. *)
let pull_budget = 6.3

let test_pull_budget () =
  let w = pull_words_per_packet () in
  if w > pull_budget then
    Alcotest.failf "%.2f minor words per packet, budget %.1f" w pull_budget

(* A 1,024-flow network monitor replicated on 4 cores and driven through
   [Scr.run] under rtc, as perfbench's scr-zipf drives 8: interpreted, a
   single-flow monitor export as each record's payload, Zipf 1.2 traffic.
   The spray is part of the measured call; the items are built before it,
   and a zero-packet run is subtracted. *)
let scr_cores = 4
let scr_flows = 1024

let scr_words_per_packet () =
  let plat = Platform.create ~cores:scr_cores () in
  let gen =
    Traffic.Flowgen.create ~seed:1 ~popularity:(Traffic.Flowgen.Zipf 1.2)
      ~size_model:(Traffic.Flowgen.Fixed 64) ~n_flows:scr_flows ()
  in
  let flows = Traffic.Flowgen.flows gen in
  let replicas =
    Array.map
      (fun w ->
        let m = Nfs.Monitor.create (Worker.layout w) ~name:"nm" ~n_flows:scr_flows () in
        Nfs.Monitor.populate m flows;
        {
          Scaleout.Scr.sc_worker = w;
          sc_program = Nfs.Monitor.program m;
          sc_pool = Netcore.Packet.Pool.create (Worker.layout w) ~count:1024;
          sc_export = (fun i -> [ ("nm", Nfs.Migration.export_monitor m [ flows.(i) ]) ]);
          sc_apply =
            (fun r ->
              List.iter
                (fun (_, snap) -> ignore (Nfs.Migration.apply_monitor m snap : int))
                r.Scaleout.Update_log.u_payload);
          sc_counters = (fun () -> []);
          sc_flow_digest = (fun _ _ -> ());
        })
      (Platform.workers plat)
  in
  let pool = Netcore.Packet.Pool.create (Worker.layout (Worker.create ~id:99 ())) ~count:1024 in
  let items count =
    let src = Workload.of_flowgen gen ~pool ~count in
    List.init count (fun _ -> Option.get (src ()))
  in
  let words items =
    let before = Gc.minor_words () in
    let slots = Scaleout.Spray.assign Scaleout.Spray.Round_robin ~cores:scr_cores items in
    let (_ : Scaleout.Scr.result) =
      Scaleout.Scr.run ~digest:false ~engine:`Rtc ~replicas ~slots ~universe:scr_flows items
    in
    Gc.minor_words () -. before
  in
  ignore (words (items 500) : float);
  let measured = items packets in
  let empty = words [] in
  let full = words measured in
  (full -. empty) /. float_of_int packets

(* SCR rtc: 95.77 words per packet, most of them the interpreted Δ and
   fault barrier, the work item, the update record and the monitor's
   export frame and payload list. It read 101.95 while the classifier and
   each apply's [Cuckoo.find] boxed their int64 keys, and 205.64 while
   every delivery cloned its packet, every record was encoded to a fresh
   frame and decoded back, and the window scans built closures. *)
let scr_budget = 96.5

let test_scr_budget () =
  let w = scr_words_per_packet () in
  if w > scr_budget then
    Alcotest.failf "%.2f minor words per packet, budget %.1f" w scr_budget

let suite =
  [
    Alcotest.test_case "upf rtc words per packet, interpreted" `Quick
      (check_budget ~exec:rtc ~specialize:false ~budget:95.0 upf);
    Alcotest.test_case "upf rtc words per packet, specialized" `Quick
      (check_budget ~exec:rtc ~specialize:true ~budget:0.5 upf);
    Alcotest.test_case "amf rtc words per message, specialized" `Quick
      (check_budget ~exec:rtc ~specialize:true ~budget:28.0 amf);
    Alcotest.test_case "nat il16 words per packet, specialized" `Quick
      (check_budget ~exec:il16 ~specialize:true ~budget:0.3 nat);
    Alcotest.test_case "nat il16 distance 2 words per packet, specialized" `Quick
      (check_budget ~exec:il16_d2 ~specialize:true ~budget:0.3 nat);
    Alcotest.test_case "nat il16 words per packet with the pull, specialized" `Quick
      test_pull_budget;
    Alcotest.test_case "scr rtc words per packet" `Quick test_scr_budget;
  ]
