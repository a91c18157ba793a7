(* State-Compute Replication (Xu et al., arXiv 2309.14647): the second
   scale-out execution model, living beside RSS sharding.

   Every core holds a FULL replica of the per-flow state, so packets are
   sprayed across cores with no flow affinity — the property that makes
   throughput immune to flow-size skew (an elephant flow's packets spread
   over all cores instead of pinning one). What restores correctness is
   the update stream: each completion of packet (f, n) exports flow f's
   observable state as a compact absolute update record at sequence n
   ({!Update_log}), broadcast to every peer; a replica may process packet
   (f, n) only after it holds flow f's state at sequence n-1, whether from
   a local completion or an applied update.

   The driver below walks the global arrival stream and runs each core's
   sprayed slice in dependency-ready prefix windows:

   - an item (f, n) is ready when n - 1 completions of f have happened
     (counting earlier same-flow items inside the same window — both
     executors complete tasks in pull order);
   - a core's window is the longest ready prefix of its queue, capped at
     the engine's batch size (1 under RTC);
   - pending updates for the window's flows are applied — lazily and
     coalesced: records are absolute, so only the latest pending record
     per flow matters ({!Update_log.applier}) — before the window runs,
     which under run-to-completion is a quiescent point.

   Prefix windows make the schedule deadlock-free: the globally oldest
   unprocessed item is always at its core's queue head with every
   predecessor completed, so each sweep over the cores processes at least
   one item. (Whole-batch atomic readiness, or executors that hold
   in-flight flows across pulls like the rr/rf schedulers, would deadlock
   on cross-core chains — which is why [run] takes an {!Exec.flow_free}
   engine: rtc or batch-N, by type.)

   Fault containment replicates like NF state: each record carries the
   flow's (consecutive-faults, poisoned) containment pair, restored into
   the processing core's fault plane on apply, so poisoning decisions
   follow per-flow completion order no matter where packets land.

   A quiescent barrier ends the run: every replica applies its remaining
   pending updates, and per-replica whole-universe state digests must be
   pairwise equal — replica convergence, the model's invariant. *)

open Gunfu

(* One core's full replica: the program built on that core's layout with
   the WHOLE universe populated, plus the closures the engine needs —
   single-flow state export (the update payload), update application
   (upsert through the Migration layer's apply surface), commutative
   counters (each replica counts only its own completions; totals are
   summed at digest time), and a location-independent per-flow digest. *)
type replica = {
  sc_worker : Worker.t;
  sc_program : Program.t;
  sc_pool : Netcore.Packet.Pool.pool;
  sc_export : int -> (string * string) list;
  sc_apply : Update_log.record -> unit;
  sc_counters : unit -> (string * int) list;
  sc_flow_digest : Fingerprint.t -> int -> unit;
}

type stats = {
  st_records : int;  (* update records emitted (completions with a flow) *)
  st_applied : int;  (* records applied on peers, barrier included *)
  st_coalesced : int;  (* superseded in a peer's pending set before applying *)
  st_stale : int;  (* offered but already superseded by local state *)
  st_max_lag : int;  (* largest sequence gap bridged by one apply *)
  st_barrier_applied : int;  (* applies performed by the final barrier *)
  st_windows : int;  (* execution windows across all cores *)
}

type result = {
  sr_runs : Metrics.run array;  (* per core *)
  sr_merged : Metrics.run;  (* merge_parallel of the above *)
  sr_stats : stats;
  sr_planes : Fault.t array;
  sr_logs : Update_log.t array;  (* per-core emitted update streams *)
  sr_replica_digests : string array;  (* post-barrier whole-universe digests *)
  sr_converged : bool;  (* all replica digests pairwise equal *)
  sr_state_digest : string;  (* per-flow state + summed counters, vs references *)
}

(* Default simulated cost of applying one update record: a dozen-byte
   store into already-resident state plus the ring pop — pure compute,
   charged to the applying core's clock. *)
let default_apply_cycles = 8
let default_apply_instrs = 6

let run ?arm ?(apply_cycles = default_apply_cycles)
    ?(apply_instrs = default_apply_instrs) ?on_complete ?(digest = true) ~engine
    ~(replicas : replica array) ~(slots : Spray.slot array) ~universe items :
    result =
  let cores = Array.length replicas in
  if cores <= 0 then invalid_arg "Scr.run: no replicas";
  let n_items = List.length items in
  if Array.length slots <> n_items then
    invalid_arg "Scr.run: slots/items length mismatch";
  let cap =
    match (engine : Exec.flow_free) with
    | `Rtc -> 1
    | `Batch b ->
        if b <= 0 then invalid_arg "Scr.run: batch must be positive";
        b
  in
  let planes = Array.init cores (fun _ -> Fault.create ()) in
  let logs = Array.init cores (fun _ -> Update_log.create ()) in
  (* Per-core queues of (g, seq, item), arrival order. *)
  let queues = Array.make cores [] in
  List.iteri
    (fun g item ->
      let s = slots.(g) in
      queues.(s.Spray.s_core) <- (g, s.Spray.s_seq, item) :: queues.(s.Spray.s_core))
    items;
  Array.iteri (fun c q -> queues.(c) <- List.rev q) queues;
  (* Completed packets per flow (= the flow's authoritative sequence). *)
  let done_ = Array.make (max universe 1) 0 in
  (* Per-core pending updates, coalesced: flow -> latest unapplied record. *)
  let pending = Array.init cores (fun _ -> Hashtbl.create 64) in
  let coalesced = ref 0 in
  let barrier_applied = ref 0 in
  let windows = ref 0 in
  let appliers =
    Array.init cores (fun c ->
        Update_log.applier ~apply:(fun r ->
            replicas.(c).sc_apply r;
            Fault.restore_containment planes.(c)
              [ (r.Update_log.u_flow, r.Update_log.u_consec, r.Update_log.u_poisoned) ];
            Exec_ctx.compute
              (Worker.ctx replicas.(c).sc_worker)
              ~cycles:apply_cycles ~instrs:apply_instrs))
  in
  (* Per-core accumulators for the outer measurement bracket. *)
  let snaps = Array.map (fun r -> Worker.snapshot r.sc_worker) replicas in
  let packets = Array.make cores 0 in
  let drops = Array.make cores 0 in
  let wire_bytes = Array.make cores 0 in
  let faulted = Array.make cores 0 in
  let switches = Array.make cores 0 in
  (* Completions arrive in pull order on both engines, so a per-core FIFO
     of (g, seq) delivered to the in-flight window maps each completion
     back to its global index without relying on packet ids. *)
  let inflight = Array.make cores [] in
  let records = ref 0 in
  let broadcast c (r : Update_log.record) =
    (* Encode-then-decode exercises the wire format on every record the
       engine ships; a framing bug surfaces as Bad_update, not as silent
       divergence. *)
    let frame = Update_log.encode r in
    let r = Update_log.decode frame in
    Update_log.append logs.(c) r;
    for d = 0 to cores - 1 do
      if d <> c then begin
        if Hashtbl.mem pending.(d) r.Update_log.u_flow then incr coalesced;
        Hashtbl.replace pending.(d) r.Update_log.u_flow r
      end
    done
  in
  let complete c (task : Nftask.t) =
    match inflight.(c) with
    | [] -> invalid_arg "Scr.run: completion without a delivered item"
    | (g, seq) :: rest ->
        inflight.(c) <- rest;
        (match on_complete with Some f -> f ~core:c ~g ~seq task | None -> ());
        let f = task.Nftask.flow_hint in
        if f >= 0 then begin
          done_.(f) <- seq;
          Update_log.advance appliers.(c) ~flow:f ~seq;
          let consec, poisoned =
            match Fault.export_containment planes.(c) [ f ] with
            | [ (_, consec, poisoned) ] -> (consec, poisoned)
            | _ -> (0, false)
          in
          incr records;
          broadcast c
            {
              Update_log.u_flow = f;
              u_seq = seq;
              u_payload = replicas.(c).sc_export f;
              u_consec = consec;
              u_poisoned = poisoned;
            }
        end
  in
  (* The longest dependency-ready prefix of core [c]'s queue, at most
     [cap] items. *)
  let form_window c =
    let in_window : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let rec take acc n = function
      | [] -> (List.rev acc, [])
      | ((_, seq, item) as x) :: rest ->
          let f = (item : Workload.item).Workload.flow_hint in
          let ahead = if f < 0 then 0 else Option.value ~default:0 (Hashtbl.find_opt in_window f) in
          let ready = f < 0 || seq = done_.(f) + ahead + 1 in
          if n >= cap || not ready then (List.rev acc, x :: rest)
          else begin
            if f >= 0 then Hashtbl.replace in_window f (ahead + 1);
            take (x :: acc) (n + 1) rest
          end
    in
    let window, rest = take [] 0 queues.(c) in
    queues.(c) <- rest;
    window
  in
  let run_window c window =
    incr windows;
    (* Lazy coalesced application: freshen exactly the flows this window
       touches, from the latest pending record each. *)
    List.iter
      (fun (_, _, item) ->
        let f = (item : Workload.item).Workload.flow_hint in
        if f >= 0 then
          match Hashtbl.find_opt pending.(c) f with
          | Some r ->
              Hashtbl.remove pending.(c) f;
              ignore (Update_log.offer appliers.(c) r : bool)
          | None -> ())
      window;
    (* Deliver clones, arming the fault plan at each item's GLOBAL index so
       the injection schedule is spray-independent. *)
    let ops = ref window in
    let source () =
      match !ops with
      | [] -> None
      | (g, seq, item) :: rest ->
          ops := rest;
          let pkt = Option.map Netcore.Packet.clone item.Workload.packet in
          Option.iter (Netcore.Packet.Pool.assign replicas.(c).sc_pool) pkt;
          (match (arm, pkt) with
          | Some f, Some p -> f ~plane:planes.(c) ~g p
          | _ -> ());
          inflight.(c) <- inflight.(c) @ [ (g, seq) ];
          Some
            {
              Workload.packet = pkt;
              aux = item.Workload.aux;
              flow_hint = item.Workload.flow_hint;
            }
    in
    let r =
      Exec.run ~fault:planes.(c) ~on_complete:(complete c) engine replicas.(c).sc_worker
        replicas.(c).sc_program source
    in
    packets.(c) <- packets.(c) + r.Metrics.packets;
    drops.(c) <- drops.(c) + r.Metrics.drops;
    wire_bytes.(c) <- wire_bytes.(c) + r.Metrics.wire_bytes;
    faulted.(c) <- faulted.(c) + r.Metrics.faulted;
    switches.(c) <- switches.(c) + r.Metrics.switches
  in
  (* Sweep the cores until every queue drains. Prefix windows guarantee
     progress: the globally oldest unprocessed item is at its core's head
     with all predecessors complete. *)
  let remaining () = Array.exists (fun q -> q <> []) queues in
  while remaining () do
    let progressed = ref false in
    for c = 0 to cores - 1 do
      match form_window c with
      | [] -> ()
      | window ->
          progressed := true;
          run_window c window
    done;
    if not !progressed then
      invalid_arg "Scr.run: no core can make progress (broken spray sequence)"
  done;
  (* Close the measurement bracket before the barrier: the barrier is the
     convergence PROOF, not data-path work — a steady-state deployment
     never quiesces, it keeps coalescing pending updates. Its applies
     still mutate state and count in [stats] (and in the applying core's
     clock, past the bracket). *)
  let runs =
    Array.init cores (fun c ->
        Worker.finish ~faulted:faulted.(c)
          ~faults:(Fault.counts planes.(c))
          ~degraded:(Fault.degraded planes.(c))
          replicas.(c).sc_worker snaps.(c)
          ~label:(Printf.sprintf "scr-core%d" c)
          ~packets:packets.(c) ~drops:drops.(c) ~wire_bytes:wire_bytes.(c)
          ~switches:switches.(c))
  in
  (* Quiescent barrier: drain every replica's pending set, then prove
     convergence. *)
  Array.iteri
    (fun c tbl ->
      let rs = Hashtbl.fold (fun _ r acc -> r :: acc) tbl [] in
      Hashtbl.reset tbl;
      List.iter
        (fun r ->
          if Update_log.offer appliers.(c) r then incr barrier_applied)
        (List.sort (fun a b -> compare a.Update_log.u_flow b.Update_log.u_flow) rs))
    pending;
  let replica_digest c =
    Fingerprint.of_fn (fun fp ->
        for i = 0 to universe - 1 do
          replicas.(c).sc_flow_digest fp i;
          match Fault.export_containment planes.(c) [ i ] with
          | [ (_, consec, poisoned) ] ->
              Fingerprint.feed_int fp consec;
              Fingerprint.feed_bool fp poisoned
          | _ -> ()
        done)
  in
  (* [digest = false] skips the whole-universe digests — a bench over a
     million-flow universe measures dispatch, not the O(universe x cores)
     convergence proof; correctness gates keep it on. *)
  let replica_digests =
    if digest then Array.init cores replica_digest else [||]
  in
  let converged =
    digest
    && Array.for_all (fun d -> String.equal d replica_digests.(0)) replica_digests
  in
  (* Global digest comparable with an RSS/rtc reference: per-flow state
     from replica 0 (any replica — they converged), commutative counters
     summed over the replicas. *)
  let state_digest =
    if not digest then ""
    else
      Fingerprint.of_fn (fun fp ->
        for i = 0 to universe - 1 do
          replicas.(0).sc_flow_digest fp i;
          match Fault.export_containment planes.(0) [ i ] with
          | [ (_, consec, poisoned) ] ->
              Fingerprint.feed_int fp consec;
              Fingerprint.feed_bool fp poisoned
          | _ -> ()
        done;
        let totals : (string, int) Hashtbl.t = Hashtbl.create 8 in
        Array.iter
          (fun rep ->
            List.iter
              (fun (name, v) ->
                Hashtbl.replace totals name
                  (v + Option.value ~default:0 (Hashtbl.find_opt totals name)))
              (rep.sc_counters ()))
          replicas;
        Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals []
        |> List.sort compare
        |> List.iter (fun (name, v) ->
               Fingerprint.feed_string fp name;
               Fingerprint.feed_int fp v))
  in
  let applied = Array.fold_left (fun a ap -> a + Update_log.applied ap) 0 appliers in
  let stale = Array.fold_left (fun a ap -> a + Update_log.stale ap) 0 appliers in
  let max_lag = Array.fold_left (fun a ap -> max a (Update_log.max_lag ap)) 0 appliers in
  {
    sr_runs = runs;
    sr_merged = Metrics.merge_parallel (Array.to_list runs);
    sr_stats =
      {
        st_records = !records;
        st_applied = applied;
        st_coalesced = !coalesced;
        st_stale = stale;
        st_max_lag = max_lag;
        st_barrier_applied = !barrier_applied;
        st_windows = !windows;
      };
    sr_planes = planes;
    sr_logs = logs;
    sr_replica_digests = replica_digests;
    sr_converged = converged;
    sr_state_digest = state_digest;
  }
