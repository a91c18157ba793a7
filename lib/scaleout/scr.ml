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

   Pending sets are a predicate, not a table. A core freshens a flow
   before it runs the flow and never receives its own broadcasts, so
   core d's pending record for flow f, when there is one, is always f's
   latest broadcast record: d has f pending exactly when that record is
   newer than d's resident sequence for f.

   Every per-flow table of a run is indexed by a dense slot, numbered in
   first-arrival order as the queues are built, so a run's tables are
   sized by the flows it touches, not by universe x cores. The resident
   sequences are one slot-major store: a broadcast's coalescing check
   over the peers, their freshens and the sender's advance read one host
   line.

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
   pending updates in ascending flow order, and per-replica
   whole-universe state digests must be pairwise equal — replica
   convergence, the model's invariant. *)

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
  sr_logs : Update_log.t array;  (* per-core emitted-record counts *)
  sr_replica_digests : string array;  (* post-barrier whole-universe digests *)
  sr_converged : bool;  (* all replica digests pairwise equal *)
  sr_state_digest : string;  (* per-flow state + summed counters, vs references *)
}

(* Simulated cost of applying one update record: a dozen-byte store into
   already-resident state plus the ring pop — pure compute, charged to the
   applying core's clock. *)
let apply_cycles = 8
let apply_instrs = 6

(* One core's queue, arrival order, as parallel arrays: each item's
   global index, per-flow sequence number and the dense per-run slot of
   its flow (-1 for a hintless item). Items [q_done, q_head) are in
   flight; [q_left] more may be delivered in the current window. *)
type queue = {
  q_g : int array;
  q_seq : int array;
  q_slot : int array;
  q_item : Workload.item array;
  mutable q_head : int;
  mutable q_done : int;
  mutable q_left : int;
}

let hintless = { Workload.packet = None; aux = 0; flow_hint = -1 }

(* The window scans, top-level so that no closure is built per window:
   how many of [q]'s items [j, i) belong to slot [k], and the end of the
   dependency-ready run of items from [i] on, stopping at [stop]. *)
let rec same_slot q k j i acc =
  if j = i then acc else same_slot q k (j + 1) i (acc + Bool.to_int (q.q_slot.(j) = k))

let rec ready_prefix q (latest : Update_log.record array) ~stop i =
  if i = stop then i
  else
    let k = q.q_slot.(i) in
    if k < 0 || q.q_seq.(i) = latest.(k).Update_log.u_seq + same_slot q k q.q_head i 0 + 1
    then ready_prefix q latest ~stop (i + 1)
    else i

let run ?arm ?on_complete ?(digest = true) ~engine
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
  (* Build the queues, numbering each flow's slot at its first arrival. *)
  let lengths = Array.make cores 0 in
  Array.iter
    (fun (s : Spray.slot) -> lengths.(s.Spray.s_core) <- lengths.(s.Spray.s_core) + 1)
    slots;
  let queues =
    Array.map
      (fun n ->
        {
          q_g = Array.make n 0;
          q_seq = Array.make n 0;
          q_slot = Array.make n 0;
          q_item = Array.make n hintless;
          q_head = 0;
          q_done = 0;
          q_left = 0;
        })
      lengths
  in
  let slot_of = Itbl.create 256 in
  List.iteri
    (fun g (item : Workload.item) ->
      let f = item.Workload.flow_hint in
      if f >= universe then
        invalid_arg (Printf.sprintf "Scr.run: flow %d outside [0, %d)" f universe);
      let k =
        if f < 0 then -1
        else
          match Itbl.find slot_of f with
          | k -> k
          | exception Not_found ->
              let k = Itbl.length slot_of in
              Itbl.add slot_of f k;
              k
      in
      let s = slots.(g) in
      let q = queues.(s.Spray.s_core) in
      let i = q.q_head in
      q.q_g.(i) <- g;
      q.q_seq.(i) <- s.Spray.s_seq;
      q.q_slot.(i) <- k;
      q.q_item.(i) <- item;
      q.q_head <- i + 1)
    items;
  Array.iter (fun q -> q.q_head <- 0) queues;
  let n_slots = Itbl.length slot_of in
  let flow_of = Array.make n_slots 0 in
  Itbl.iter (fun f k -> flow_of.(k) <- f) slot_of;
  let planes = Array.init cores (fun _ -> Fault.create ()) in
  let logs = Array.init cores (fun _ -> Update_log.create ()) in
  (* Each slot's latest broadcast record; [none] (sequence 0) until the
     first. Its sequence is also the flow's completed-packet count. *)
  let none =
    { Update_log.u_flow = -1; u_seq = 0; u_payload = []; u_consec = 0; u_poisoned = false }
  in
  let latest = Array.make n_slots none in
  let coalesced = ref 0 in
  let barrier_applied = ref 0 in
  let windows = ref 0 in
  let applier =
    Update_log.applier ~slots:n_slots ~cores ~apply:(fun c r ->
        replicas.(c).sc_apply r;
        Fault.restore_flow planes.(c) ~flow:r.Update_log.u_flow ~consec:r.Update_log.u_consec
          ~poisoned:r.Update_log.u_poisoned;
        Exec_ctx.compute
          (Worker.ctx replicas.(c).sc_worker)
          ~cycles:apply_cycles ~instrs:apply_instrs)
  in
  let records = ref 0 in
  let broadcast c k (r : Update_log.record) =
    (* Shipping encodes every record into the core's reused GUPD1 frame
       and checks that frame in place against the record, so a framing
       bug surfaces as Bad_update, not as silent divergence. *)
    Update_log.ship logs.(c) r;
    (* A peer still holding the flow's previous record (sequence
       u_seq - 1) pending has it superseded by this one. Counted here,
       not derived from the gap an apply bridges: derived from the
       applier's own arithmetic, Invariants.check_scr's conservation law
       misses some out-of-order schedules (a window's head run before
       its predecessor). *)
    for d = 0 to cores - 1 do
      if d <> c && Update_log.resident applier ~core:d k < r.Update_log.u_seq - 1 then
        incr coalesced
    done;
    latest.(k) <- r
  in
  (* Apply core [c]'s pending record for slot [k], if it has one. *)
  let freshen_slot c k =
    let r = latest.(k) in
    r.Update_log.u_seq > Update_log.resident applier ~core:c k
    && Update_log.offer applier ~core:c ~slot:k r
  in
  (* Completions arrive in pull order on both engines, so each core's
     in-flight items, walked from the oldest, map every completion back
     to its queue entry without relying on packet ids. *)
  let complete c (task : Nftask.t) =
    let q = queues.(c) in
    let i = q.q_done in
    if i >= q.q_head then invalid_arg "Scr.run: completion without a delivered item";
    q.q_done <- i + 1;
    let seq = q.q_seq.(i) in
    (match on_complete with Some f -> f ~core:c ~g:q.q_g.(i) ~seq task | None -> ());
    let f = task.Nftask.flow_hint in
    if f >= 0 then begin
      let k = q.q_slot.(i) in
      Update_log.advance applier ~core:c ~slot:k ~seq;
      incr records;
      broadcast c k
        {
          Update_log.u_flow = f;
          u_seq = seq;
          u_payload = replicas.(c).sc_export f;
          u_consec = Fault.consecutive_faults planes.(c) f;
          u_poisoned = Fault.poisoned planes.(c) f;
        }
    end
  in
  (* One engine session per replica for the whole sweep: its measurement
     bracket opens here and spans every window, the applies charged
     between windows included. *)
  let sessions =
    Array.init cores (fun c ->
        Exec.session ~fault:planes.(c) ~on_complete:(complete c) engine
          replicas.(c).sc_worker replicas.(c).sc_program)
  in
  (* The length of the longest dependency-ready prefix of core [c]'s
     queue, at most [cap] items: an item is ready when its sequence
     follows its flow's completions plus the earlier same-flow items of
     the window. *)
  let window_length c =
    let q = queues.(c) in
    let stop = min (Array.length q.q_g) (q.q_head + cap) in
    ready_prefix q latest ~stop q.q_head - q.q_head
  in
  (* Deliver the next [q_left] items of core [c]'s queue, each packet
     copied into the next record of the replica's ring, arming the fault
     plan at each item's GLOBAL index so the injection schedule is
     spray-independent. A window is at most [cap] items and completes
     inside its feed, so a ring of [cap] records never overwrites a
     packet still in flight. *)
  let rings = Array.init cores (fun _ -> Netcore.Packet.Arena.create ~size:cap ()) in
  let sources =
    Array.init cores (fun c () ->
        let q = queues.(c) in
        if q.q_left = 0 then None
        else begin
          let i = q.q_head in
          let item = q.q_item.(i) in
          q.q_head <- i + 1;
          q.q_left <- q.q_left - 1;
          let pkt =
            match item.Workload.packet with
            | Some p -> Netcore.Packet.Arena.copy rings.(c) p
            | None -> None
          in
          (match pkt with
          | Some p -> (
              Netcore.Packet.Pool.assign replicas.(c).sc_pool p;
              match arm with Some f -> f ~plane:planes.(c) ~g:q.q_g.(i) p | None -> ())
          | None -> ());
          Some
            {
              Workload.packet = pkt;
              aux = item.Workload.aux;
              flow_hint = item.Workload.flow_hint;
            }
        end)
  in
  let run_window c n =
    incr windows;
    (* Lazy coalesced application: freshen exactly the flows this window
       touches, from the latest pending record each. *)
    let q = queues.(c) in
    for i = q.q_head to q.q_head + n - 1 do
      let k = q.q_slot.(i) in
      if k >= 0 then ignore (freshen_slot c k : bool)
    done;
    q.q_left <- n;
    Exec.feed sessions.(c) sources.(c)
  in
  (* Sweep the cores until every queue drains. Prefix windows guarantee
     progress: the globally oldest unprocessed item is at its core's head
     with all predecessors complete. *)
  let remaining () = Array.exists (fun q -> q.q_head < Array.length q.q_g) queues in
  while remaining () do
    let progressed = ref false in
    for c = 0 to cores - 1 do
      match window_length c with
      | 0 -> ()
      | n ->
          progressed := true;
          run_window c n
    done;
    if not !progressed then
      invalid_arg "Scr.run: no core can make progress (broken spray sequence)"
  done;
  (* Close the measurement bracket before the barrier: the barrier is the
     convergence PROOF, not data-path work — a steady-state deployment
     never quiesces, it keeps coalescing pending updates. Its applies
     still mutate state and count in [stats] (and in the applying core's
     clock, past the bracket). Latency stays unsummarized, as it always
     was here: callers pool per-packet samples through [on_complete]. *)
  let runs =
    Array.mapi
      (fun c s ->
        { (Exec.close s) with Metrics.label = Printf.sprintf "scr-core%d" c; latency = None })
      sessions
  in
  (* Quiescent barrier: drain every replica's pending records in
     ascending flow order, then prove convergence. *)
  let order = Array.init n_slots Fun.id in
  Array.sort (fun a b -> Int.compare flow_of.(a) flow_of.(b)) order;
  for c = 0 to cores - 1 do
    Array.iter (fun k -> if freshen_slot c k then incr barrier_applied) order
  done;
  let feed_flow fp c i =
    replicas.(c).sc_flow_digest fp i;
    Fingerprint.feed_int fp (Fault.consecutive_faults planes.(c) i);
    Fingerprint.feed_bool fp (Fault.poisoned planes.(c) i)
  in
  let replica_digest c =
    Fingerprint.of_fn (fun fp ->
        for i = 0 to universe - 1 do
          feed_flow fp c i
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
          feed_flow fp 0 i
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
  {
    sr_runs = runs;
    sr_merged = Metrics.merge_parallel (Array.to_list runs);
    sr_stats =
      {
        st_records = !records;
        st_applied = Update_log.applied applier;
        st_coalesced = !coalesced;
        st_stale = Update_log.stale applier;
        st_max_lag = Update_log.max_lag applier;
        st_barrier_applied = !barrier_applied;
        st_windows = !windows;
      };
    sr_planes = planes;
    sr_logs = logs;
    sr_replica_digests = replica_digests;
    sr_converged = converged;
    sr_state_digest = state_digest;
  }
