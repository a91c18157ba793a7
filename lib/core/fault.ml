(* Fault-injection plane and containment policy.

   Real stateful dataplanes must degrade, not crash: a malformed packet, a
   state-table overflow or a buggy NFAction may cost one packet (or, after
   repeated offences, one flow) but never the core. This module provides

   - the containment vocabulary: {!reason}, the {!Fault} exception NF code
     raises to signal a *contained* per-task fault, and the per-NF
     per-reason taxonomy counted into {!Metrics.run};
   - the plane itself ({!t}): a per-run table of injected faults (keyed by
     packet id, armed by the generator in lib/check/faultgen before the
     executor pulls the packet) plus the per-flow poisoning state;
   - the three executor hooks: {!on_load} (quarantine decisions and
     load-time injections), {!guard} (exception barrier around
     [Action.execute]) and {!complete} (poisoning bookkeeping and the final
     disposition of a finishing task).

   Determinism across executors is the design constraint throughout: an
   injected fault must produce the *same* per-packet outcome under rtc,
   batched rtc and every interleaved configuration, because the
   differential oracle diffs them. Hence
   - injections are keyed by packet id and armed at source-pull time (pull
     order is identical across executors);
   - action faults fire on a per-packet action countdown (the per-packet
     action sequence is executor-independent) and fire *before* the action
     body runs, so no partial state mutation can diverge;
   - poisoning is evaluated at task completion, never at load: per-flow
     completion order is executor-independent (it is one of the oracle's
     invariants), while load order relative to same-flow completions is
     not (a batch loads a whole batch before processing any of it). *)

type reason =
  | Parse_error  (* truncated / corrupted packet *)
  | Table_overflow  (* state-structure insert rejected under Shed_flow *)
  | Action_raise  (* NFAction body raised (injected or organic) *)
  | Mshr_stall  (* injected MSHR starvation (timing-only, no quarantine) *)
  | Poisoned  (* flow quarantined after repeated consecutive faults *)

let reason_to_key = function
  | Parse_error -> "parse"
  | Table_overflow -> "overflow"
  | Action_raise -> "action"
  | Mshr_stall -> "mshr"
  | Poisoned -> "poisoned"

let reason_of_key = function
  | "parse" -> Some Parse_error
  | "overflow" -> Some Table_overflow
  | "action" -> Some Action_raise
  | "mshr" -> Some Mshr_stall
  | "poisoned" -> Some Poisoned
  | _ -> None

(* Raised by NF code / state structures to signal a contained fault; the
   string attributes it to an NF instance for the taxonomy. Executors never
   let it (or any other exception from an action body) escape: {!guard}
   converts it to [Event.Faulted]. *)
exception Fault of reason * string

type injection =
  | Corrupt_packet  (* packet bytes were mangled at source: quarantine at load *)
  | Raise_at of { countdown : int; reason : reason }
      (* the [countdown]-th guarded action of this packet faults before
         executing (0 = the first action) *)
  | Stall_mshrs of int  (* occupy all free MSHRs for N cycles at load *)
  | Kill_core  (* the worker pulling this packet dies after processing it;
                  interpreted by the platform recovery engine — executors
                  (and {!on_load}) treat it as a no-op so a kill schedule
                  leaking into a single-core run is inert *)

type t = {
  injections : injection Itbl.t;  (* packet id -> injection *)
  armed : int ref Itbl.t;  (* packet id -> remaining countdown *)
  consec : int Itbl.t;  (* flow -> consecutive faulted completions *)
  poisoned : unit Itbl.t;  (* flow -> () *)
  counts : (string * reason, int) Hashtbl.t;  (* (nf, reason) -> occurrences *)
  mutable faulted : int;  (* completions quarantined by the plane *)
  mutable degraded : bool;  (* at least one flow is poisoned *)
}

(* Consecutive faulted completions that poison a flow. *)
let poison_threshold = 3

let create () =
  {
    injections = Itbl.create 64;
    armed = Itbl.create 16;
    consec = Itbl.create 64;
    poisoned = Itbl.create 16;
    counts = Hashtbl.create 16;
    faulted = 0;
    degraded = false;
  }

let inject t ~packet_id inj = Itbl.replace t.injections packet_id inj
let faulted t = t.faulted
let degraded t = t.degraded
let poisoned_flows t = Itbl.length t.poisoned

let count t ~nf reason =
  let k = (nf, reason) in
  Hashtbl.replace t.counts k (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts k))

(* Taxonomy as a sorted list so it is order-deterministic (hash-table
   iteration order is not). *)
let counts t =
  Hashtbl.fold (fun (nf, r) n acc -> (nf, r, n) :: acc) t.counts []
  |> List.sort (fun (a, ra, _) (b, rb, _) ->
         match String.compare a b with
         | 0 -> String.compare (reason_to_key ra) (reason_to_key rb)
         | c -> c)

(* --- executor hooks ------------------------------------------------- *)

(* Load-time hook, called once per task right after [Nftask.load] (and its
   rx/tx charge). Applies load-time injections; [Some reason] means the
   task must be quarantined without executing anything. The probe is
   skipped while no injection is registered. *)
let on_load t ~(mem : Memsim.Hierarchy.t) ~now (task : Nftask.t) =
  match task.Nftask.packet with
  | None -> None
  | Some _ when Itbl.length t.injections = 0 -> None
  | Some p -> (
      match Itbl.find_opt t.injections p.Netcore.Packet.id with
      | None -> None
      | Some Corrupt_packet ->
          count t ~nf:"netcore" Parse_error;
          Some Parse_error
      | Some (Raise_at { countdown; _ }) ->
          Itbl.replace t.armed p.Netcore.Packet.id (ref (countdown + 1));
          None
      | Some (Stall_mshrs cycles) ->
          ignore (Memsim.Hierarchy.stall_mshrs mem ~now ~cycles);
          count t ~nf:"memsim" Mshr_stall;
          None
      | Some Kill_core -> None)

(* Exception barrier around one action execution. [nf] attributes the fault
   (the control state's instance name). Armed countdowns fire *before* the
   body runs — no charge, no state mutation — so the outcome cannot depend
   on the executor. An organic exception escapes the body only after its
   base cost was charged; the partial work stays, exactly as on real
   hardware, and the task is quarantined. *)
let guard t ~nf (action : Action.t) (ctx : Exec_ctx.t) (task : Nftask.t) =
  let fire reason detail =
    count t ~nf:detail reason;
    Event.Faulted (reason_to_key reason)
  in
  let armed_fire =
    match task.Nftask.packet with
    | None -> false
    | Some p -> (
        match Itbl.find_opt t.armed p.Netcore.Packet.id with
        | None -> false
        | Some remaining ->
            decr remaining;
            if !remaining = 0 then begin
              Itbl.remove t.armed p.Netcore.Packet.id;
              true
            end
            else false)
  in
  if armed_fire then fire Action_raise nf
  else
    try Action.execute action ctx task with
    | Fault (reason, detail) -> fire reason detail
    | (Stack_overflow | Out_of_memory) as e -> raise e
    | _ -> fire Action_raise nf

(* Whether any injection machinery could influence a guarded action. Armed
   countdowns exist only for injected packet ids and injections are never
   removed, so a plane with an empty injection table is inert: {!guard} on
   it behaves exactly like the bare exception barrier. The specialized
   executors re-check per action (injections arm at source-pull time, so a
   plane can go live mid-run) and skip the per-action hashtable probe while
   the plane is inert. *)
let live t = Itbl.length t.injections > 0 || Itbl.length t.armed > 0

(* The conversion {!guard} applies to a caught fault, exposed so the
   specializer's fused runners can inline the barrier: count under [nf] and
   quarantine with the reason's wire key. *)
let convert t ~nf reason =
  count t ~nf reason;
  Event.Faulted (reason_to_key reason)

(* Completion hook: every finishing task passes through here exactly once.
   [faulted] is the reason the task already faulted with (from its
   [Event.Faulted] event or a load-time quarantine), [None] for a normal
   completion. Returns the final disposition after poisoning: a normal
   completion of a poisoned flow is converted to [Poisoned]. Also maintains
   the per-flow consecutive-fault counters and the degraded flag. *)
let complete t ~flow ~faulted:fr =
  let disposition =
    match fr with
    | Some _ -> fr
    | None ->
        if flow >= 0 && Itbl.length t.poisoned > 0 && Itbl.mem t.poisoned flow then begin
          count t ~nf:"flow" Poisoned;
          Some Poisoned
        end
        else None
  in
  (match disposition with
  | Some _ ->
      t.faulted <- t.faulted + 1;
      if flow >= 0 then begin
        let c = 1 + Option.value ~default:0 (Itbl.find_opt t.consec flow) in
        Itbl.replace t.consec flow c;
        if c >= poison_threshold && not (Itbl.mem t.poisoned flow) then begin
          Itbl.replace t.poisoned flow ();
          t.degraded <- true
        end
      end
  | None -> if flow >= 0 && Itbl.length t.consec > 0 then Itbl.remove t.consec flow);
  disposition

(* --- containment checkpointing --------------------------------------- *)

(* Per-flow containment state (consecutive-fault counter and poisoned
   membership) for a set of flows, exported at checkpoint time. A core that
   adopts the flows restores this before replaying, so poisoning evolves
   from the same point it had reached on the dead core — otherwise a flow
   two faults deep would need three more (not one) to poison after
   adoption, and the recovered run would diverge from the failure-free
   reference. *)
let consecutive_faults t flow =
  if Itbl.length t.consec = 0 then 0
  else match Itbl.find t.consec flow with c -> c | exception Not_found -> 0

let poisoned t flow = Itbl.length t.poisoned > 0 && Itbl.mem t.poisoned flow

let export_containment t flows =
  List.map (fun flow -> (flow, consecutive_faults t flow, poisoned t flow)) flows

let restore_flow t ~flow ~consec ~poisoned =
  if consec > 0 then Itbl.replace t.consec flow consec
  else if Itbl.length t.consec > 0 then Itbl.remove t.consec flow;
  if poisoned then begin
    if not (Itbl.mem t.poisoned flow) then
      Itbl.replace t.poisoned flow ();
    t.degraded <- true
  end

let restore_containment t entries =
  List.iter
    (fun (flow, consec, poisoned) -> restore_flow t ~flow ~consec ~poisoned)
    entries

(* Reason a task's current event encodes, if it is a containment marker. *)
let reason_of_event = function
  | Event.Faulted key -> (
      match reason_of_key key with
      | Some r -> Some r
      | None -> Some Action_raise (* unknown fault key: still contained *))
  | _ -> None
