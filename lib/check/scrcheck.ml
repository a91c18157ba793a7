(* The State-Compute Replication oracle axis: drive the same recovery
   cases ({!Recovery.rcase} — generated programs and on-disk spec
   compositions) through the SCR executor family and require behavioural
   equality with a single-core run-to-completion reference.

   Replica construction reuses the recovery engine's per-core instance
   builders with [owned] = the FULL universe — that is exactly the SCR
   state model: every core starts with a complete replica, and the
   update stream keeps them convergent as sprayed packets mutate state
   on arbitrary cores.

   The reference is {!Recovery.observe_platform} at one core, which
   degenerates to plain RTC over the global stream (and, with one core,
   SCR itself emits updates to nobody — so the comparison isolates the
   spray + update-stream machinery, not a different executor). Equality
   is judged on per-flow emit-content streams (SCR emits merged in
   global-arrival order), completion/drop/fault/wire-byte totals and
   the location-independent state digest; {!Invariants.check} runs on
   every core's observation and {!Invariants.check_scr} on the update
   stream. Fault plans arm at each item's GLOBAL stream index
   ({!Faultgen.decide}), so the injection schedule is identical no
   matter how packets are sprayed. *)

open Gunfu

(* Same injection semantics as the recovery engine's plan arming, shaped
   for {!Scaleout.Scr.run}'s [arm] hook: roll the plan at the item's
   global index, mangle the clone's bytes for corruptions, register the
   injection with the processing core's fault plane. *)
let arm_plan plan ~plane ~g pkt =
  match Faultgen.decide plan g with
  | Some inj ->
      (match inj with
      | Fault.Corrupt_packet -> Faultgen.corrupt plan ~index:g pkt
      | Fault.Raise_at _ | Fault.Stall_mshrs _ | Fault.Kill_core -> ());
      Fault.inject plane ~packet_id:pkt.Netcore.Packet.id inj
  | None -> ()

(* One SCR platform pass over a recovery case: full-universe replicas on
   every core, the traced stream sprayed and executed, observations
   collected per core (completion order) and merged in global-arrival
   order for the per-flow streams. *)
let scr_pass ?plan ?(spray = Scaleout.Spray.Round_robin)
    ?(engine = `Rtc) ?items ~cores (rc : Recovery.rcase) :
    Recovery.pass * Scaleout.Scr.result =
  let plat = Platform.create ~cfg:rc.Recovery.r_cfg ~cores () in
  let universe = rc.Recovery.r_universe in
  let full = Array.init universe Fun.id in
  let cis =
    Array.init cores (fun c -> rc.Recovery.r_build (Platform.worker plat c) ~owned:full)
  in
  let replicas =
    Array.map
      (fun (ci : Recovery.core_instance) ->
        {
          Scaleout.Scr.sc_worker = ci.Recovery.ci_worker;
          sc_program = ci.Recovery.ci_program;
          sc_pool = ci.Recovery.ci_pool;
          sc_export = (fun i -> ci.Recovery.ci_export [ i ]);
          sc_apply = (fun r -> ci.Recovery.ci_apply r.Scaleout.Update_log.u_payload);
          sc_counters = ci.Recovery.ci_counters;
          sc_flow_digest = ci.Recovery.ci_flow_digest;
        })
      cis
  in
  let items = match items with Some l -> l | None -> rc.Recovery.r_trace () in
  let slots = Scaleout.Spray.assign spray ~cores items in
  (* (global index, emit), newest-first per core. *)
  let emits = Array.make cores [] in
  let on_complete ~core ~g ~seq:_ (task : Nftask.t) =
    let ctx = Worker.ctx cis.(core).Recovery.ci_worker in
    let dropped =
      Event.equal task.Nftask.event Event.Drop_packet
      || Event.equal task.Nftask.event Event.Match_fail
    in
    let e_pkt, e_pktid, e_wire =
      match task.Nftask.packet with
      | Some p ->
          (Oracle.packet_fingerprint p, p.Netcore.Packet.id, p.Netcore.Packet.wire_len)
      | None -> ("", -1, 0)
    in
    emits.(core) <-
      ( g,
        {
          Oracle.e_flow = task.Nftask.flow_hint;
          e_aux = task.Nftask.aux;
          e_event = Event.to_key task.Nftask.event;
          e_dropped = dropped;
          e_wire;
          e_pkt;
          e_pktid;
          e_clock = ctx.Exec_ctx.clock;
        } )
      :: emits.(core)
  in
  let arm = Option.map (fun p ~plane ~g pkt -> arm_plan p ~plane ~g pkt) plan in
  let res =
    Scaleout.Scr.run ?arm ~on_complete ~engine ~replicas ~slots ~universe items
  in
  let obs =
    List.init cores (fun c ->
        (* Completions arrive in pull order, which per core IS delivery
           order — so the emit stream doubles as the input record. *)
        let es = List.rev_map snd emits.(c) in
        let ctx = Worker.ctx cis.(c).Recovery.ci_worker in
        let label = Printf.sprintf "scr-core%d" c in
        ( label,
          {
            Oracle.o_label = label;
            o_run = res.Scaleout.Scr.sr_runs.(c);
            o_emits = es;
            o_inputs =
              List.map (fun (e : Oracle.emit) -> (e.Oracle.e_pktid, e.Oracle.e_flow)) es;
            o_state = "";
            o_mshr_pending =
              Memsim.Hierarchy.mshr_pending_count ctx.Exec_ctx.mem
                ~now:ctx.Exec_ctx.clock;
            o_mshr_limit =
              (Memsim.Hierarchy.config ctx.Exec_ctx.mem).Memsim.Hierarchy.mshr_count;
          } ))
  in
  let merged =
    Array.to_list emits |> List.concat
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> List.map snd
  in
  ( {
      Recovery.p_obs = obs;
      p_streams = Oracle.per_flow_streams merged;
      p_digest = res.Scaleout.Scr.sr_state_digest;
    },
    res )

(* Totals across a pass's live cores, from the runs themselves. *)
let totals (p : Recovery.pass) =
  List.fold_left
    (fun (pk, dr, fl, wb) (_, (o : Oracle.observation)) ->
      let r = o.Oracle.o_run in
      ( pk + r.Metrics.packets,
        dr + r.Metrics.drops,
        fl + r.Metrics.faulted,
        wb + r.Metrics.wire_bytes ))
    (0, 0, 0, 0) p.Recovery.p_obs

(* First count difference between reference and SCR totals, or [None] —
   the stream/digest comparison is {!Recovery.diff_passes}'. *)
let diff_totals ~(reference : Recovery.pass) (scr : Recovery.pass) =
  let rp, rd, rf, rw = totals reference in
  let sp, sd, sf, sw = totals scr in
  if rp <> sp then
    Some (Printf.sprintf "completion counts differ: %d (reference) vs %d (scr)" rp sp)
  else if rd <> sd then
    Some (Printf.sprintf "drop counts differ: %d (reference) vs %d (scr)" rd sd)
  else if rf <> sf then
    Some (Printf.sprintf "faulted counts differ: %d (reference) vs %d (scr)" rf sf)
  else if rw <> sw then
    Some (Printf.sprintf "wire bytes differ: %d (reference) vs %d (scr)" rw sw)
  else None

type outcome = {
  so_case : string;
  so_cores : int;
  so_packets : int;
  so_engine : string;
  so_stats : Scaleout.Scr.stats;
  so_reference : Recovery.pass;
  so_scr : Recovery.pass;
  so_converged : bool;
  so_violations : (string * Invariants.violation) list;
  so_divergence : string option;
  so_repro : string;
}

let check_rcase ?plan ?spray ?engine ~cores (rc : Recovery.rcase) : outcome =
  let engine = Option.value ~default:`Rtc engine in
  (* Trace ONCE and share: a case's generator may be stateful (the UPF
     composition's mobile gateway), so a second [r_trace] would draw a
     different stream. *)
  let items = rc.Recovery.r_trace () in
  let reference = Recovery.observe_platform ?plan ~items ~cores:1 rc in
  let scr, res = scr_pass ?plan ?spray ~engine ~items ~cores rc in
  let completions =
    List.fold_left
      (fun a (_, (o : Oracle.observation)) ->
        a
        + List.length
            (List.filter (fun (e : Oracle.emit) -> e.Oracle.e_flow >= 0) o.Oracle.o_emits))
      0 scr.Recovery.p_obs
  in
  let per_core =
    List.concat_map
      (fun (label, o) -> List.map (fun viol -> (label, viol)) (Invariants.check o))
      scr.Recovery.p_obs
  in
  let stream =
    List.map (fun viol -> ("scr", viol)) (Invariants.check_scr ~completions ~cores res)
  in
  let divergence =
    match diff_totals ~reference scr with
    | Some d -> Some d
    | None -> Recovery.diff_passes ~reference scr
  in
  {
    so_case = rc.Recovery.r_name;
    so_cores = cores;
    so_packets = rc.Recovery.r_packets;
    so_engine = Exec.label engine;
    so_stats = res.Scaleout.Scr.sr_stats;
    so_reference = reference;
    so_scr = scr;
    so_converged = res.Scaleout.Scr.sr_converged;
    so_violations = per_core @ stream;
    so_divergence = divergence;
    so_repro =
      Printf.sprintf "gunfu_cli scr --cores %d --seed %d --packets %d" cores
        rc.Recovery.r_seed rc.Recovery.r_packets;
  }

let passed (oc : outcome) = oc.so_violations = [] && oc.so_divergence = None

let pp_outcome ppf (oc : outcome) =
  Fmt.pf ppf
    "%s cores=%d packets=%d engine=%s records=%d applied=%d coalesced=%d \
     stale=%d lag=%d: %s"
    oc.so_case oc.so_cores oc.so_packets oc.so_engine
    oc.so_stats.Scaleout.Scr.st_records oc.so_stats.Scaleout.Scr.st_applied
    oc.so_stats.Scaleout.Scr.st_coalesced oc.so_stats.Scaleout.Scr.st_stale
    oc.so_stats.Scaleout.Scr.st_max_lag
    (if passed oc then "converged, reference equality"
     else
       match oc.so_divergence with
       | Some d -> "DIVERGED: " ^ d
       | None -> "INVARIANT VIOLATIONS")
