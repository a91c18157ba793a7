(* The adaptive oracle axis: drive a recovery case through the closed
   loop ({!Adaptive.Driver}) and require behavioural equality with the
   single-core run-to-completion reference ({!Recovery.observe_platform}
   at one core). Whatever the controller does — resize the interleave,
   raise the prefetch distance, switch engines, even hand the stream off
   to a replicated SCR platform and take it back — per-flow emit-content
   streams, completion/drop/fault/wire-byte totals and the final state
   digest must be exactly what the uncontrolled reference produces.

   The plant mirrors the recovery engine's delivery semantics: items are
   traced once and shared, each pull clones the pristine packet into the
   single-core instance's pool, and fault plans arm at the item's GLOBAL
   stream index — so the injection schedule is identical however the
   controller reshapes execution. The SCR hand-off surface reuses the
   case's own per-core instance builder with [owned] = the full universe
   (the PR 9 state model), seeds fresh replicas from a quiescent export
   of the single-core state, and folds the converged replica state plus
   the commutative counter deltas back on return. Fault plans and the
   SCR surface are never combined: re-cloning inside the sprayed
   platform would detach armed injections from their packets. *)

open Gunfu

(* Recovery-style plan arming: roll at the global index, mangle the
   clone's bytes for corruptions, register with the plant's plane. *)
let arm_plan ?plan ~plane ~g pkt =
  match (plan, pkt) with
  | Some fg, Some p -> (
      match Faultgen.decide fg g with
      | Some inj ->
          (match inj with
          | Fault.Corrupt_packet -> Faultgen.corrupt fg ~index:g p
          | Fault.Raise_at _ | Fault.Stall_mshrs _ | Fault.Kill_core -> ());
          Fault.inject plane ~packet_id:p.Netcore.Packet.id inj
      | None -> ())
  | _ -> ()

(* Byte-identical to the recovery engine's state digest at one core:
   every universe flow's NF state, its containment state, then the
   commutative counters summed and sorted. *)
let single_digest ~universe (ci : Recovery.core_instance) plane =
  Fingerprint.of_fn (fun fp ->
      for i = 0 to universe - 1 do
        ci.Recovery.ci_flow_digest fp i;
        match Fault.export_containment plane [ i ] with
        | [ (_, consec, poisoned) ] ->
            Fingerprint.feed_int fp consec;
            Fingerprint.feed_bool fp poisoned
        | _ -> ()
      done;
      let totals : (string, int) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (name, v) ->
          Hashtbl.replace totals name
            (v + Option.value ~default:0 (Hashtbl.find_opt totals name)))
        (ci.Recovery.ci_counters ());
      Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals []
      |> List.sort compare
      |> List.iter (fun (name, v) ->
             Fingerprint.feed_string fp name;
             Fingerprint.feed_int fp v))

(* The adaptive pass: one single-core instance with the full universe,
   driven by the closed loop over the traced stream. *)
let adaptive_pass ?plan ?scr ?params ?(epoch = 256) ~initial ~items
    (rc : Recovery.rcase) : Recovery.pass * Adaptive.Driver.outcome =
  let plat = Platform.create ~cfg:rc.Recovery.r_cfg ~cores:1 () in
  let worker = Platform.worker plat 0 in
  let universe = rc.Recovery.r_universe in
  let full = Array.init universe Fun.id in
  let ci = rc.Recovery.r_build worker ~owned:full in
  let plane = Fault.create () in
  let ctx = Worker.ctx worker in
  let emits = ref [] in
  let inputs = ref [] in
  let remaining = ref (List.mapi (fun g item -> (g, item)) items) in
  let source () =
    match !remaining with
    | [] -> None
    | (g, item) :: rest ->
        remaining := rest;
        let pkt = Option.map Netcore.Packet.clone item.Workload.packet in
        Option.iter (Netcore.Packet.Pool.assign ci.Recovery.ci_pool) pkt;
        arm_plan ?plan ~plane ~g pkt;
        let pid = match pkt with Some p -> p.Netcore.Packet.id | None -> -1 in
        inputs := (pid, item.Workload.flow_hint) :: !inputs;
        Some
          {
            Workload.packet = pkt;
            aux = item.Workload.aux;
            flow_hint = item.Workload.flow_hint;
          }
  in
  let on_complete (task : Nftask.t) =
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
    emits :=
      {
        Oracle.e_flow = task.Nftask.flow_hint;
        e_aux = task.Nftask.aux;
        e_event = Event.to_key task.Nftask.event;
        e_dropped = dropped;
        e_wire;
        e_pkt;
        e_pktid;
        e_clock = ctx.Exec_ctx.clock;
      }
      :: !emits
  in
  (* SCR hand-off surface: spawn seeds fresh full replicas from a
     quiescent export of the single-core state; collect folds replica 0's
     converged state back and restores the summed counter deltas. *)
  let scr_cis : Recovery.core_instance array ref = ref [||] in
  let baselines : (string * int) list array ref = ref [||] in
  let surface =
    Option.map
      (fun cores ->
        {
          Adaptive.Driver.ss_cores = cores;
          ss_universe = universe;
          ss_engine = `Rtc;
          ss_spray = Scaleout.Spray.Round_robin;
          ss_spawn =
            (fun () ->
              let plat = Platform.create ~cfg:rc.Recovery.r_cfg ~cores () in
              let cis =
                Array.init cores (fun c ->
                    rc.Recovery.r_build (Platform.worker plat c) ~owned:full)
              in
              let snap = ci.Recovery.ci_export (Array.to_list full) in
              Array.iter
                (fun (rci : Recovery.core_instance) -> rci.Recovery.ci_apply snap)
                cis;
              scr_cis := cis;
              baselines :=
                Array.map
                  (fun (rci : Recovery.core_instance) -> rci.Recovery.ci_counters ())
                  cis;
              Array.map
                (fun (rci : Recovery.core_instance) ->
                  {
                    Scaleout.Scr.sc_worker = rci.Recovery.ci_worker;
                    sc_program = rci.Recovery.ci_program;
                    sc_pool = rci.Recovery.ci_pool;
                    sc_export = (fun i -> rci.Recovery.ci_export [ i ]);
                    sc_apply =
                      (fun r -> rci.Recovery.ci_apply r.Scaleout.Update_log.u_payload);
                    sc_counters = rci.Recovery.ci_counters;
                    sc_flow_digest = rci.Recovery.ci_flow_digest;
                  })
                cis);
          ss_collect =
            (fun _ ->
              let cis = !scr_cis in
              (* Post-barrier, all replicas are convergent: replica 0's
                 export is the truth; upsert it into the plant. *)
              ci.Recovery.ci_apply (cis.(0).Recovery.ci_export (Array.to_list full));
              let totals : (string, int) Hashtbl.t = Hashtbl.create 8 in
              Array.iteri
                (fun c (rci : Recovery.core_instance) ->
                  let base = !baselines.(c) in
                  List.iter
                    (fun (name, v) ->
                      let b = Option.value ~default:0 (List.assoc_opt name base) in
                      Hashtbl.replace totals name
                        (v - b
                        + Option.value ~default:0 (Hashtbl.find_opt totals name)))
                    (rci.Recovery.ci_counters ()))
                cis;
              Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals []
              |> List.sort compare
              |> List.filter (fun (_, v) -> v <> 0)
              |> ci.Recovery.ci_restore);
        })
      scr
  in
  let policy = Adaptive.Policy.create ?params ?scr ~initial () in
  let plant =
    {
      Adaptive.Driver.pl_worker = worker;
      pl_program = ci.Recovery.ci_program;
      pl_source = source;
      pl_plane = plane;
      pl_scr = surface;
    }
  in
  let oc = Adaptive.Driver.run ~epoch ~on_complete ~policy plant in
  let obs =
    {
      Oracle.o_label = "adaptive";
      o_run = oc.Adaptive.Driver.o_run;
      o_emits = List.rev !emits;
      o_inputs = List.rev !inputs;
      o_state = "";
      o_mshr_pending =
        Memsim.Hierarchy.mshr_pending_count ctx.Exec_ctx.mem ~now:ctx.Exec_ctx.clock;
      o_mshr_limit =
        (Memsim.Hierarchy.config ctx.Exec_ctx.mem).Memsim.Hierarchy.mshr_count;
    }
  in
  ( {
      Recovery.p_obs = [ ("adaptive", obs) ];
      p_streams = Oracle.per_flow_streams obs.Oracle.o_emits;
      p_digest = single_digest ~universe ci plane;
    },
    oc )

let totals (p : Recovery.pass) =
  List.fold_left
    (fun (pk, dr, fl, wb) (_, (o : Oracle.observation)) ->
      let r = o.Oracle.o_run in
      ( pk + r.Metrics.packets,
        dr + r.Metrics.drops,
        fl + r.Metrics.faulted,
        wb + r.Metrics.wire_bytes ))
    (0, 0, 0, 0) p.Recovery.p_obs

let diff_totals ~(reference : Recovery.pass) (adaptive : Recovery.pass) =
  let rp, rd, rf, rw = totals reference in
  let ap, ad, af, aw = totals adaptive in
  if rp <> ap then
    Some (Printf.sprintf "completion counts differ: %d (reference) vs %d (adaptive)" rp ap)
  else if rd <> ad then
    Some (Printf.sprintf "drop counts differ: %d (reference) vs %d (adaptive)" rd ad)
  else if rf <> af then
    Some (Printf.sprintf "faulted counts differ: %d (reference) vs %d (adaptive)" rf af)
  else if rw <> aw then
    Some (Printf.sprintf "wire bytes differ: %d (reference) vs %d (adaptive)" rw aw)
  else None

type outcome = {
  ao_case : string;
  ao_packets : int;
  ao_epoch : int;
  ao_moves : int;
  ao_final : Adaptive.Config.t;
  ao_decisions : Adaptive.Driver.decision list;
  ao_run : Metrics.run;
  ao_reference : Recovery.pass;
  ao_adaptive : Recovery.pass;
  ao_violations : (string * Invariants.violation) list;
  ao_divergence : string option;
  ao_repro : string;
}

let check_rcase ?plan ?scr ?params ?(epoch = 256)
    ?(initial = Adaptive.Config.default) (rc : Recovery.rcase) : outcome =
  (match (plan, scr) with
  | Some _, Some _ ->
      invalid_arg "Adaptcheck.check_rcase: fault plans and SCR hand-off cannot be combined"
  | _ -> ());
  (* Trace ONCE and share: a case's generator may be stateful, so a
     second [r_trace] would draw a different stream. *)
  let items = rc.Recovery.r_trace () in
  let reference = Recovery.observe_platform ?plan ~items ~cores:1 rc in
  let adaptive, oc = adaptive_pass ?plan ?scr ?params ~epoch ~initial ~items rc in
  let per_obs =
    (* With an SCR leg, completions carry replica-pool packet ids, so the
       per-observation input/emit id matching does not apply; equality is
       then carried by the streams + totals + digest comparison. *)
    if scr = None then
      List.concat_map
        (fun (label, o) -> List.map (fun viol -> (label, viol)) (Invariants.check o))
        adaptive.Recovery.p_obs
    else []
  in
  let driver_viol =
    List.map (fun viol -> ("driver", viol)) (Invariants.check_adaptive oc)
  in
  let divergence =
    match diff_totals ~reference adaptive with
    | Some d -> Some d
    | None -> Recovery.diff_passes ~reference adaptive
  in
  {
    ao_case = rc.Recovery.r_name;
    ao_packets = rc.Recovery.r_packets;
    ao_epoch = epoch;
    ao_moves = oc.Adaptive.Driver.o_moves;
    ao_final = oc.Adaptive.Driver.o_final;
    ao_decisions = oc.Adaptive.Driver.o_decisions;
    ao_run = oc.Adaptive.Driver.o_run;
    ao_reference = reference;
    ao_adaptive = adaptive;
    ao_violations = per_obs @ driver_viol;
    ao_divergence = divergence;
    ao_repro =
      Printf.sprintf "gunfu_cli adapt --seed %d --packets %d --epoch %d"
        rc.Recovery.r_seed rc.Recovery.r_packets epoch;
  }

let passed (oc : outcome) = oc.ao_violations = [] && oc.ao_divergence = None

let pp_outcome ppf (oc : outcome) =
  Fmt.pf ppf "%s packets=%d epoch=%d windows=%d moves=%d final=%s: %s" oc.ao_case
    oc.ao_packets oc.ao_epoch
    (List.length oc.ao_decisions)
    oc.ao_moves
    (Adaptive.Config.label oc.ao_final)
    (if passed oc then "reference equality"
     else
       match oc.ao_divergence with
       | Some d -> "DIVERGED: " ^ d
       | None -> "INVARIANT VIOLATIONS")
