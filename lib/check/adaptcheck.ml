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

(* The adaptive pass: one single-core instance with the full universe,
   driven by the closed loop over the traced stream. *)
let adaptive_pass ?plan ?scr ?params ?(epoch = 256) ~initial ~items
    (rc : Recovery.rcase) : Recovery.pass * Adaptive.Driver.outcome =
  let universe = rc.Recovery.r_universe in
  let full = Array.init universe Fun.id in
  let ci = (Recovery.instances rc ~cores:1 ~owned:(fun _ -> full)).(0) in
  let worker = ci.Recovery.ci_worker in
  let plane = Fault.create () in
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
              let cis = Recovery.instances rc ~cores ~owned:(fun _ -> full) in
              let snap = ci.Recovery.ci_export (Array.to_list full) in
              Array.iter
                (fun (rci : Recovery.core_instance) -> rci.Recovery.ci_apply snap)
                cis;
              scr_cis := cis;
              baselines :=
                Array.map
                  (fun (rci : Recovery.core_instance) -> rci.Recovery.ci_counters ())
                  cis;
              Array.map Recovery.replica cis);
          ss_collect =
            (fun _ ->
              let cis = !scr_cis in
              (* Post-barrier, all replicas are convergent: replica 0's
                 export is the truth; upsert it into the plant. *)
              ci.Recovery.ci_apply (cis.(0).Recovery.ci_export (Array.to_list full));
              Array.to_list cis
              |> List.mapi (fun c (rci : Recovery.core_instance) ->
                     let base = !baselines.(c) in
                     List.map
                       (fun (name, v) ->
                         (name, v - Option.value ~default:0 (List.assoc_opt name base)))
                       (rci.Recovery.ci_counters ()))
              |> Recovery.sum_counters
              |> List.filter (fun (_, v) -> v <> 0)
              |> ci.Recovery.ci_restore);
        })
      scr
  in
  let policy = Adaptive.Policy.create ?params ?scr ~initial () in
  let driven = ref None in
  let obs =
    Oracle.record ~label:"adaptive" (Worker.ctx worker)
      (Recovery.deliver ?plan ~plane ~pool:ci.Recovery.ci_pool items)
      (fun ~on_complete source ->
        let oc =
          Adaptive.Driver.run ~epoch ~on_complete ~policy
            {
              Adaptive.Driver.pl_worker = worker;
              pl_program = ci.Recovery.ci_program;
              pl_source = source;
              pl_plane = plane;
              pl_scr = surface;
            }
        in
        driven := Some oc;
        oc.Adaptive.Driver.o_run)
  in
  ( {
      Recovery.p_obs = [ ("adaptive", obs) ];
      p_streams = Oracle.per_flow_streams obs.Oracle.o_emits;
      p_digest =
        Recovery.state_digest ~universe ~owner_of:(fun _ -> 0) ~live:(fun _ -> true)
          [| ci |] [| plane |];
    },
    Option.get !driven )

type extra = {
  epoch : int;
  moves : int;
  final : Adaptive.Config.t;
  decisions : Adaptive.Driver.decision list;
  run : Metrics.run;
}

let check_rcase ?plan ?scr ?params ?(epoch = 256)
    ?(initial = Adaptive.Config.default) (rc : Recovery.rcase) : extra Recovery.outcome =
  (match (plan, scr) with
  | Some _, Some _ ->
      invalid_arg "Adaptcheck.check_rcase: fault plans and SCR hand-off cannot be combined"
  | _ -> ());
  (* Trace ONCE and share: a case's generator may be stateful, so a
     second [r_trace] would draw a different stream. *)
  let items = rc.Recovery.r_trace () in
  let reference = Recovery.observe_platform ?plan ~items ~cores:1 rc in
  let adaptive, oc = adaptive_pass ?plan ?scr ?params ~epoch ~initial ~items rc in
  (* With an SCR leg, completions carry replica-pool packet ids, so the
     per-observation input/emit id matching does not apply; equality is
     then carried by the streams + totals + digest comparison. *)
  let per_obs = if scr = None then Recovery.pass_violations adaptive else [] in
  let driver_viol =
    List.map (fun viol -> ("driver", viol)) (Invariants.check_adaptive oc)
  in
  let module D = Adaptive.Driver in
  {
    Recovery.oc_case = rc.Recovery.r_name;
    oc_packets = rc.Recovery.r_packets;
    oc_summary =
      Printf.sprintf "packets=%d epoch=%d windows=%d moves=%d final=%s"
        rc.Recovery.r_packets epoch (List.length oc.D.o_decisions) oc.D.o_moves
        (Adaptive.Config.label oc.D.o_final);
    oc_verdict = "reference equality";
    oc_reference = reference;
    oc_variant = adaptive;
    oc_violations = per_obs @ driver_viol;
    oc_divergence =
      Recovery.diff_passes ~totals:true ~variant:"adaptive" ~reference adaptive;
    oc_repro =
      Recovery.repro rc ~command:"adapt"
        ((Printf.sprintf "--epoch %d" epoch :: Oracle.plan_flags plan)
        @ (match scr with Some c -> [ Printf.sprintf "--scr %d" c ] | None -> [])
        @
        if initial = Adaptive.Config.default then []
        else [ "--initial " ^ Adaptive.Config.label initial ]);
    oc_extra =
      {
        epoch;
        moves = oc.D.o_moves;
        final = oc.D.o_final;
        decisions = oc.D.o_decisions;
        run = oc.D.o_run;
      };
  }
