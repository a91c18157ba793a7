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
   the location-independent state digest; {!Oracle.check_invariants}
   runs on every core's observation and {!Invariants.check_scr} on the
   update stream. Fault plans arm at each item's GLOBAL stream index
   ({!Faultgen.arm}), so the injection schedule is identical no matter
   how packets are sprayed. *)

open Gunfu

(* One SCR platform pass over a recovery case: full-universe replicas on
   every core, the traced stream sprayed and executed, observations
   collected per core (completion order) and merged in global-arrival
   order for the per-flow streams. *)
let scr_pass ?plan ?(spray = Scaleout.Spray.Round_robin)
    ?(engine = `Rtc) ?items ~cores (rc : Recovery.rcase) :
    Recovery.pass * Scaleout.Scr.result =
  let universe = rc.Recovery.r_universe in
  let full = Array.init universe Fun.id in
  let cis = Recovery.instances rc ~cores ~owned:(fun _ -> full) in
  let ctx c = Worker.ctx cis.(c).Recovery.ci_worker in
  let items = match items with Some l -> l | None -> rc.Recovery.r_trace () in
  let slots = Scaleout.Spray.assign spray ~cores items in
  (* (global index, emit), newest-first per core. *)
  let emits = Array.make cores [] in
  let on_complete ~core ~g ~seq:_ task =
    emits.(core) <-
      (g, Oracle.emit_of_task ~clock:(ctx core).Exec_ctx.clock task) :: emits.(core)
  in
  let arm =
    Option.map
      (fun p ~plane ~g pkt ->
        ignore (Faultgen.arm p ~plane ~index:g pkt : Fault.injection option))
      plan
  in
  let res =
    Scaleout.Scr.run ?arm ~on_complete ~engine ~replicas:(Array.map Recovery.replica cis)
      ~slots ~universe items
  in
  let obs =
    List.init cores (fun c ->
        (* Completions arrive in pull order, which per core IS delivery
           order — so the emit stream doubles as the input record. *)
        let es = List.rev_map snd emits.(c) in
        let label = Printf.sprintf "scr-core%d" c in
        ( label,
          Oracle.observation ~label
            ~inputs:
              (List.map (fun (e : Oracle.emit) -> (e.Oracle.e_pktid, e.Oracle.e_flow)) es)
            (ctx c) res.Scaleout.Scr.sr_runs.(c) es ))
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

type extra = {
  cores : int;
  engine : string;
  stats : Scaleout.Scr.stats;
  converged : bool;
}

let check_rcase ?plan ?(spray = Scaleout.Spray.Round_robin) ?(engine = `Rtc) ~cores
    (rc : Recovery.rcase) : extra Recovery.outcome =
  (* Trace ONCE and share: a case's generator may be stateful (the UPF
     composition's mobile gateway), so a second [r_trace] would draw a
     different stream. *)
  let items = rc.Recovery.r_trace () in
  let reference = Recovery.observe_platform ?plan ~items ~cores:1 rc in
  let scr, res = scr_pass ?plan ~spray ~engine ~items ~cores rc in
  let completions =
    List.fold_left
      (fun a (_, (o : Oracle.observation)) ->
        a
        + List.length
            (List.filter (fun (e : Oracle.emit) -> e.Oracle.e_flow >= 0) o.Oracle.o_emits))
      0 scr.Recovery.p_obs
  in
  let stream =
    List.map (fun viol -> ("scr", viol)) (Invariants.check_scr ~completions ~cores res)
  in
  let st = res.Scaleout.Scr.sr_stats in
  {
    Recovery.oc_case = rc.Recovery.r_name;
    oc_packets = rc.Recovery.r_packets;
    oc_summary =
      Printf.sprintf
        "cores=%d packets=%d engine=%s records=%d applied=%d coalesced=%d stale=%d lag=%d"
        cores rc.Recovery.r_packets (Exec.label engine) st.Scaleout.Scr.st_records
        st.Scaleout.Scr.st_applied st.Scaleout.Scr.st_coalesced st.Scaleout.Scr.st_stale
        st.Scaleout.Scr.st_max_lag;
    oc_verdict = "converged, reference equality";
    oc_reference = reference;
    oc_variant = scr;
    oc_violations = Recovery.pass_violations scr @ stream;
    oc_divergence = Recovery.diff_passes ~totals:true ~variant:"scr" ~reference scr;
    oc_repro =
      Recovery.repro rc ~command:"scr"
        ((Printf.sprintf "--cores %d" cores :: Oracle.plan_flags plan)
        @ (match spray with
          | Scaleout.Spray.Round_robin -> []
          | Scaleout.Spray.Seeded s -> [ Printf.sprintf "--spray-seed %d" s ])
        @ match engine with `Rtc -> [] | `Batch b -> [ Printf.sprintf "--batch %d" b ]);
    oc_extra =
      {
        cores;
        engine = Exec.label engine;
        stats = st;
        converged = res.Scaleout.Scr.sr_converged;
      };
  }
