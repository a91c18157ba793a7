(* Plane invariants: the rules that judge a whole run of a platform axis
   rather than one executor's observation — replay-aware conservation
   across a core failure, the telemetry span tree, SCR's update stream and
   the adaptive controller's decision log. The per-observation rules
   (conservation, flow order, clock, memsim accounting) run inside the
   oracle scan, {!Oracle.check_invariants}. *)

open Gunfu

let v rule fmt = Printf.ksprintf (fun s -> { Oracle.v_rule = rule; v_detail = s }) fmt

(* ----- recovery-plane rules ----- *)

(* Replay-aware conservation across a platform run with a core failure.
   The adopter re-processes the victim's logged suffix, so live cores
   collectively complete [offered + replayed] packets; after suppressing
   the replayed duplicates exactly [offered] completions remain, the
   emit/drop/fault split is preserved, and every suppressed duplicate is
   content-identical to the original the dead core already emitted — the
   exactly-once emit policy. [suppressed] pairs each suppressed duplicate
   with the victim's original ([None] when no original exists, itself a
   violation). *)
let check_recovery ~offered ~(live : (string * Oracle.observation) list)
    ~(deduped : Oracle.emit list)
    ~(suppressed : (Oracle.emit * Oracle.emit option) list) : Oracle.violation list =
  let replayed = List.length suppressed in
  let total =
    List.fold_left (fun acc (_, o) -> acc + o.Oracle.o_run.Metrics.packets) 0 live
  in
  let all_emits = List.concat_map (fun (_, o) -> o.Oracle.o_emits) live in
  let dups = List.map fst suppressed in
  let drops l = List.length (List.filter (fun (e : Oracle.emit) -> e.Oracle.e_dropped) l) in
  let faults l = List.length (List.filter Oracle.emit_faulted l) in
  List.concat
    [
      (if total <> offered + replayed then
         [
           v "recovery-conservation"
             "live cores completed %d packets but offered=%d + replayed=%d" total
             offered replayed;
         ]
       else []);
      (if List.length deduped <> offered then
         [
           v "recovery-conservation" "%d deduplicated completions but %d offered"
             (List.length deduped) offered;
         ]
       else []);
      (if drops all_emits <> drops deduped + drops dups then
         [
           v "recovery-conservation"
             "drop split broken: live cores dropped %d but deduped=%d + suppressed=%d"
             (drops all_emits) (drops deduped) (drops dups);
         ]
       else []);
      (if faults all_emits <> faults deduped + faults dups then
         [
           v "recovery-conservation"
             "fault split broken: live cores faulted %d but deduped=%d + suppressed=%d"
             (faults all_emits) (faults deduped) (faults dups);
         ]
       else []);
      List.filter_map
        (fun ((dup : Oracle.emit), orig) ->
          match orig with
          | None ->
              Some
                (v "exactly-once"
                   "replayed completion (pkt %d, flow %d) has no original on the dead core"
                   dup.Oracle.e_pktid dup.Oracle.e_flow)
          | Some (orig : Oracle.emit) ->
              if Oracle.emit_content dup <> Oracle.emit_content orig then
                Some
                  (v "exactly-once"
                     "replayed completion (pkt %d, flow %d) diverged from the dead core's original"
                     dup.Oracle.e_pktid dup.Oracle.e_flow)
              else None)
        suppressed;
    ]

(* ----- telemetry-plane rules ----- *)

(* span-nesting: per packet (sp_unit), the span tree is well-nested —
   action spans of one unit never overlap each other, and every memory
   span attributed to a unit lies inside one of that unit's action spans
   (memory traffic outside an action is attributed to unit -1 by
   construction). Only checkable when the ring kept every span. *)
let check_span_nesting ~(spans : Trace.span array) ~dropped : Oracle.violation list =
  if dropped > 0 then []
  else begin
    let by_unit : (int, Trace.span list ref) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun (sp : Trace.span) ->
        if sp.Trace.sp_unit >= 0 then
          match Hashtbl.find_opt by_unit sp.Trace.sp_unit with
          | Some l -> l := sp :: !l
          | None -> Hashtbl.add by_unit sp.Trace.sp_unit (ref [ sp ]))
      spans;
    Hashtbl.fold
      (fun unit l acc ->
        let sps = List.rev !l in
        let actions =
          List.filter (fun sp -> sp.Trace.sp_phase = Trace.Action_body) sps
          |> List.sort (fun a b -> compare a.Trace.sp_ts b.Trace.sp_ts)
        in
        let overlap =
          let rec go = function
            | a :: (b :: _ as rest) ->
                if a.Trace.sp_ts + a.Trace.sp_dur > b.Trace.sp_ts then
                  [
                    v "span-nesting"
                      "unit %d: action spans overlap (%s [%d,%d) vs %s [%d,%d))" unit
                      a.Trace.sp_cs a.Trace.sp_ts
                      (a.Trace.sp_ts + a.Trace.sp_dur)
                      b.Trace.sp_cs b.Trace.sp_ts
                      (b.Trace.sp_ts + b.Trace.sp_dur);
                  ]
                else go rest
            | _ -> []
          in
          go actions
        in
        let contained =
          List.filter_map
            (fun (sp : Trace.span) ->
              match sp.Trace.sp_phase with
              | Trace.State_access | Trace.Mshr_wait ->
                  let inside (a : Trace.span) =
                    a.Trace.sp_ts <= sp.Trace.sp_ts
                    && sp.Trace.sp_ts + sp.Trace.sp_dur <= a.Trace.sp_ts + a.Trace.sp_dur
                  in
                  if List.exists inside actions then None
                  else
                    Some
                      (v "span-nesting"
                         "unit %d: memory span at [%d,%d) lies outside every action span"
                         unit sp.Trace.sp_ts
                         (sp.Trace.sp_ts + sp.Trace.sp_dur))
              | _ -> None)
            sps
        in
        overlap @ contained @ acc)
      by_unit []
  end

(* span-budget: the cycles the trace attributes (pull + action + prefetch
   + switch + out-of-action memory traffic; no double counting) can never
   exceed the cycles the run measured. *)
let check_span_budget (tr : Trace.t) (run : Metrics.run) : Oracle.violation list =
  let attributed = Trace.attributed_cycles tr in
  if attributed > run.Metrics.cycles then
    [
      v "span-budget" "trace attributes %d cycles but the run measured only %d"
        attributed run.Metrics.cycles;
    ]
  else []

(* span-memstats: the tap fires exactly once per demand line access, so
   per-level serve counts must equal the run's Memstats delta. *)
let check_span_memstats (tr : Trace.t) (run : Metrics.run) : Oracle.violation list =
  let m = run.Metrics.mem in
  let expected =
    [
      (Trace.L1, m.Memsim.Memstats.l1_hits);
      (Trace.L2, m.Memsim.Memstats.l2_hits);
      (Trace.Llc, m.Memsim.Memstats.llc_hits);
      (Trace.Dram, m.Memsim.Memstats.dram_fills);
      (Trace.Inflight, m.Memsim.Memstats.mshr_waits);
    ]
  in
  List.filter_map
    (fun (level, want) ->
      let got = Trace.level_count tr level in
      if got <> want then
        Some
          (v "span-memstats" "%s serves: trace counted %d but memstats says %d"
             (Trace.level_name level) got want)
      else None)
    expected

(* All telemetry rules for a traced run. [?spans] overrides the span set
   (the tamper tests inject doctored copies; the books are unaffected). *)
let check_telemetry ?spans (tr : Trace.t) (run : Metrics.run) : Oracle.violation list =
  let spans = match spans with Some s -> s | None -> Trace.spans tr in
  check_span_nesting ~spans ~dropped:(Trace.dropped tr)
  @ check_span_budget tr run @ check_span_memstats tr run

(* ----- SCR-plane rules ----- *)

(* Update-stream conservation for a State-Compute Replication run. Every
   flow-bearing completion must have emitted exactly one update record;
   each record is broadcast to [cores - 1] peers and every broadcast copy
   must end up exactly one of applied, coalesced (superseded while
   pending) or stale (superseded by the peer's own local state) — the
   barrier drains all pending sets, so nothing may remain in flight. And
   the model's defining invariant: after the quiescent barrier all
   replica digests are pairwise equal. *)
let check_scr ~completions ~cores (res : Scaleout.Scr.result) : Oracle.violation list =
  let st = res.Scaleout.Scr.sr_stats in
  let logged =
    Array.fold_left
      (fun a l -> a + Scaleout.Update_log.length l)
      0 res.Scaleout.Scr.sr_logs
  in
  List.concat
    [
      (if not res.Scaleout.Scr.sr_converged then
         [
           v "scr-convergence"
             "replica digests differ after the quiescent barrier: %s"
             (String.concat " " (Array.to_list res.Scaleout.Scr.sr_replica_digests));
         ]
       else []);
      (if st.Scaleout.Scr.st_records <> completions then
         [
           v "scr-emission"
             "%d flow-bearing completions but %d update records emitted"
             completions st.Scaleout.Scr.st_records;
         ]
       else []);
      (if logged <> st.Scaleout.Scr.st_records then
         [
           v "scr-emission" "per-core logs hold %d records but %d were emitted"
             logged st.Scaleout.Scr.st_records;
         ]
       else []);
      (if
         st.Scaleout.Scr.st_records * (cores - 1)
         <> st.Scaleout.Scr.st_applied + st.Scaleout.Scr.st_coalesced
            + st.Scaleout.Scr.st_stale
       then
         [
           v "scr-conservation"
             "%d records x %d peers = %d broadcast copies, but applied=%d + \
              coalesced=%d + stale=%d = %d"
             st.Scaleout.Scr.st_records (cores - 1)
             (st.Scaleout.Scr.st_records * (cores - 1))
             st.Scaleout.Scr.st_applied st.Scaleout.Scr.st_coalesced
             st.Scaleout.Scr.st_stale
             (st.Scaleout.Scr.st_applied + st.Scaleout.Scr.st_coalesced
            + st.Scaleout.Scr.st_stale);
         ]
       else []);
      (if st.Scaleout.Scr.st_barrier_applied > st.Scaleout.Scr.st_applied then
         [
           v "scr-conservation" "barrier applied %d records but only %d total applies"
             st.Scaleout.Scr.st_barrier_applied st.Scaleout.Scr.st_applied;
         ]
       else []);
    ]

(* The adaptive-runtime rules: every applied move landed at a quiescent
   boundary, the decision log's cumulative cycle stamps never regress,
   consecutive decisions chain configurations without gaps, and the
   bookkeeping (move count, decision spans) matches the log. *)
let check_adaptive (oc : Adaptive.Driver.outcome) : Oracle.violation list =
  let module D = Adaptive.Driver in
  let ds = oc.D.o_decisions in
  let move_name d =
    match d.D.d_move with
    | Some m -> Adaptive.Policy.move_label m
    | None -> "hold"
  in
  let quiescence =
    List.filter_map
      (fun (d : D.decision) ->
        if d.D.d_move <> None && not (d.D.d_quiescent && d.D.d_pulled = d.D.d_completed)
        then
          Some
            (v "adaptive-quiescence"
               "window %d: %s applied at a non-quiescent boundary (pulled=%d \
                completed=%d)"
               d.D.d_index (move_name d) d.D.d_pulled d.D.d_completed)
        else None)
      ds
  in
  let holds =
    List.filter_map
      (fun (d : D.decision) ->
        if d.D.d_move = None && d.D.d_from <> d.D.d_to then
          Some
            (v "adaptive-chain" "window %d: hold changed the config %s -> %s"
               d.D.d_index
               (Adaptive.Config.label d.D.d_from)
               (Adaptive.Config.label d.D.d_to))
        else None)
      ds
  in
  let rec pairwise acc = function
    | (a : D.decision) :: (b :: _ as rest) ->
        let acc =
          if a.D.d_to = b.D.d_from then acc
          else
            v "adaptive-chain" "window %d ended at %s but window %d starts from %s"
              a.D.d_index
              (Adaptive.Config.label a.D.d_to)
              b.D.d_index
              (Adaptive.Config.label b.D.d_from)
            :: acc
        in
        let acc =
          if b.D.d_cycles >= a.D.d_cycles then acc
          else
            v "adaptive-clock" "cycles regress from %d (window %d) to %d (window %d)"
              a.D.d_cycles a.D.d_index b.D.d_cycles b.D.d_index
            :: acc
        in
        pairwise acc rest
    | _ -> List.rev acc
  in
  let n_moves = List.length (List.filter (fun d -> d.D.d_move <> None) ds) in
  let counts =
    (if n_moves <> oc.D.o_moves then
       [ v "adaptive-count" "%d moves in the log but the outcome reports %d" n_moves oc.D.o_moves ]
     else [])
    @
    let spans = Trace.decisions oc.D.o_trace in
    if spans <> List.length ds then
      [
        v "adaptive-count" "%d decisions in the log but %d decision spans traced"
          (List.length ds) spans;
      ]
    else []
  in
  let final =
    match List.rev ds with
    | last :: _ when last.D.d_to <> oc.D.o_final ->
        [
          v "adaptive-chain" "last decision leaves %s but the outcome reports final=%s"
            (Adaptive.Config.label last.D.d_to)
            (Adaptive.Config.label oc.D.o_final);
        ]
    | _ -> []
  in
  List.concat [ quiescence; holds; pairwise [] ds; counts; final ]
