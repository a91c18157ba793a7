(* nflint rules. Both entry points reduce the subject to one [view] —
   an FSM, per-state NF-C effect summaries, and three abstractions over
   it (available fetch classes, definitely-written temps, control-state
   touch sets) — and run the same rule set over the view. The module
   level uses the declared fetching classes as the availability
   abstraction; the build level uses the concrete prefetch targets and
   action kill sets on the same {!Dataflow} fixpoint the optimizer's
   redundant-prefetch removal runs on. *)

open Gunfu

(* ----- the prefetchable-class abstraction ----- *)

type cls = [ `Packet | `Match_addrs | `Per_flow | `Sub_flow | `Fixed ]

let cls_name = function
  | `Packet -> "Packet"
  | `Match_addrs -> "MatchState"
  | `Per_flow -> "PerFlowState"
  | `Sub_flow -> "SubFlowState"
  | `Fixed -> "ControlState"

(* Scope -> prefetchable class for the cold-access rule. ControlState is
   deliberately never prefetched (small and hot; the compiler requires no
   binding for it) and TempState lives inside the task, so neither can be
   cold. *)
let prefetch_cls_of_scope = function
  | Nfc.Packet -> Some `Packet
  | Nfc.Per_flow -> Some `Per_flow
  | Nfc.Sub_flow -> Some `Sub_flow
  | Nfc.Match_state -> Some `Match_addrs
  | Nfc.Control | Nfc.Temp -> None

(* Spec-level state-class names (states: maps) -> class. *)
let cls_of_decl = function
  | "packet" | "packet_state" -> Some `Packet
  | "per_flow" -> Some `Per_flow
  | "sub_flow" -> Some `Sub_flow
  | "match" | "match_state" -> Some `Match_addrs
  | _ -> None

let cls_eq (a : cls) (b : cls) = a = b
let cls_mem c cs = List.exists (cls_eq c) cs
let cls_union = Dataflow.Set_ops.union ~equal:cls_eq
let cls_inter = Dataflow.Set_ops.inter ~equal:cls_eq
let cls_set_equal = Dataflow.Set_ops.set_equal ~equal:cls_eq
let str_union = Dataflow.Set_ops.union ~equal:String.equal
let str_inter = Dataflow.Set_ops.inter ~equal:String.equal
let str_set_equal = Dataflow.Set_ops.set_equal ~equal:String.equal

let dedup_ints ids =
  List.fold_left (fun acc i -> if List.mem i acc then acc else acc @ [ i ]) [] ids

(* ----- the shared analysis view ----- *)

type view = {
  v_fsm : Fsm.t;
  v_entry : int;
  v_exit : int option;
  v_name : int -> string;  (* display name ("cs" or "inst.cs") *)
  v_eff : (int * Effects.t) list;  (* states carrying NF-C, program order *)
  v_nfc : (int * Nfc.t) list;  (* the same states' parsed NF-C bodies *)
  v_real : int -> bool;  (* excludes Start/End/__start/__done *)
  v_check_cold : bool;  (* false when compiling with prefetching off *)
  v_coverage : int -> cls list;  (* classes fetched for the state's action *)
  v_temp_must_in : int -> string list;  (* temps definitely written on entry *)
  v_temp_qual : int -> string -> string;  (* temp field -> fact name *)
  v_ctl_qual : int -> string -> string;  (* control field -> fact name *)
  v_has_transition : int -> string -> bool;
}

let witness_of fsm ~entry ~name target =
  match Dataflow.witness fsm ~entry ~target with
  | Some path -> List.map name path
  | None -> []

let events_of (e : Effects.t) =
  e.Effects.emits @ (if e.Effects.falls_through then [ "continue" ] else [])

let run_view v add =
  let witness = witness_of v.v_fsm ~entry:v.v_entry ~name:v.v_name in
  (* cold-access: a state-scope access with no dominating fetch of its
     class — the action demand-misses on it along every path. *)
  if v.v_check_cold then
    List.iter
      (fun (id, eff) ->
        let cov = v.v_coverage id in
        let flagged = ref [] in
        List.iter
          (fun (a : Effects.access) ->
            match prefetch_cls_of_scope a.Effects.a_scope with
            | None -> ()
            | Some c ->
                if not (cls_mem c cov) && not (cls_mem c !flagged) then begin
                  flagged := c :: !flagged;
                  add "cold-access" Report.Error (v.v_name id)
                    (Fmt.str
                       "%s.%s is accessed but no fetch of class %s covers %s on any path \
                        (demand miss)"
                       (Nfc.keyword_of_scope a.Effects.a_scope)
                       a.Effects.a_field (cls_name c) (v.v_name id))
                    (witness id)
                end)
          eff.Effects.accesses)
      v.v_eff;
  (* temp-escape: a TempState read not dominated by a definite write. *)
  List.iter
    (fun (id, eff) ->
      let must_in = v.v_temp_must_in id in
      List.iter
        (fun f ->
          if not (List.mem (v.v_temp_qual id f) must_in) then
            add "temp-escape" Report.Error (v.v_name id)
              (Fmt.str
                 "TempState.%s may be read at %s before any state has written it on some \
                  path"
                 f (v.v_name id))
              (witness id))
        eff.Effects.temp_exposed)
    v.v_eff;
  (* interleaving-conflict: one finding per ControlState field touched by
     two or more control states with at least one writer. A single-state
     read-modify-write is fine — actions run to completion; streams only
     interleave at control-state boundaries. *)
  let touches =
    List.concat_map
      (fun (id, eff) ->
        List.filter_map
          (fun (a : Effects.access) ->
            if a.Effects.a_scope = Nfc.Control then
              Some (v.v_ctl_qual id a.Effects.a_field, a.Effects.a_field, id, a.Effects.a_write)
            else None)
          eff.Effects.accesses)
      v.v_eff
  in
  let fields =
    List.fold_left
      (fun acc (q, _, _, _) -> if List.mem q acc then acc else acc @ [ q ])
      [] touches
  in
  List.iter
    (fun q ->
      let ts = List.filter (fun (q', _, _, _) -> q' = q) touches in
      let ids = dedup_ints (List.map (fun (_, _, id, _) -> id) ts) in
      let writers =
        dedup_ints (List.filter_map (fun (_, _, id, w) -> if w then Some id else None) ts)
      in
      match (ids, writers) with
      | _ :: _ :: _, w :: _ ->
          let field = match ts with (_, f, _, _) :: _ -> f | [] -> q in
          let others = List.filter (fun id -> id <> w) ids in
          add "interleaving-conflict" Report.Warning (v.v_name w)
            (Fmt.str
               "ControlState.%s is written at %s and also touched at %s; interleaved \
                function streams race on it across suspension points"
               field (v.v_name w)
               (String.concat ", " (List.map v.v_name others)))
            []
      | _ -> ())
    fields;
  (* constant-condition: an If whose condition the symbolic simplifier
     decides to the same truth value on every path reaching it — one
     branch is dead and the test is wasted cycles. *)
  List.iter
    (fun (id, prog) ->
      let summary = Sym.summarize prog in
      List.iter
        (fun (_, cond, truth) ->
          let rec sym_of = function
            | Nfc.Int v -> Sym.Const v
            | Nfc.Ref (s, f) -> Sym.Var (s, f)
            | Nfc.Bin (op, a, b) -> Sym.SBin (op, sym_of a, sym_of b)
          in
          add "constant-condition" Report.Warning (v.v_name id)
            (Fmt.str
               "the branch condition %a at %s is always %s: the %s branch is dead code"
               Sym.pp_sexpr (sym_of cond) (v.v_name id)
               (if truth then "true" else "false")
               (if truth then "else" else "then"))
            (witness id))
        summary.Sym.s_decided)
    v.v_nfc;
  (* missing-transition: the body can raise an event Δ does not define. *)
  List.iter
    (fun (id, eff) ->
      List.iter
        (fun ev ->
          if not (v.v_has_transition id ev) then
            add "missing-transition" Report.Error (v.v_name id)
              (Fmt.str "the action may %s but no transition on %S leaves %s"
                 (if ev = "continue" then "fall through (raising the default event)"
                  else Fmt.str "emit %S" ev)
                 ev (v.v_name id))
              (witness id))
        (events_of eff))
    v.v_eff;
  (* dead-edge: a transition labelled with an event the body never
     raises. *)
  List.iter
    (fun (src, ev, _) ->
      match List.assoc_opt src v.v_eff with
      | None -> ()
      | Some eff ->
          let allowed = events_of eff in
          if not (List.mem ev allowed) then
            add "dead-edge" Report.Warning (v.v_name src)
              (Fmt.str "transition on %S can never fire: the action only raises {%s}" ev
                 (String.concat ", " allowed))
              [])
    (Fsm.edges v.v_fsm);
  (* FSM hygiene. *)
  let reach = Dataflow.reachable v.v_fsm ~entry:v.v_entry in
  Array.iteri
    (fun id r ->
      if v.v_real id && not r then
        add "unreachable-state" Report.Warning (v.v_name id)
          (Fmt.str "%s is not reachable from the entry state" (v.v_name id))
          [])
    reach;
  match v.v_exit with
  | None -> ()
  | Some exit_ ->
      let co = Dataflow.coreachable v.v_fsm ~exit_ in
      Array.iteri
        (fun id r ->
          if v.v_real id && r && not co.(id) then
            add "no-done-path" Report.Warning (v.v_name id)
              (Fmt.str "no path from %s to completion: tasks reaching it never finish"
                 (v.v_name id))
              (witness id))
        reach

(* ----- module level ----- *)

let of_module (m : Spec.module_spec) : Report.finding list =
  let subject = m.Spec.m_name in
  let findings = ref [] in
  let add rule severity qname detail witness =
    findings := { Report.rule; severity; subject; qname; detail; witness } :: !findings
  in
  let states = List.rev (Spec.control_states_of m) in
  let b = Fsm.Builder.create () in
  List.iter (fun s -> ignore (Fsm.Builder.add_state b s)) states;
  let state_id s =
    match Fsm.Builder.state b s with Some i -> i | None -> assert false
  in
  (* Keep the first of conflicting (src, event) edges so the FSM still
     builds; the conflict itself becomes a finding. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (t : Spec.transition) ->
      let key = (t.Spec.src, t.Spec.event) in
      match Hashtbl.find_opt seen key with
      | Some dst when dst <> t.Spec.dst ->
          add "fsm-nondeterminism" Report.Error t.Spec.src
            (Fmt.str "transition (%s, %s) maps to both %s and %s" t.Spec.src t.Spec.event
               dst t.Spec.dst)
            []
      | Some _ -> ()
      | None ->
          Hashtbl.add seen key t.Spec.dst;
          Fsm.Builder.add_edge b ~src:(state_id t.Spec.src) ~event:t.Spec.event
            ~dst:(state_id t.Spec.dst))
    m.Spec.m_transitions;
  let fsm = Fsm.Builder.build b in
  let eff =
    List.filter_map
      (fun (cs, src) ->
        if not (List.mem cs states) then begin
          add "nfc-unknown-state" Report.Error cs
            (Fmt.str "NF-C body attached to unknown control state %s" cs)
            [];
          None
        end
        else
          match Effects.of_source src with
          | Ok e -> Option.map (fun id -> (id, e)) (Fsm.index fsm cs)
          | Error msg ->
              add "nfc-syntax" Report.Error cs msg [];
              None)
      m.Spec.m_nfc
  in
  let nfc =
    List.filter_map
      (fun (cs, src) ->
        match Nfc.parse src with
        | prog -> Option.map (fun id -> (id, prog)) (Fsm.index fsm cs)
        | exception Nfc.Nfc_error _ -> None (* already an nfc-syntax finding *))
      m.Spec.m_nfc
  in
  let decl_classes cs =
    match List.assoc_opt cs m.Spec.m_fetching with
    | None -> []
    | Some names ->
        List.fold_left
          (fun acc n ->
            match Option.bind (List.assoc_opt n m.Spec.m_states) cls_of_decl with
            | Some c -> cls_union acc [ c ]
            | None -> acc)
          [] names
  in
  (match Fsm.index fsm Spec.start_state with
  | None ->
      List.iter
        (fun s ->
          if s <> Spec.end_state then
            add "unreachable-state" Report.Warning s
              (Fmt.str "%s is not reachable: the module has no Start transitions" s)
              [])
        states
  | Some entry ->
      let all_classes : cls list = [ `Packet; `Match_addrs; `Per_flow; `Sub_flow; `Fixed ] in
      (* Fetch classes available on every path (no kills at this level:
         declared fetching is the only information the module spec has). *)
      let avail =
        Dataflow.forward fsm ~entry
          ~entry_out:(decl_classes Spec.start_state)
          ~init:all_classes ~no_pred:[] ~join:cls_inter ~equal:cls_set_equal
          ~transfer:(fun i f -> cls_union f (decl_classes (Fsm.name fsm i)))
      in
      let temp_universe =
        List.fold_left
          (fun acc (_, e) ->
            str_union acc (str_union e.Effects.temp_written e.Effects.temp_exposed))
          [] eff
      in
      let temp_must =
        Dataflow.forward fsm ~entry ~entry_out:[] ~init:temp_universe ~no_pred:[]
          ~join:str_inter ~equal:str_set_equal
          ~transfer:(fun i f ->
            match List.assoc_opt i eff with
            | Some e -> str_union f e.Effects.temp_written
            | None -> f)
      in
      let view =
        {
          v_fsm = fsm;
          v_entry = entry;
          v_exit = Fsm.index fsm Spec.end_state;
          v_name = Fsm.name fsm;
          v_eff = eff;
          v_nfc = nfc;
          v_real =
            (fun id ->
              let n = Fsm.name fsm id in
              n <> Spec.start_state && n <> Spec.end_state);
          v_check_cold = true;
          v_coverage = (fun id -> avail.Dataflow.outs.(id));
          v_temp_must_in = (fun id -> temp_must.Dataflow.ins.(id));
          v_temp_qual = (fun _ f -> f);
          v_ctl_qual = (fun _ f -> f);
          v_has_transition =
            (fun id ev ->
              List.exists (fun (s, e, _) -> s = id && e = ev) (Fsm.edges fsm));
        }
      in
      run_view view add);
  Report.sort !findings

(* ----- build level ----- *)

(* The program as compiled, but with the declared prefetch policy put
   back: the rules judge what the spec asks for, not what dedup kept. *)
let of_build (cv : Compiler.view) : Report.finding list =
  let program = cv.Compiler.v_program in
  let fsm = program.Program.fsm in
  let start = program.Program.start in
  let info =
    Array.mapi
      (fun i ci -> { ci with Program.prefetch = cv.Compiler.v_pre_dedup.(i) })
      program.Program.info
  in
  let findings = ref [] in
  let add rule severity qname detail witness =
    findings :=
      { Report.rule; severity; subject = cv.Compiler.v_name; qname; detail; witness }
      :: !findings
  in
  let name id = info.(id).Program.qname in
  let eff =
    List.concat_map
      (fun (i : Compiler.instance) ->
        List.filter_map
          (fun (cs, src) ->
            match Fsm.index fsm (i.Compiler.i_name ^ "." ^ cs) with
            | None -> None (* control state elided, e.g. by match removal *)
            | Some id -> (
                match Effects.of_source src with
                | Ok e -> Some (id, e)
                | Error msg ->
                    add "nfc-syntax" Report.Error (name id) msg [];
                    None))
          i.Compiler.i_spec.Spec.m_nfc)
      cv.Compiler.v_instances
  in
  let nfc =
    List.concat_map
      (fun (i : Compiler.instance) ->
        List.filter_map
          (fun (cs, src) ->
            match Fsm.index fsm (i.Compiler.i_name ^ "." ^ cs) with
            | None -> None
            | Some id -> (
                match Nfc.parse src with
                | prog -> Some (id, prog)
                | exception Nfc.Nfc_error _ -> None))
          i.Compiler.i_spec.Spec.m_nfc)
      cv.Compiler.v_instances
  in
  let avail = Compiler.prefetch_availability info fsm ~start in
  let classes_of targets =
    List.fold_left (fun acc t -> cls_union acc [ (Prefetch.class_of t :> cls) ]) [] targets
  in
  let prefetching = cv.Compiler.v_opts.Compiler.prefetching in
  let temp_qual id f = info.(id).Program.inst ^ "." ^ f in
  let temp_universe =
    List.fold_left
      (fun acc (id, e) ->
        str_union acc
          (List.map (temp_qual id)
             (str_union e.Effects.temp_written e.Effects.temp_exposed)))
      [] eff
  in
  let temp_must =
    Dataflow.forward fsm ~entry:start ~entry_out:[] ~init:temp_universe
      ~no_pred:[] ~join:str_inter ~equal:str_set_equal
      ~transfer:(fun i f ->
        match List.assoc_opt i eff with
        | Some e -> str_union f (List.map (temp_qual i) e.Effects.temp_written)
        | None -> f)
  in
  let view =
    {
      v_fsm = fsm;
      v_entry = start;
      v_exit = Some program.Program.done_cs;
      v_name = name;
      v_eff = eff;
      v_nfc = nfc;
      v_real = (fun id -> info.(id).Program.action <> None);
      (* With prefetching compiled out every access is cold by design. *)
      v_check_cold = prefetching;
      v_coverage =
        (fun id ->
          cls_union
            (classes_of avail.Dataflow.ins.(id))
            (classes_of info.(id).Program.prefetch));
      v_temp_must_in = (fun id -> temp_must.Dataflow.ins.(id));
      v_temp_qual = temp_qual;
      v_ctl_qual = temp_qual;
      v_has_transition = (fun id ev -> Fsm.step fsm id (Event.of_key ev) <> None);
    }
  in
  run_view view add;
  (* short-distance: a prefetch issued on the transition into the very
     state whose action first consumes it. The fetch then overlaps only
     that action's own compute — not enough to hide a DRAM round trip in
     a single stream — while a predecessor state could have hosted it
     (prefetching there is sound: the predecessor neither invalidates
     nor already fetches the class). Interleaving other streams hides
     the latency anyway, hence Info: this is a program-shape note, not a
     defect. *)
  if prefetching then
    Array.iteri
      (fun id (ci : Program.cs_info) ->
        match ci.Program.action with
        | None -> ()
        | Some _ ->
            let in_classes = classes_of avail.Dataflow.ins.(id) in
            List.iter
              (fun t ->
                let c = (Prefetch.class_of t :> cls) in
                if not (cls_mem c in_classes) then
                  let hoistable p =
                    p <> start
                    &&
                    match info.(p).Program.action with
                    | None -> false
                    | Some a ->
                        (not
                           (List.exists
                              (fun r -> cls_eq (r :> cls) c)
                              a.Action.invalidates))
                        && not (cls_mem c (classes_of info.(p).Program.prefetch))
                  in
                  match List.filter hoistable (Fsm.predecessors fsm id) with
                  | [] -> ()
                  | p :: _ ->
                      add "short-distance" Report.Info (name id)
                        (Fmt.str
                           "prefetch %a is issued on the transition into %s, the state \
                            whose action first uses it; a lone stream still stalls \
                            ~%d cycles (DRAM) — hoistable to %s"
                           Prefetch.pp_target t (name id)
                           Memsim.Hierarchy.default_config.Memsim.Hierarchy.lat_dram
                           (name p))
                        [])
              ci.Program.prefetch)
      info;
  Report.sort !findings
