(* The director compiler (§VI): takes module/NF specifications plus the
   NFAction implementation library and produces an executable {!Program}.

   Passes:
   - flattening: module FSMs + NF-level wiring -> one global FSM;
   - redundant-matching removal (§VI-B): consecutive classifier instances
     that locate session state by the same key reuse the first instance's
     match result and are deleted from the chain;
   - redundant-prefetch removal (§VI-B): a forward must-analysis over the
     flattened FSM removes prefetch targets already fetched on every path
     to a control state (and not invalidated since). *)

exception Compile_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Compile_error s)) fmt

type instance = {
  i_name : string;
  i_spec : Spec.module_spec;
  i_actions : (string * Action.t) list;  (* control state -> action impl *)
  i_bindings : (string * Prefetch.target) list;  (* spec state name -> target *)
  i_key_kind : string option;  (* classifiers: what key they match on *)
}

type opts = {
  match_removal : bool;
  prefetch_dedup : bool;
  prefetching : bool;  (* false: compile with empty prefetch policies *)
}

let default_opts = { match_removal = false; prefetch_dedup = true; prefetching = true }

(* ----- redundant matching removal ----- *)

(* Returns the surviving instances and rewritten NF transitions. An
   instance is redundant when it is a classifier whose key kind already
   appeared earlier in the chain: its match result (the per-flow index in
   the NFTask) is still valid, so the instance's incoming transitions are
   rewired to its MATCH_SUCCESS successor. *)
let remove_redundant_matching instances (nf : Spec.nf_spec) =
  let order = List.map fst nf.Spec.n_modules in
  let inst_of name =
    match List.find_opt (fun i -> i.i_name = name) instances with
    | Some i -> i
    | None -> fail "match removal: nf %s references missing instance %s" nf.Spec.n_name name
  in
  let seen = ref [] in
  let redundant =
    List.filter
      (fun name ->
        match (inst_of name).i_key_kind with
        | None -> false
        | Some k ->
            if List.mem k !seen then true
            else begin
              seen := k :: !seen;
              false
            end)
      order
  in
  if redundant = [] then (instances, nf)
  else begin
    let success_target name =
      match
        List.find_opt
          (fun t -> t.Spec.src = name && t.Spec.event = "MATCH_SUCCESS")
          nf.Spec.n_transitions
      with
      | Some t -> t.Spec.dst
      | None -> fail "match removal: classifier %s has no MATCH_SUCCESS successor" name
    in
    (* Resolve chains of removed classifiers. *)
    let rec resolve dst =
      if List.mem dst redundant then resolve (success_target dst) else dst
    in
    let transitions =
      List.filter_map
        (fun t ->
          if List.mem t.Spec.src redundant then None
          else Some { t with Spec.dst = resolve t.Spec.dst })
        nf.Spec.n_transitions
    in
    let modules = List.filter (fun (n, _) -> not (List.mem n redundant)) nf.Spec.n_modules in
    let instances = List.filter (fun i -> not (List.mem i.i_name redundant)) instances in
    (instances, { nf with Spec.n_modules = modules; Spec.n_transitions = transitions })
  end

(* ----- flattening ----- *)

let qname inst cs = inst ^ "." ^ cs

(* Entry control state of an instance for a given event: target of its
   module's Start transition on that event; falls back to "packet", then to
   a unique Start transition (a module with a single entry accepts any
   upstream exit event — e.g. a data module entered directly after match
   removal rewired its classifier away). *)
let entry_of inst event =
  let find ev =
    List.find_opt
      (fun t -> t.Spec.src = Spec.start_state && t.Spec.event = ev)
      inst.i_spec.Spec.m_transitions
  in
  match find event with
  | Some t -> t.Spec.dst
  | None -> (
      match find "packet" with
      | Some t -> t.Spec.dst
      | None -> (
          match
            List.filter
              (fun t -> t.Spec.src = Spec.start_state)
              inst.i_spec.Spec.m_transitions
          with
          | [ t ] -> t.Spec.dst
          | _ -> fail "instance %s has no entry transition for event %s" inst.i_name event))

let flatten instances (nf : Spec.nf_spec) =
  let inst_of name =
    match List.find_opt (fun i -> i.i_name = name) instances with
    | Some i -> i
    | None -> fail "nf %s references missing instance %s" nf.Spec.n_name name
  in
  let b = Fsm.Builder.create () in
  let start = Fsm.Builder.add_state b "__start" in
  let done_cs = Fsm.Builder.add_state b "__done" in
  (* Add all real control states first so ids are stable. *)
  List.iter
    (fun inst ->
      List.iter
        (fun cs ->
          if cs <> Spec.start_state && cs <> Spec.end_state then
            ignore (Fsm.Builder.add_state b (qname inst.i_name cs)))
        (List.rev (Spec.control_states_of inst.i_spec)))
    instances;
  let state_id inst cs =
    match Fsm.Builder.state b (qname inst.i_name cs) with
    | Some i -> i
    | None -> fail "unknown control state %s.%s" inst.i_name cs
  in
  (* Where does instance [name] exiting with [event] go? *)
  let exit_target name event =
    match
      List.find_opt
        (fun t -> t.Spec.src = name && t.Spec.event = event)
        nf.Spec.n_transitions
    with
    | Some t when t.Spec.dst = Spec.end_state -> done_cs
    | Some t ->
        let next = inst_of t.Spec.dst in
        state_id next (entry_of next event)
    | None -> done_cs
  in
  (* Module-internal edges. *)
  List.iter
    (fun inst ->
      List.iter
        (fun (t : Spec.transition) ->
          if t.Spec.src = Spec.start_state then ()
          else
            let src = state_id inst t.Spec.src in
            let dst =
              if t.Spec.dst = Spec.end_state then exit_target inst.i_name t.Spec.event
              else state_id inst t.Spec.dst
            in
            Fsm.Builder.add_edge b ~src ~event:t.Spec.event ~dst)
        inst.i_spec.Spec.m_transitions)
    instances;
  (* Program entry: first instance in declaration order. *)
  (match nf.Spec.n_modules with
  | [] -> fail "nf %s: no modules" nf.Spec.n_name
  | (first, _) :: _ ->
      let fi = inst_of first in
      Fsm.Builder.add_edge b ~src:start ~event:"packet"
        ~dst:(state_id fi (entry_of fi "packet")));
  let fsm = Fsm.Builder.build b in
  (start, done_cs, fsm)

(* ----- per-state info ----- *)

let build_info instances fsm ~start ~done_cs ~prefetching =
  let n = Fsm.n_states fsm in
  let info =
    Array.init n (fun i ->
        {
          Program.qname = Fsm.name fsm i;
          inst = "";
          action = None;
          prefetch = [];
        })
  in
  List.iter
    (fun inst ->
      List.iter
        (fun cs ->
          if cs <> Spec.start_state && cs <> Spec.end_state then begin
            let id =
              match Fsm.index fsm (qname inst.i_name cs) with
              | Some i -> i
              | None -> fail "lost control state %s.%s" inst.i_name cs
            in
            let action =
              match List.assoc_opt cs inst.i_actions with
              | Some a -> Some a
              | None -> fail "instance %s: no action implementation for %s" inst.i_name cs
            in
            let prefetch =
              if not prefetching then []
              else
                match List.assoc_opt cs inst.i_spec.Spec.m_fetching with
                | None -> []
                | Some state_names ->
                    List.filter_map
                      (fun sname ->
                        match List.assoc_opt sname inst.i_bindings with
                        | Some target -> Some target
                        | None -> (
                            (* control/temp states need no prefetch binding *)
                            match List.assoc_opt sname inst.i_spec.Spec.m_states with
                            | Some ("temp" | "control") -> None
                            | _ ->
                                fail "instance %s: no binding for state %s" inst.i_name
                                  sname))
                      state_names
            in
            info.(id) <- { Program.qname = Fsm.name fsm id; inst = inst.i_name; action; prefetch }
          end)
        (Spec.control_states_of inst.i_spec))
    instances;
  ignore start;
  ignore done_cs;
  info

(* ----- redundant prefetch removal ----- *)

(* Forward must-analysis on the shared {!Dataflow} fixpoint: a target is
   "available" at a control state when it was prefetched (and not
   invalidated) on every path from __start. Targets available on entry need
   not be prefetched again. The analyzer's cold-access and short-distance
   lints reuse the same availability facts. *)
let prefetch_availability (info : Program.cs_info array) fsm ~start =
  let eq = Prefetch.equal_target in
  let universe =
    Array.to_list info
    |> List.concat_map (fun ci -> ci.Program.prefetch)
    |> List.fold_left (fun acc t -> Dataflow.Set_ops.union ~equal:eq acc [ t ]) []
  in
  let kill_of ci =
    match ci.Program.action with
    | None -> []
    | Some a -> a.Action.invalidates
  in
  let survives kills target =
    not
      (List.exists
         (fun k ->
           match (k, Prefetch.class_of target) with
           | `Match_addrs, `Match_addrs -> true
           | `Per_flow, `Per_flow -> true
           | `Sub_flow, `Sub_flow -> true
           | `Packet, `Packet -> true
           | _ -> false)
         kills)
  in
  let transfer i avail_in =
    List.filter (survives (kill_of info.(i)))
      (Dataflow.Set_ops.union ~equal:eq avail_in info.(i).Program.prefetch)
  in
  Dataflow.forward fsm ~entry:start ~entry_out:[] ~init:universe ~no_pred:[]
    ~join:(Dataflow.Set_ops.inter ~equal:eq)
    ~equal:(Dataflow.Set_ops.set_equal ~equal:eq)
    ~transfer

let remove_redundant_prefetch (info : Program.cs_info array) fsm ~start =
  let avail = prefetch_availability info fsm ~start in
  let removed = ref 0 in
  Array.iteri
    (fun i inp ->
      let kept =
        List.filter
          (fun t ->
            if List.exists (Prefetch.equal_target t) inp then begin
              incr removed;
              false
            end
            else true)
          info.(i).Program.prefetch
      in
      info.(i).Program.prefetch <- kept)
    avail.Dataflow.ins;
  !removed

(* ----- top level ----- *)

(* Everything the analyzer and the translation validator need: the
   spec-level program before any pass, the post-match-removal form, the
   declared prefetch policy before dedup stripped it, and the finished
   program. *)
type view = {
  v_name : string;
  v_opts : opts;
  v_orig_instances : instance list;  (* pre match-removal *)
  v_orig_nf : Spec.nf_spec;
  v_instances : instance list;  (* post match-removal *)
  v_nf : Spec.nf_spec;
  v_pre_dedup : Prefetch.target list array;  (* declared policy, pre dedup *)
  v_program : Program.t;
}

let view ?(opts = default_opts) ~name orig_instances (orig_nf : Spec.nf_spec) =
  List.iter (fun i -> Spec.validate_module i.i_spec) orig_instances;
  Spec.validate_nf orig_nf
    ~known_modules:(List.map (fun i -> i.i_spec.Spec.m_name) orig_instances);
  let instances, nf =
    if opts.match_removal then remove_redundant_matching orig_instances orig_nf
    else (orig_instances, orig_nf)
  in
  let start, done_cs, fsm = flatten instances nf in
  let info = build_info instances fsm ~start ~done_cs ~prefetching:opts.prefetching in
  let pre_dedup = Array.map (fun ci -> ci.Program.prefetch) info in
  if opts.prefetch_dedup && opts.prefetching then
    ignore (remove_redundant_prefetch info fsm ~start);
  {
    v_name = name;
    v_opts = opts;
    v_orig_instances = orig_instances;
    v_orig_nf = orig_nf;
    v_instances = instances;
    v_nf = nf;
    v_pre_dedup = pre_dedup;
    v_program =
      { Program.p_name = name; fsm; info; start; done_cs; payload = None };
  }

let compile ?opts ~name instances nf = (view ?opts ~name instances nf).v_program
