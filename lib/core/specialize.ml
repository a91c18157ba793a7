(* Compile-and-specialize pass: the hot-path artifacts the executors use
   instead of the interpreted Program surface.

   Three ingredients, all derived once per program and attached to it via
   the {!Program.payload} extension point:

   - a dense jump table for Δ: transitions are indexed by
     [state * n_classes + class], where the event class is 0-4 for the
     builtin events and an interned id (>= 5) per user event key that
     appears on an FSM edge. Lookup is two array reads instead of a
     hashtable probe plus a list scan. Events with no dense class
     (quarantine markers) and dead (state, class) cells fall back to
     {!Program.step}, which preserves the exact undefined-transition
     error.
   - a per-state memo for user-event classification: an action body
     returns [User s] with [s] a string literal, physically shared across
     calls of the same closure, so one pointer comparison classifies the
     common case without hashing.
   - fused action runners ({!runners}): one closure per control state
     binding the action's base charge, body and instance name, with the
     fault-plane exception barrier inlined. While the plane is inert
     ({!Fault.live} is false — re-checked per action because injections
     arm at source-pull time) the armed-countdown probe is skipped; the
     conversion of escaping exceptions is byte-identical to
     {!Fault.guard}.

   Simulated metrics are untouched by construction: the same charges reach
   the same execution context in the same order; only host-side dispatch
   work is removed. *)

type t = {
  program : Program.t;
  n_classes : int;  (* 5 builtins + interned user keys *)
  class_of_key : (string, int) Hashtbl.t;  (* user key -> class (>= 5) *)
  next : int array;  (* state * n_classes + class -> successor, -1 if dead *)
  memo_key : string array;  (* per state: last classified user key ... *)
  memo_cls : int array;  (* ... and its class; physical-equality memo *)
}

type Program.payload += P of t

(* Classes of the builtin events; user keys are interned after them. *)
let n_builtin_classes = 5

let builtin_class = function
  | Event.Packet_arrival -> 0
  | Event.Match_success -> 1
  | Event.Match_fail -> 2
  | Event.Emit_packet -> 3
  | Event.Drop_packet -> 4
  | Event.User _ | Event.Faulted _ -> -1

let build (program : Program.t) =
  let edges = Fsm.edges program.Program.fsm in
  let class_of_key = Hashtbl.create 16 in
  let n_user = ref 0 in
  let classify key =
    match Event.of_key key with
    | Event.User s -> (
        match Hashtbl.find_opt class_of_key s with
        | Some c -> c
        | None ->
            let c = n_builtin_classes + !n_user in
            incr n_user;
            Hashtbl.add class_of_key s c;
            c)
    | Event.Faulted _ -> -1  (* containment edges stay on the fallback *)
    | e -> builtin_class e
  in
  (* Intern every user key first so the table width is known. *)
  let classed = List.map (fun (src, key, dst) -> (src, classify key, dst)) edges in
  let n_states = Program.n_states program in
  let n_classes = n_builtin_classes + !n_user in
  let next = Array.make (n_states * n_classes) (-1) in
  List.iter
    (fun (src, cls, dst) -> if cls >= 0 then next.((src * n_classes) + cls) <- dst)
    classed;
  (* The memo sentinel must be physically distinct from every real key; a
     fresh 1-byte allocation is never shared with a literal. *)
  let sentinel = Bytes.to_string (Bytes.make 1 '\000') in
  {
    program;
    n_classes;
    class_of_key;
    next;
    memo_key = Array.make n_states sentinel;
    memo_cls = Array.make n_states (-1);
  }

let install (p : Program.t) =
  match p.Program.payload with
  | Some (P _) -> ()
  | _ -> p.Program.payload <- Some (P (build p))

let get (p : Program.t) =
  match p.Program.payload with Some (P sp) -> Some sp | _ -> None

(* Detach the pass (the differential oracle strips programs before its
   interpreted reference runs, so a shared instance cannot leak the
   specialized path into the baseline). *)
let remove (p : Program.t) =
  match p.Program.payload with Some (P _) -> p.Program.payload <- None | _ -> ()

let installed p = match get p with Some _ -> true | None -> false

(* Event class under [t] when the current state is [cs]; -1 when the event
   has no dense class. The user-key memo is per state: an action's closure
   returns the same string literal on every call, so after the first
   classification one pointer comparison suffices. *)
let class_of t cs ev =
  match ev with
  | Event.Packet_arrival -> 0
  | Event.Match_success -> 1
  | Event.Match_fail -> 2
  | Event.Emit_packet -> 3
  | Event.Drop_packet -> 4
  | Event.Faulted _ -> -1
  | Event.User s ->
      if s == t.memo_key.(cs) then t.memo_cls.(cs)
      else begin
        match Hashtbl.find t.class_of_key s with
        | c ->
            t.memo_key.(cs) <- s;
            t.memo_cls.(cs) <- c;
            c
        | exception Not_found -> -1
      end

(* Δ through the dense table. Dead cells and class-less events defer to
   the interpreter, which raises the canonical undefined-transition
   error. *)
let step t cs ev =
  let cls = class_of t cs ev in
  if cls < 0 then Program.step t.program cs ev
  else
    let nxt = t.next.((cs * t.n_classes) + cls) in
    if nxt >= 0 then nxt else Program.step t.program cs ev

(* One fused runner per control state: base charge, body and the fault
   barrier bound into a single closure. Equivalence with the interpreted
   path, case by case:
   - plane live: delegate to {!Fault.guard} verbatim (armed countdowns
     must decrement and fire before the body, exactly as interpreted);
   - plane inert: no countdown can exist, so charge the base computation
     and run the body; [Fault (reason, detail)] counts under [detail],
     any other exception under the instance name as [Action_raise], and
     [Stack_overflow] / [Out_of_memory] are re-raised — the same
     conversion {!Fault.guard} applies.
   States without an action raise [Invalid_argument] with the
   executor-supplied message, preserving each executor's error text. *)
let runners t plane ~err =
  Array.map
    (fun (ci : Program.cs_info) ->
      match ci.Program.action with
      | Some a ->
          let nf = ci.Program.inst in
          let cycles = a.Action.base_cycles in
          let instrs = a.Action.base_instrs in
          let body = a.Action.body in
          fun ctx task ->
            if Fault.live plane then Fault.guard plane ~nf a ctx task
            else begin
              Exec_ctx.compute ctx ~cycles ~instrs;
              try body ctx task with
              | Fault.Fault (reason, detail) -> Fault.convert plane ~nf:detail reason
              | (Stack_overflow | Out_of_memory) as e -> raise e
              | _ -> Fault.convert plane ~nf Fault.Action_raise
            end
      | None ->
          let msg = err ci.Program.qname in
          fun _ _ -> invalid_arg msg)
    t.program.Program.info

let n_classes t = t.n_classes

let user_classes t =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.class_of_key []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let next_table t = t.next
