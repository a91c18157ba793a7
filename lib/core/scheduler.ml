(* The interleaved function-stream executor — Algorithm 1 of the paper.

   A fixed set of NFTasks is multiplexed round-robin on one core. The Fetch
   step (run right after each transition) resolves the next action's
   NFState targets and issues their prefetches immediately, so the fills
   overlap with the execution of the other function streams. On a visit,
   the scheduler checks the task's P-state (isPrefetched, Algorithm 1 line
   7): if a fill is still in flight it re-issues anything dropped or
   evicted and switches to the next task; otherwise it executes the action,
   takes the FSM transition and fetches for the successor state.

   Finished NFTasks are re-initialised with new work in place (line 13), so
   the pipeline stays full until the source drains. *)

type policy = Round_robin | Ready_first

(* The walks a visit makes over a task's Fetch blocks, top-level so that
   no closure is built per visit: readiness of blocks [i] onwards, and
   (re-)issuing them all. *)
let rec all_ready ctx (t : Nftask.t) i =
  i >= t.Nftask.n_blocks
  || Exec_ctx.ready ctx ~addr:(Nftask.block_addr t i) ~bytes:(Nftask.block_bytes t i)
     && all_ready ctx t (i + 1)

let issue ctx (t : Nftask.t) =
  for i = 0 to t.Nftask.n_blocks - 1 do
    ignore
      (Exec_ctx.prefetch ctx ~addr:(Nftask.block_addr t i) ~bytes:(Nftask.block_bytes t i)
        : int)
  done

(* Is (addr, bytes) among the task's Fetch blocks [i] onwards? *)
let rec fetched (t : Nftask.t) ~addr ~bytes i =
  i < t.Nftask.n_blocks
  && ((Nftask.block_addr t i = addr && Nftask.block_bytes t i = bytes)
     || fetched t ~addr ~bytes (i + 1))

(* Reverse [a]'s elements [i, j] in place. *)
let rec reverse (a : int array) i j =
  if i < j then begin
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x;
    reverse a (i + 1) (j - 1)
  end

(* Per-flow ordering: two packets of one flow must not be in flight in two
   NFTasks at once (their state mutations would race and could complete
   out of order). A flow is busy exactly when an active task holds it as
   its [flow_hint]; items whose flow is busy wait in a stash. An item is
   loaded only while its flow is idle, so at most one task ever holds a
   flow and this scan of the slots is the whole per-flow state. Items
   without a flow ([flow_hint] < 0) are never held back. *)
let rec held (tasks : Nftask.t array) fh i =
  i < Array.length tasks
  && ((tasks.(i).Nftask.active && tasks.(i).Nftask.flow_hint = fh) || held tasks fh (i + 1))

let flow_busy tasks fh = fh >= 0 && held tasks fh 0

let rec stashed_flow fh = function
  | [] -> false
  | (item : Workload.item) :: rest -> item.Workload.flow_hint = fh || stashed_flow fh rest

(* First stashed item whose flow is idle, removed from [stash]; earlier
   stash entries of the same flow are by construction in front, so taking
   the first match preserves per-flow FIFO order. *)
let rec take_stashed tasks stash acc = function
  | [] -> None
  | (item : Workload.item) :: rest ->
      if flow_busy tasks item.Workload.flow_hint then
        take_stashed tasks stash (item :: acc) rest
      else begin
        stash := List.rev_append acc rest;
        Some item
      end

let rec any_idle_flow tasks = function
  | [] -> false
  | (item : Workload.item) :: rest ->
      (not (flow_busy tasks item.Workload.flow_hint)) || any_idle_flow tasks rest

(* Ready_first's pick: the first runnable task from slot [k] on, or
   [start] when none is, charging one cycle per skipped slot for the scan.
   An idle slot is runnable only when [refillable]. *)
let runnable ctx ~refillable (t : Nftask.t) =
  if not t.Nftask.active then refillable
  else
    match t.Nftask.p_state with
    | Nftask.P_ready -> true
    | Nftask.P_none | Nftask.P_issued -> all_ready ctx t 0

let rec ready_first ctx tasks ~refillable ~start k skipped =
  let n = Array.length tasks in
  if skipped = n then start
  else if runnable ctx ~refillable tasks.(k) then begin
    Exec_ctx.compute ctx ~cycles:skipped ~instrs:skipped;
    k
  end
  else ready_first ctx tasks ~refillable ~start ((k + 1) mod n) (skipped + 1)

let loop ~policy ~prefetch_distance ~n_tasks core =
  if n_tasks <= 0 then invalid_arg "Scheduler.run: n_tasks must be positive";
  if prefetch_distance < 0 then
    invalid_arg "Scheduler.run: prefetch_distance must be >= 0";
  let ctx = Engine.ctx core and cfg = Engine.cfg core and program = Engine.program core in
  let tasks = Array.init n_tasks Nftask.create in
  let stash : Workload.item list ref = ref [] in

  (* Distance >= 2: also issue the resolvable targets of FSM successor
     states, breadth-first up to [prefetch_distance - 1] steps ahead.
     Fire-and-forget — readiness is still tracked only on the current
     state's blocks; targets that resolve differently once the real
     transition happens are mere cache pollution, and the issue cycles are
     charged like any other software prefetch. A successor's blocks are
     resolved into the task's array past its Fetch blocks, and a state is
     visited once per call: [seen.(cs)] holds the last call that did.
     Each state's successors are an array built here, and the frontier
     alternates between two buffers: a state expands once per call, so no
     level holds more than every state's successors. *)
  let seen = Array.make (Program.n_states program) 0 and calls = ref 0 in
  let succ =
    Array.init (Program.n_states program) (fun cs ->
        Array.of_list (Fsm.successors program.Program.fsm cs))
  in
  let width = Array.fold_left (fun a s -> a + Array.length s) 0 succ in
  let levels = [| Array.make width 0; Array.make width 0 |] in
  let speculate (task : Nftask.t) =
    incr calls;
    let first = succ.(task.Nftask.cs) in
    Array.blit first 0 levels.(0) 0 (Array.length first);
    let n = ref (Array.length first) and depth = ref 1 in
    while !depth < prefetch_distance && !n > 0 do
      let frontier = levels.((!depth - 1) land 1) and next = levels.(!depth land 1) in
      let m = ref 0 in
      for j = 0 to !n - 1 do
        let cs = frontier.(j) in
        if seen.(cs) <> !calls && (not (Program.is_done program cs)) && cs <> task.Nftask.cs
        then begin
          seen.(cs) <- !calls;
          let n = task.Nftask.n_blocks in
          let stop = Prefetch.resolve (Program.info program cs).Program.prefetch task ~at:n in
          for k = n to stop - 1 do
            let addr = Nftask.block_addr task k and bytes = Nftask.block_bytes task k in
            if not (fetched task ~addr ~bytes 0) then
              ignore (Exec_ctx.prefetch ctx ~addr ~bytes)
          done;
          let s = succ.(cs) in
          Array.blit s 0 next !m (Array.length s);
          m := !m + Array.length s
        end
      done;
      (* The next level in reverse: the order that prepending each
         state's reversed successors built when the frontier was a list. *)
      reverse next 0 (!m - 1);
      n := !m;
      incr depth
    done
  in

  (* Fetch (F): resolve the prefetch targets of the (new) current control
     state into the task's block array and issue their prefetches right
     away. Distance 0 issues nothing — the action demand-fetches
     ([P_ready] so the next visit executes immediately); distance 1 is the
     paper's policy. *)
  let fetch (task : Nftask.t) =
    let info = Program.info program task.Nftask.cs in
    task.Nftask.n_blocks <- Prefetch.resolve info.Program.prefetch task ~at:0;
    if prefetch_distance = 0 then task.Nftask.p_state <- Nftask.P_ready
    else begin
      if task.Nftask.n_blocks = 0 then task.Nftask.p_state <- Nftask.P_ready
      else begin
        issue ctx task;
        (* If everything is already resident (e.g. packed states fetched
           by an earlier NF of the chain), run on the next visit without
           waiting. *)
        task.Nftask.p_state <-
          (if all_ready ctx task 0 then Nftask.P_ready else Nftask.P_issued)
      end;
      if prefetch_distance >= 2 then speculate task
    end
  in

  fun (source : Workload.source) ->
    let exhausted = ref false in
    (* Quiescent-pause latch: once [quiesce] answers [true] at a pull
       boundary no further source pulls happen — in-flight tasks and the
       stash drain to completion and the feed returns with every pulled
       item completed. A [quiesce] that never answers [true] leaves the
       run byte-identical to one without the hook. *)
    let paused = ref false in
    (* Pull until an item whose flow is idle arrives, stashing the others
       (another flow's packet can fill this task), up to a full stash. *)
    let rec pull () =
      match source () with
      | None ->
          exhausted := true;
          None
      | Some item as got ->
          let fh = item.Workload.flow_hint in
          if fh >= 0 && (held tasks fh 0 || stashed_flow fh !stash) then begin
            stash := !stash @ [ item ];
            if List.length !stash < 4 * n_tasks then pull () else None
          end
          else got
    in
    let next_item () =
      match take_stashed tasks stash [] !stash with
      | Some _ as got -> got
      | None ->
          if !exhausted || !paused then None
          else if Engine.want_pause core then begin
            paused := true;
            None
          end
          else pull ()
    in

    (* Finish one task: completion (poisoning disposition, accounting,
       oracle tap, retire, which also releases its flow), and immediate
       re-initialisation with fresh work (Algorithm 1 line 13). *)
    let rec finalize (task : Nftask.t) =
      Engine.complete core task;
      load_new task

    (* Transition (Δ) + Fetch; returns [false] when the task reached the
       terminal state and was retired. *)
    and transition_and_fetch (task : Nftask.t) =
      let next = Engine.step core task.Nftask.cs task.Nftask.event in
      Exec_ctx.compute ctx ~cycles:cfg.Worker.fetch_cycles ~instrs:cfg.Worker.fetch_instrs;
      if Program.is_done program next then finalize task
      else begin
        task.Nftask.cs <- next;
        fetch task;
        true
      end

    and load_new (task : Nftask.t) =
      match next_item () with
      | None -> false
      | Some item ->
          Engine.load core task item;
          if Engine.faulted task then
            (* Quarantined at load: finalise without executing anything (the
               flow is serialised, so completion order is kept). *)
            ignore (finalize task)
          else
            (* Initial transition and fetching (Algorithm 1 line 4), driven
               by the "packet" system event. *)
            ignore (transition_and_fetch task);
          task.Nftask.active
    in

    (* One scheduler visit (one iteration of Algorithm 1's inner loop). *)
    let visit (task : Nftask.t) =
      if not task.Nftask.active then ignore (load_new task)
      else begin
        (match Engine.trace core with
        | Some tr -> Trace.set_task tr ~task:task.Nftask.id
        | None -> ());
        let ready_to_run =
          match task.Nftask.p_state with
          | Nftask.P_ready -> true
          | Nftask.P_none | Nftask.P_issued ->
              all_ready ctx task 0
              || begin
                   (* Fills dropped (MSHR full) or lines evicted before use:
                      re-issue; resident/pending lines are skipped inside
                      the hierarchy, so this is cheap and idempotent. *)
                   issue ctx task;
                   false
                 end
        in
        if ready_to_run then begin
          Engine.execute core task task.Nftask.cs;
          if Engine.faulted task then ignore (finalize task)
          else ignore (transition_and_fetch task)
        end
      end
    in

    let any_active () = Array.exists (fun t -> t.Nftask.active) tasks in
    let idx = ref 0 in
    (* Ready_first: advance to the next runnable (or inactive, to refill)
       task, charging one cycle per skipped slot for the scan. Falls back to
       plain round-robin when nothing is ready. *)
    let advance () =
      match policy with
      | Round_robin -> idx := (!idx + 1) mod n_tasks
      | Ready_first ->
          (* An idle slot is only worth visiting when it can actually load
             work; otherwise the scan would keep picking no-op idle slots
             over a waiting task whose dropped prefetch (MSHR starvation)
             needs a re-issuing visit — during the drain phase that task
             would never be visited again and the loop would spin forever. *)
          let refillable = (not (!exhausted || !paused)) || any_idle_flow tasks !stash in
          let start = (!idx + 1) mod n_tasks in
          idx := ready_first ctx tasks ~refillable ~start start 0
    in
    Engine.drive core
      (fun () () ->
        let continue_run = ref true in
        while !continue_run do
          let visited = tasks.(!idx).Nftask.id in
          visit tasks.(!idx);
          let switch_start = ctx.Exec_ctx.clock in
          Exec_ctx.compute ctx ~cycles:cfg.Worker.switch_cycles
            ~instrs:cfg.Worker.switch_instrs;
          Engine.count_switch core;
          (match Engine.trace core with
          | Some tr ->
              Trace.on_switch tr ~ts:switch_start ~dur:cfg.Worker.switch_cycles
                ~task:visited;
              Trace.on_occupancy tr ~ts:ctx.Exec_ctx.clock
                ~active:
                  (Array.fold_left
                     (fun acc t -> if t.Nftask.active then acc + 1 else acc)
                     0 tasks)
                ~mshr:
                  (Memsim.Hierarchy.mshr_pending_count ctx.Exec_ctx.mem
                     ~now:ctx.Exec_ctx.clock)
          | None -> ());
          advance ();
          if (!exhausted || !paused) && !stash = [] && not (any_active ()) then
            continue_run := false
        done)
      () ()

let run ?(policy = Round_robin) ?(prefetch_distance = 1) ?telemetry ?on_complete worker
    program ~n_tasks source =
  let core =
    Engine.create ~name:"Scheduler" ~kind:(Printf.sprintf "interleaved-%d" n_tasks)
      ?telemetry ?on_complete worker program
  in
  loop ~policy ~prefetch_distance ~n_tasks core source;
  Engine.finish core
