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

(* Task-selection policy. The paper's scheduler is round-robin; Ready_first
   is a design-space variant that scans for a task whose P-state allows
   immediate execution, trading a (charged) scan for fewer wasted visits. *)
type policy = Round_robin | Ready_first

let run ?label ?(policy = Round_robin) ?(prefetch_distance = 1) ?quiesce ?fault
    ?telemetry ?on_complete (worker : Worker.t) (program : Program.t) ~n_tasks
    (source : Workload.source) =
  if n_tasks <= 0 then invalid_arg "Scheduler.run: n_tasks must be positive";
  if prefetch_distance < 0 then
    invalid_arg "Scheduler.run: prefetch_distance must be >= 0";
  let core =
    Engine.create ~name:"Scheduler" ~kind:(Printf.sprintf "interleaved-%d" n_tasks)
      ?label ?quiesce ?fault ?telemetry ?on_complete worker program
  in
  let ctx = Worker.ctx worker in
  let cfg = worker.Worker.cfg in
  let tasks = Array.init n_tasks Nftask.create in
  let exhausted = ref false in
  (* Quiescent-pause latch: once [quiesce] answers [true] at a pull
     boundary no further source pulls happen — in-flight tasks and the
     stash drain to completion and the run returns with every pulled item
     completed. A [quiesce] that never answers [true] leaves the run
     byte-identical to one without the hook. *)
  let paused = ref false in

  (* Per-flow ordering: two packets of one flow must not be in flight in
     two NFTasks at once (their state mutations would race and could
     complete out of order). Items whose flow is already being processed
     wait in [stash]; [inflight] counts active tasks per flow. *)
  let inflight : (int, int) Hashtbl.t = Hashtbl.create (4 * n_tasks) in
  let stash : Workload.item list ref = ref [] in
  let flow_of (item : Workload.item) = item.Workload.flow_hint in
  let mark_inflight fh =
    if fh >= 0 then
      Hashtbl.replace inflight fh (1 + Option.value ~default:0 (Hashtbl.find_opt inflight fh))
  in
  let clear_inflight fh =
    if fh >= 0 then
      match Hashtbl.find_opt inflight fh with
      | Some 1 -> Hashtbl.remove inflight fh
      | Some n -> Hashtbl.replace inflight fh (n - 1)
      | None -> ()
  in
  (* First stashed item whose flow is idle; earlier stash entries of the
     same flow are by construction in front, so taking the first match
     preserves per-flow FIFO order. *)
  let take_stashed () =
    let rec go acc = function
      | [] -> None
      | item :: rest ->
          if Hashtbl.mem inflight (flow_of item) then go (item :: acc) rest
          else begin
            stash := List.rev_append acc rest;
            Some item
          end
    in
    go [] !stash
  in
  let stashed_flow fh = List.exists (fun i -> flow_of i = fh) !stash in
  let next_item () =
    match take_stashed () with
    | Some item -> Some item
    | None ->
        if !exhausted || !paused then None
        else if Engine.want_pause core then begin
          paused := true;
          None
        end
        else
          let rec pull () =
            match source () with
            | None ->
                exhausted := true;
                None
            | Some item ->
                let fh = flow_of item in
                if fh >= 0 && (Hashtbl.mem inflight fh || stashed_flow fh) then begin
                  stash := !stash @ [ item ];
                  (* Keep pulling: another flow's packet can fill this task. *)
                  if List.length !stash < 4 * n_tasks then pull () else None
                end
                else Some item
          in
          pull ()
  in

  let issue_prefetches (task : Nftask.t) =
    List.iter
      (fun (addr, bytes) -> ignore (Exec_ctx.prefetch ctx ~addr ~bytes))
      task.Nftask.pending_blocks
  in

  (* Distance >= 2: also issue the resolvable targets of FSM successor
     states, breadth-first up to [prefetch_distance - 1] steps ahead.
     Fire-and-forget — readiness is still tracked only on the current
     state's blocks; targets that resolve differently once the real
     transition happens are mere cache pollution, and the issue cycles are
     charged like any other software prefetch. *)
  let speculate (task : Nftask.t) =
    let seen = Hashtbl.create 8 in
    let frontier = ref (Fsm.successors program.Program.fsm task.Nftask.cs) in
    let depth = ref 1 in
    while !depth < prefetch_distance && !frontier <> [] do
      let next = ref [] in
      List.iter
        (fun cs ->
          if
            (not (Hashtbl.mem seen cs))
            && (not (Program.is_done program cs))
            && cs <> task.Nftask.cs
          then begin
            Hashtbl.add seen cs ();
            let blocks =
              Prefetch.resolve_all (Program.info program cs).Program.prefetch task
            in
            List.iter
              (fun (addr, bytes) ->
                if not (List.mem (addr, bytes) task.Nftask.pending_blocks) then
                  ignore (Exec_ctx.prefetch ctx ~addr ~bytes))
              blocks;
            next := List.rev_append (Fsm.successors program.Program.fsm cs) !next
          end)
        !frontier;
      frontier := !next;
      incr depth
    done
  in

  (* Fetch (F): resolve the prefetch targets of the (new) current control
     state and issue their prefetches right away. Distance 0 issues
     nothing — the action demand-fetches ([P_ready] so the next visit
     executes immediately); distance 1 is the paper's policy. *)
  let fetch (task : Nftask.t) =
    let info = Program.info program task.Nftask.cs in
    let blocks = Prefetch.resolve_all info.Program.prefetch task in
    task.Nftask.pending_blocks <- blocks;
    if prefetch_distance = 0 then task.Nftask.p_state <- Nftask.P_ready
    else begin
      (if blocks = [] then task.Nftask.p_state <- Nftask.P_ready
       else begin
         issue_prefetches task;
         (* If everything is already resident (e.g. packed states fetched by
            an earlier NF of the chain), run on the next visit without
            waiting. *)
         task.Nftask.p_state <-
           (if List.for_all (fun (addr, bytes) -> Exec_ctx.ready ctx ~addr ~bytes) blocks
            then Nftask.P_ready
            else Nftask.P_issued)
       end);
      if prefetch_distance >= 2 then speculate task
    end
  in

  (* Finish one task: completion (poisoning disposition, accounting,
     oracle tap, retire), per-flow release, and immediate
     re-initialisation with fresh work (Algorithm 1 line 13). *)
  let rec finalize (task : Nftask.t) =
    let fh = task.Nftask.flow_hint in
    Engine.complete core task;
    clear_inflight fh;
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
        mark_inflight item.Workload.flow_hint;
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
            if
              List.for_all
                (fun (addr, bytes) -> Exec_ctx.ready ctx ~addr ~bytes)
                task.Nftask.pending_blocks
            then true
            else begin
              (* Fills dropped (MSHR full) or lines evicted before use:
                 re-issue; resident/pending lines are skipped inside the
                 hierarchy, so this is cheap and idempotent. *)
              issue_prefetches task;
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
        let refillable =
          lazy
            ((not (!exhausted || !paused))
            || List.exists (fun i -> not (Hashtbl.mem inflight (flow_of i))) !stash)
        in
        let runnable i =
          let t = tasks.(i) in
          if not t.Nftask.active then Lazy.force refillable
          else
            match t.Nftask.p_state with
            | Nftask.P_ready -> true
            | Nftask.P_none | Nftask.P_issued ->
                List.for_all
                  (fun (addr, bytes) -> Exec_ctx.ready ctx ~addr ~bytes)
                  t.Nftask.pending_blocks
        in
        let rec scan k skipped =
          if skipped = n_tasks then (!idx + 1) mod n_tasks
          else if runnable k then begin
            Exec_ctx.compute ctx ~cycles:skipped ~instrs:skipped;
            k
          end
          else scan ((k + 1) mod n_tasks) (skipped + 1)
        in
        idx := scan ((!idx + 1) mod n_tasks) 0
  in
  Engine.run core (fun () ->
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
