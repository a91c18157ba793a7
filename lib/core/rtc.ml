(* The per-packet run-to-completion baseline (§II-B): the execution model of
   BESS / FastClick / L25GC / Free5GC that the paper compares against.

   Each packet is processed start-to-finish with no yielding: every state
   access demand-fetches and the core stalls for the full latency of
   whatever level serves it. The same compiled {!Program} is executed —
   only the execution model differs — so comparisons isolate exactly the
   paper's variable. Prefetch policies are ignored. *)

let run ?label ?quiesce ?fault ?telemetry ?on_complete (worker : Worker.t)
    (program : Program.t) (source : Workload.source) =
  let core =
    Engine.create ~name:"Rtc" ~kind:"rtc" ?label ?quiesce ?fault ?telemetry
      ?on_complete worker program
  in
  let ctx = Worker.ctx worker in
  let dispatch_cycles = worker.Worker.cfg.Worker.rtc_dispatch_cycles in
  let task = Nftask.create 0 in
  (* Drive the loaded task to the terminal state, or until it faults
     (quarantined mid-run; stop executing). *)
  let rec step () =
    if not (Engine.faulted task) then begin
      let next = Engine.step core task.Nftask.cs task.Nftask.event in
      if not (Program.is_done program next) then begin
        task.Nftask.cs <- next;
        Exec_ctx.compute ctx ~cycles:dispatch_cycles ~instrs:2;
        Engine.execute core task next;
        step ()
      end
    end
  in
  (* Every RTC pull boundary is quiescent (the previous packet completed),
     so the pause hook simply stops the drain; a hook that never answers
     [true] leaves the run byte-identical to one without it. *)
  let rec drain () =
    if not (Engine.want_pause core) then
      match source () with
      | None -> ()
      | Some item ->
          Engine.load core task item;
          step ();
          Engine.complete core task;
          drain ()
  in
  Engine.run core drain
