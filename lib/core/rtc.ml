(* The per-packet run-to-completion baseline (§II-B): the execution model of
   BESS / FastClick / L25GC / Free5GC that the paper compares against.

   Each packet is processed start-to-finish with no yielding: every state
   access demand-fetches and the core stalls for the full latency of
   whatever level serves it. The same compiled {!Program} is executed —
   only the execution model differs — so comparisons isolate exactly the
   paper's variable. Prefetch policies are ignored. *)

(* Per-session state, built once: the engine core and the one task every
   packet reuses. *)
type session = {
  core : Engine.t;
  ctx : Exec_ctx.t;
  program : Program.t;
  dispatch_cycles : int;
  task : Nftask.t;
}

let session ?label ?quiesce ?fault ?telemetry ?on_complete (worker : Worker.t)
    (program : Program.t) =
  let core =
    Engine.create ~name:"Rtc" ~kind:"rtc" ?label ?quiesce ?fault ?telemetry
      ?on_complete worker program
  in
  {
    core;
    ctx = Worker.ctx worker;
    program;
    dispatch_cycles = worker.Worker.cfg.Worker.rtc_dispatch_cycles;
    task = Nftask.create 0;
  }

(* Drive the loaded task to the terminal state, or until it faults
   (quarantined mid-run; stop executing). *)
let rec step s =
  let task = s.task in
  if not (Engine.faulted task) then begin
    let next = Engine.step s.core task.Nftask.cs task.Nftask.event in
    if not (Program.is_done s.program next) then begin
      task.Nftask.cs <- next;
      Exec_ctx.compute s.ctx ~cycles:s.dispatch_cycles ~instrs:2;
      Engine.execute s.core task next;
      step s
    end
  end

(* Every RTC pull boundary is quiescent (the previous packet completed),
   so the pause hook simply stops the drain; a hook that never answers
   [true] leaves the run byte-identical to one without it. *)
let rec drain s (source : Workload.source) =
  if not (Engine.want_pause s.core) then
    match source () with
    | None -> ()
    | Some item ->
        Engine.load s.core s.task item;
        step s;
        Engine.complete s.core s.task;
        drain s source

let feed s source = Engine.drive s.core (fun () -> drain s source)
let close s = Engine.finish s.core

let run ?label ?quiesce ?fault ?telemetry ?on_complete worker program source =
  let s = session ?label ?quiesce ?fault ?telemetry ?on_complete worker program in
  feed s source;
  close s
