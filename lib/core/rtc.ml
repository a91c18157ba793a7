(* The per-packet run-to-completion baseline (§II-B): each packet runs
   start-to-finish with no yielding, every state access demand-fetching.
   Prefetch policies are ignored. *)

(* Per-session state, built once: the engine core and the one task every
   packet reuses. *)
type session = {
  core : Engine.t;
  ctx : Exec_ctx.t;
  program : Program.t;
  dispatch_cycles : int;
  task : Nftask.t;
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

let loop core =
  let s =
    {
      core;
      ctx = Engine.ctx core;
      program = Engine.program core;
      dispatch_cycles = (Engine.cfg core).Worker.rtc_dispatch_cycles;
      task = Nftask.create 0;
    }
  in
  fun source -> Engine.drive core drain s source

let run ?telemetry ?on_complete worker program source =
  let core = Engine.create ~name:"Rtc" ~kind:"rtc" ?telemetry ?on_complete worker program in
  loop core source;
  Engine.finish core
