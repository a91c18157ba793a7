(* The engine session shared by Rtc, Batch_rtc and Scheduler: everything
   an execution model does that is not scheduling. Exec opens one per run
   (or per session, which several feeds drive in turn) and each executor
   is only its loop over it. Hooks are matched directly (no per-call
   closures), so the core adds no per-packet allocation. *)

type t = {
  ctx : Exec_ctx.t;
  cfg : Worker.cfg;
  program : Program.t;
  trace : Trace.t option;
  quiesce : (unit -> bool) option;
  mutable switches : int;
  name : string;
  label : string;
  worker : Worker.t;
  snap : Worker.snapshot;
  plane : Fault.t;
  on_complete : (Nftask.t -> unit) option;
  spec : Specialize.t option;
  runners : (Exec_ctx.t -> Nftask.t -> Event.t) array option;
  latencies : Metrics.Collector.t;
  mutable packets : int;
  mutable drops : int;
  mutable wire_bytes : int;
  mutable faulted : int;
}

let no_action name q = Printf.sprintf "%s: control state %s has no action" name q

let create ~name ~kind ?label ?quiesce ?fault ?telemetry ?on_complete
    (worker : Worker.t) (program : Program.t) =
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s/%s" (Program.name program) kind
  in
  let ctx = Worker.ctx worker in
  let snap = Worker.snapshot worker in
  let plane = match fault with Some p -> p | None -> Fault.create () in
  (* Specialized hot path, when the compiler attached one: dense Δ dispatch
     always; fused action runners only while untraced — a traced run keeps
     the interpreted action body so span hooks and error ordering are
     untouched (the runner is guard-equivalent either way, so observations
     match regardless). *)
  let spec = Specialize.get program in
  let runners =
    match (spec, telemetry) with
    | Some sp, None -> Some (Specialize.runners sp plane ~err:(no_action name))
    | _ -> None
  in
  {
    ctx;
    cfg = worker.Worker.cfg;
    program;
    trace = telemetry;
    quiesce;
    switches = 0;
    name;
    label;
    worker;
    snap;
    plane;
    on_complete;
    spec;
    runners;
    latencies = Metrics.Collector.create ();
    packets = 0;
    drops = 0;
    wire_bytes = 0;
    faulted = 0;
  }

let want_pause t = match t.quiesce with Some q -> q () | None -> false
let trace t = t.trace
let count_switch t = t.switches <- t.switches + 1

let step t cs ev =
  match t.spec with
  | Some sp -> Specialize.step sp cs ev
  | None -> Program.step t.program cs ev

let has_action t cs = Option.is_some (Program.info t.program cs).Program.action
let faulted (task : Nftask.t) =
  match task.Nftask.event with Event.Faulted _ -> true | _ -> false

let load t (task : Nftask.t) (item : Workload.item) =
  let ctx = t.ctx in
  Nftask.load task ~cs:(Program.start t.program) ~packet:item.Workload.packet
    ~aux:item.Workload.aux ~flow_hint:item.Workload.flow_hint;
  task.Nftask.start_clock <- ctx.Exec_ctx.clock;
  Exec_ctx.compute ctx ~cycles:t.cfg.Worker.rx_tx_cycles ~instrs:t.cfg.Worker.rx_tx_instrs;
  (match t.trace with
  | Some tr ->
      Trace.on_pull tr ~ts:task.Nftask.start_clock ~dur:t.cfg.Worker.rx_tx_cycles
        ~task:task.Nftask.id ~flow:task.Nftask.flow_hint;
      Trace.on_parse tr ~ts:ctx.Exec_ctx.clock ~task:task.Nftask.id
  | None -> ());
  match Fault.on_load t.plane ~mem:ctx.Exec_ctx.mem ~now:ctx.Exec_ctx.clock task with
  | Some r -> task.Nftask.event <- Event.Faulted (Fault.reason_to_key r)
  | None -> ()

let execute t (task : Nftask.t) cs =
  match t.runners with
  | Some r -> task.Nftask.event <- r.(cs) t.ctx task
  | None -> (
      let info = Program.info t.program cs in
      match info.Program.action with
      | None -> invalid_arg (no_action t.name info.Program.qname)
      | Some action ->
          (match t.trace with
          | Some tr ->
              Trace.on_action_start tr ~ts:t.ctx.Exec_ctx.clock ~nf:info.Program.inst
                ~cs:info.Program.qname
          | None -> ());
          task.Nftask.event <- Fault.guard t.plane ~nf:info.Program.inst action t.ctx task;
          match t.trace with
          | Some tr -> Trace.on_action_end tr ~ts:t.ctx.Exec_ctx.clock
          | None -> ())

let complete t (task : Nftask.t) =
  let clock = t.ctx.Exec_ctx.clock in
  t.packets <- t.packets + 1;
  (match
     Fault.complete t.plane ~flow:task.Nftask.flow_hint
       ~faulted:(Fault.reason_of_event task.Nftask.event)
   with
  | Some r ->
      t.faulted <- t.faulted + 1;
      task.Nftask.event <- Event.Faulted (Fault.reason_to_key r)
  | None ->
      (* Explicit drops and failed matches both mean the packet is not
         forwarded. *)
      if
        Event.equal task.Nftask.event Event.Drop_packet
        || Event.equal task.Nftask.event Event.Match_fail
      then t.drops <- t.drops + 1
      else (
        match task.Nftask.packet with
        | Some p -> t.wire_bytes <- t.wire_bytes + p.Netcore.Packet.wire_len
        | None -> ());
      Metrics.Collector.record t.latencies (clock - task.Nftask.start_clock));
  (match t.trace with
  | Some tr ->
      Trace.on_complete tr ~ts:clock ~task:task.Nftask.id
        ~note:(Event.to_key task.Nftask.event)
        ~latency:(clock - task.Nftask.start_clock)
  | None -> ());
  (match t.on_complete with Some f -> f task | None -> ());
  Nftask.retire task

(* [loop] takes its arguments apart so that an untraced feed builds no
   closure. *)
let drive t loop s source =
  match t.trace with
  | None -> loop s source
  | Some tr ->
      Exec_ctx.attach_trace t.ctx tr;
      Fun.protect ~finally:(fun () -> Exec_ctx.detach_trace t.ctx) (fun () -> loop s source)

let finish t =
  Worker.finish
    ?latency:(Metrics.Collector.summarize t.latencies)
    ~faulted:t.faulted ~faults:(Fault.counts t.plane) ~degraded:(Fault.degraded t.plane)
    t.worker t.snap ~label:t.label ~packets:t.packets ~drops:t.drops
    ~wire_bytes:t.wire_bytes ~switches:t.switches

let ctx t = t.ctx
let cfg t = t.cfg
let program t = t.program
