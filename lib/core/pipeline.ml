(* The pipeline execution model (related work, §VIII "More on Execution
   Model"): the SFC's modules are placed on different cores connected by
   software queues; within each stage, processing is still per-packet RTC.

   Simulated faithfully enough for the comparison the paper draws: every
   packet pays an inter-stage handoff (queue operations plus pulling the
   packet descriptor/header from the upstream core's cache — a cross-core
   transfer charged at LLC-ish latency), and each stage's state is private
   to its core. Steady-state throughput is set by the slowest stage, so the
   merged run takes the bottleneck stage's cycles. *)

(* Queue enqueue+dequeue instruction cost per hop. *)
let queue_cycles = 24
let queue_instrs = 18

(* Cross-core cache-line transfer for the packet descriptor + first header
   line (the home cache holds it modified). *)
let transfer_cycles = 55

let run ?(label = "pipeline") (stages : (Worker.t * Program.t) list)
    (source : Workload.source) =
  if stages = [] then invalid_arg "Pipeline.run: no stages";
  let task = Nftask.create 0 in
  (* Drain one stage under RTC, returning survivors in order. *)
  let run_stage (worker, program) (items : Workload.item list) ~first_stage =
    let ctx = Worker.ctx worker in
    let cfg = worker.Worker.cfg in
    let survivors = ref [] in
    List.iter
      (fun (item : Workload.item) ->
        (* RX from the NIC for stage 0; queue + cross-core pull otherwise. *)
        if first_stage then
          Exec_ctx.compute ctx ~cycles:cfg.Worker.rx_tx_cycles
            ~instrs:cfg.Worker.rx_tx_instrs
        else
          Exec_ctx.compute ctx ~cycles:(queue_cycles + transfer_cycles)
            ~instrs:queue_instrs;
        Nftask.load task ~cs:(Program.start program) ~packet:item.Workload.packet
          ~aux:item.Workload.aux ~flow_hint:item.Workload.flow_hint;
        let rec go () =
          let next = Program.step program task.Nftask.cs task.Nftask.event in
          if Program.is_done program next then begin
            let dropped =
              Event.equal task.Nftask.event Event.Drop_packet
              || Event.equal task.Nftask.event Event.Match_fail
            in
            if not dropped then survivors := item :: !survivors
          end
          else begin
            task.Nftask.cs <- next;
            Exec_ctx.compute ctx ~cycles:cfg.Worker.rtc_dispatch_cycles ~instrs:2;
            (match (Program.info program next).Program.action with
            | Some action -> task.Nftask.event <- Action.execute action ctx task
            | None -> invalid_arg "Pipeline: control state without action");
            go ()
          end
        in
        go ();
        Nftask.retire task)
      items;
    List.rev !survivors
  in
  let rec drain acc =
    match source () with
    | None -> List.rev acc
    | Some item -> drain (item :: acc)
  in
  let items = drain [] in
  let n_in = List.length items in
  let snaps = List.map (fun (w, _) -> (w, Worker.snapshot w)) stages in
  let survivors =
    List.fold_left
      (fun (items, first_stage) stage -> (run_stage stage items ~first_stage, false))
      (items, true) stages
    |> fst
  in
  let out_bytes =
    List.fold_left
      (fun acc (i : Workload.item) ->
        match i.Workload.packet with
        | Some p -> acc + p.Netcore.Packet.wire_len
        | None -> acc)
      0 survivors
  in
  let stage_runs =
    List.mapi
      (fun i (w, snap) ->
        Worker.finish w snap ~label ~packets:n_in ~drops:0
          ~wire_bytes:(if i = 0 then out_bytes else 0)
          ~switches:0)
      snaps
  in
  (* Steady state: stages overlap; the bottleneck stage sets the rate. *)
  let bottleneck =
    List.fold_left (fun acc r -> max acc r.Metrics.cycles) 0 stage_runs
  in
  let merged = Metrics.merge_parallel stage_runs in
  {
    merged with
    Metrics.label;
    cycles = bottleneck;
    packets = n_in;
    drops = n_in - List.length survivors;
  }
