(* The closed loop.

   The driver multiplexes one source across a chain of engine legs. Inside
   a leg it taps every pull (window bookkeeping) and polls the engine's
   [?quiesce] hook: when a window closes, the policy reads the signals and
   either holds (the leg continues, untouched) or proposes a move — then
   the hook answers [true], the engine stops pulling and drains every
   in-flight task and stashed item, and the driver starts the next leg
   under the new configuration. Reconfiguration is therefore only ever
   observable as "the source kept feeding a differently-shaped executor":
   per-flow order, emits and state are exactly what a static run over the
   same stream would produce at each leg, and a run with no move is ONE
   uninterrupted engine call — byte-identical to an uncontrolled run.

   The SCR hand-off reuses the PR 8/9 snapshot surface: quiescent export
   of the single-core state into full per-core replicas, sprayed chunks
   through Scr.run (chunk boundaries end with a convergence barrier, so
   they are quiescent too), and a fold of replica state back into the
   single-core instance on return. *)

open Gunfu

type scr_surface = {
  ss_cores : int;
  ss_universe : int;
  ss_engine : Exec.flow_free;
  ss_spray : Scaleout.Spray.policy;
  ss_spawn : unit -> Scaleout.Scr.replica array;
  ss_collect : Scaleout.Scr.replica array -> unit;
}

type plant = {
  pl_worker : Worker.t;
  pl_program : Program.t;
  pl_source : Workload.source;
  pl_plane : Fault.t;
  pl_scr : scr_surface option;
}

type decision = {
  d_index : int;
  d_cycles : int;
  d_pulled : int;
  d_completed : int;
  d_signals : Window.signals;
  d_move : Policy.move option;
  d_from : Config.t;
  d_to : Config.t;
  d_quiescent : bool;
}

let pp_decision ppf d =
  Fmt.pf ppf "#%d @%d %s->%s %s [%a]%s" d.d_index d.d_cycles
    (Config.label d.d_from) (Config.label d.d_to)
    (match d.d_move with Some m -> Policy.move_label m | None -> "hold")
    Window.pp_signals d.d_signals
    (if d.d_move <> None && not d.d_quiescent then " NOT-QUIESCENT" else "")

type outcome = {
  o_run : Metrics.run;
  o_legs : Metrics.run list;
  o_decisions : decision list;
  o_moves : int;
  o_final : Config.t;
  o_trace : Trace.t;
}

let run ?(epoch = 2048) ?label ?telemetry ?on_complete ~policy plant =
  if epoch <= 0 then invalid_arg "Driver.run: epoch must be positive";
  let trace = match telemetry with Some t -> t | None -> Trace.create () in
  let ctx = Worker.ctx plant.pl_worker in
  let cores = match plant.pl_scr with Some s -> s.ss_cores | None -> 4 in
  let w =
    Window.create ~freq_ghz:plant.pl_worker.Worker.cfg.Worker.freq_ghz ~cores trace
  in
  let pulled = ref 0 in
  let completed = ref 0 in
  let exhausted = ref false in
  let src () =
    match plant.pl_source () with
    | None ->
        exhausted := true;
        None
    | Some item ->
        incr pulled;
        Window.observe w item;
        Some item
  in
  let complete_cb task =
    incr completed;
    match on_complete with Some f -> f task | None -> ()
  in
  let base_cycles = ref 0 in
  let leg_start = ref ctx.Exec_ctx.clock in
  let cycles_now () = !base_cycles + (ctx.Exec_ctx.clock - !leg_start) in
  let fault_totals () =
    List.fold_left
      (fun (tot, st) (_, r, n) ->
        (tot + n, if r = Fault.Mshr_stall then st + n else st))
      (0, 0)
      (Fault.counts plant.pl_plane)
  in
  let cut_window ~cycles =
    let faults, stalls = fault_totals () in
    Window.cut w ~cycles ~completes:!completed ~faults ~stalls
  in
  let decisions = ref [] in
  let legs = ref [] in
  let moves = ref 0 in
  let window_start = ref 0 in
  (* Set when the policy proposed a move: the engine is draining towards
     the quiescent boundary where it will be applied. *)
  let pending = ref None in
  let finished = ref false in
  let decide_at ~cycles ~quiescent_now =
    let s = cut_window ~cycles in
    window_start := !pulled;
    let from = Policy.config policy in
    let mv = Policy.decide policy s in
    let d =
      {
        d_index = s.Window.w_index;
        d_cycles = cycles;
        d_pulled = !pulled;
        d_completed = !completed;
        d_signals = s;
        d_move = mv;
        d_from = from;
        d_to = Policy.config policy;
        d_quiescent = quiescent_now;
      }
    in
    (d, mv)
  in
  let record d note =
    Trace.on_decision trace ~ts:ctx.Exec_ctx.clock ~note;
    decisions := d :: !decisions
  in
  let quiesce () =
    if !pulled - !window_start < epoch then false
    else begin
      let d, mv = decide_at ~cycles:(cycles_now ()) ~quiescent_now:(!completed = !pulled) in
      match mv with
      | None ->
          record d "hold";
          false
      | Some _ ->
          pending := Some d;
          true
    end
  in
  let run_scr surface =
    (* Quiescent entry: every pulled item has completed, so the export the
       replicas are seeded from is a consistent snapshot. *)
    let replicas = surface.ss_spawn () in
    let in_scr = ref true in
    while !in_scr do
      let chunk = ref [] in
      let n = ref 0 in
      let rec fill () =
        if !n < epoch then
          match src () with
          | None -> ()
          | Some item ->
              chunk := item :: !chunk;
              incr n;
              fill ()
      in
      fill ();
      let items = List.rev !chunk in
      if items = [] then begin
        surface.ss_collect replicas;
        finished := true;
        in_scr := false
      end
      else begin
        let slots = Scaleout.Spray.assign surface.ss_spray ~cores:surface.ss_cores items in
        let res =
          Scaleout.Scr.run ~engine:surface.ss_engine ~replicas ~slots
            ~universe:surface.ss_universe ~digest:false
            ~on_complete:(fun ~core:_ ~g:_ ~seq:_ task -> complete_cb task)
            items
        in
        base_cycles := !base_cycles + res.Scaleout.Scr.sr_merged.Metrics.cycles;
        legs :=
          { res.Scaleout.Scr.sr_merged with Metrics.label = Config.label (Policy.config policy) }
          :: !legs;
        (* Chunk boundaries end with the convergence barrier: quiescent. *)
        window_start := !pulled;
        let d, mv = decide_at ~cycles:(cycles_now ()) ~quiescent_now:true in
        (match mv with
        | None -> record d "hold"
        | Some m ->
            incr moves;
            record d (Policy.move_label m);
            if Config.single_core (Policy.config policy) then begin
              surface.ss_collect replicas;
              in_scr := false
            end);
        if !exhausted && !in_scr then begin
          surface.ss_collect replicas;
          finished := true;
          in_scr := false
        end
      end
    done
  in
  while not !finished do
    match Policy.config policy with
    | `Scr _ -> (
        match plant.pl_scr with
        | None -> invalid_arg "Driver.run: policy proposed SCR without a surface"
        | Some surface -> run_scr surface)
    | #Exec.t as e -> (
        leg_start := ctx.Exec_ctx.clock;
        let r =
          Exec.run ~label:(Exec.label e) ~quiesce ~fault:plant.pl_plane ~telemetry:trace
            ~on_complete:complete_cb e plant.pl_worker plant.pl_program src
        in
        base_cycles := !base_cycles + r.Metrics.cycles;
        leg_start := ctx.Exec_ctx.clock;
        if r.Metrics.packets > 0 || !legs = [] then legs := r :: !legs;
        match !pending with
        | Some d ->
            pending := None;
            incr moves;
            let d =
              { d with d_completed = !completed; d_quiescent = !completed = d.d_pulled }
            in
            record d
              (match d.d_move with Some m -> Policy.move_label m | None -> "hold")
        | None -> finished := true)
  done;
  let legs = List.rev !legs in
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s/adaptive" (Program.name plant.pl_program)
  in
  {
    o_run = Metrics.merge_sequential ~label ~faults:(Fault.counts plant.pl_plane) legs;
    o_legs = legs;
    o_decisions = List.rev !decisions;
    o_moves = !moves;
    o_final = Policy.config policy;
    o_trace = trace;
  }
