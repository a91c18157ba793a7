(* Figure 9(b): maximum context switches per second on one core — NFTask
   (the paper's lightweight execution environment) vs kernel threads.

   Both sides are measured for real, in-process, with bechamel wall-clock
   timing:
   - NFTask: the interleaved scheduler multiplexing 16 NFTasks over a
     trivial one-action NF; switches/second = observed task switches per
     wall second of the scheduler loop.
   - pthread: OS threads (OCaml Thread, 1:1 on pthreads) forced to
     alternate with Thread.yield.

   The absolute numbers are host-dependent; the relationship — NFTask
   switching orders of magnitude cheaper than thread switching — is the
   figure's claim. *)

open Gunfu
open Bechamel
open Toolkit

let trivial_program () =
  let spec =
    Spec.module_spec_of_string
      "module: noop\ncategory: StatefulNF\ntransitions:\n- Start,packet->work\n- work,packet->End\n"
  in
  let action =
    Action.make ~base_cycles:1 ~base_instrs:1 ~name:"noop" (fun _ _ -> Event.Packet_arrival)
  in
  let inst =
    {
      Compiler.i_name = "noop";
      i_spec = spec;
      i_actions = [ ("work", action) ];
      i_bindings = [];
      i_key_kind = None;
    }
  in
  Bench_common.prep
    (Compiler.compile ~name:"noop" [ inst ]
       {
         Spec.n_name = "noop";
         n_modules = [ ("noop", "noop") ];
         n_transitions = [ { Spec.src = "noop"; event = "packet"; dst = Spec.end_state } ];
       })

let packets_per_run = 20_000

let scheduler_pass () =
  let worker = Worker.create ~id:0 () in
  let program = trivial_program () in
  let source =
    Workload.limited packets_per_run (fun () ->
        { Workload.packet = None; aux = 0; flow_hint = -1 })
  in
  Exec.run (Exec.il 16) worker program source

(* Count how many NFTask switches one pass performs (deterministic). *)
let switches_per_pass = lazy (scheduler_pass ()).Metrics.switches

(* The NFTask context switch itself: advance the round-robin cursor and
   touch the next task's scheduling state (Fig 9a's struct). This is the
   whole cost — no kernel, no register file, no stack switch. *)
let switch_tasks = Array.init 16 Nftask.create

let switches_per_op = 1024

let nftask_switch_pass =
  let idx = ref 0 in
  fun () ->
    for _ = 1 to switches_per_op do
      idx := (!idx + 1) land 15;
      let task = switch_tasks.(!idx) in
      task.Nftask.p_state <-
        (match task.Nftask.p_state with
        | Nftask.P_none -> Nftask.P_issued
        | Nftask.P_issued -> Nftask.P_ready
        | Nftask.P_ready -> Nftask.P_none);
      task.Nftask.cs <- task.Nftask.cs + 1
    done

let yields_per_run = 20_000

let thread_pass () =
  let stop = ref false in
  let companion = Thread.create (fun () -> while not !stop do Thread.yield () done) () in
  for _ = 1 to yields_per_run do
    Thread.yield ()
  done;
  stop := true;
  Thread.join companion

(* ns per single execution of [f], measured by bechamel's OLS fit. *)
let time_ns name f =
  let test = Test.make ~name (Staged.stage f) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | [ est ] -> (
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> ns
      | _ -> Float.nan)
  | _ -> Float.nan

let run () =
  Bench_common.header "Fig 9(b): context switches per second, NFTask vs pthread";
  let switch_ns = time_ns "nftask-switch" nftask_switch_pass /. float_of_int switches_per_op in
  let nftask_rate = 1.0 /. (switch_ns *. 1e-9) in
  let thread_ns = time_ns "thread" thread_pass in
  let thread_rate = float_of_int yields_per_run /. (thread_ns *. 1e-9) in
  Bench_common.row "%-30s %12.2e switches/s  (%.1f ns/switch)"
    "NFTask (struct swap, 16 tasks)" nftask_rate switch_ns;
  Bench_common.row "%-30s %12.2e switches/s  (%.1f ns/yield)" "pthread (Thread.yield)"
    thread_rate
    (thread_ns /. float_of_int yields_per_run);
  Bench_common.row "ratio: NFTask switching is %.0fx faster (paper Fig 9: orders of magnitude)"
    (nftask_rate /. thread_rate);
  Bench_common.record_metrics ~fig:"fig9"
    ~title:"NFTask vs pthread context switches" ~series:"nftask" ~x:0.0
    [ ("switches_per_s", nftask_rate); ("ns_per_switch", switch_ns) ];
  Bench_common.record_metrics ~fig:"fig9"
    ~title:"NFTask vs pthread context switches" ~series:"pthread" ~x:0.0
    [
      ("switches_per_s", thread_rate);
      ("ns_per_switch", thread_ns /. float_of_int yields_per_run);
    ];
  (* Secondary: wall-clock rate of the full simulated scheduler loop (the
     simulator does cache bookkeeping per visit, so this is a lower bound on
     nothing — just reported for context). *)
  let sched_ns = time_ns "scheduler-pass" scheduler_pass in
  let switches = Lazy.force switches_per_pass in
  Bench_common.row "(simulator loop processes %.2e visits/s wall-clock)"
    (float_of_int switches /. (sched_ns *. 1e-9))
