(* Service function chain LB -> NAT -> NM -> FW, showing what the GuNFu
   compiler does with visibility: the flattened control-logic FSM, the
   prefetch policy after redundant-prefetch removal, and the effect of
   data packing + redundant-matching removal on throughput.

     dune exec examples/sfc_chain.exe
*)

let n_flows = 131072
let packets = 80_000
let length = 4

let build ~packed ~opts =
  let worker = Gunfu.Worker.create ~id:0 () in
  let layout = Gunfu.Worker.layout worker in
  let gen =
    Traffic.Flowgen.create ~seed:5 ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let sfc = Nfs.Sfc.create layout ~length ~packed ~n_flows () in
  Nfs.Sfc.populate sfc (Traffic.Flowgen.flows gen);
  let program = Nfs.Sfc.program ~opts sfc in
  let source = Gunfu.Workload.of_flowgen gen ~pool ~count:packets in
  (worker, program, source)

let () =
  Printf.printf "SFC of length %d (LB -> NAT -> NM -> FW), %d flows\n\n" length n_flows;

  (* Show the compiled control-logic FSM once, with match removal, so the
     pruning is visible. *)
  let _, program_mr, _ =
    build ~packed:true ~opts:{ Gunfu.Compiler.default_opts with Gunfu.Compiler.match_removal = true }
  in
  Printf.printf "compiled program after redundant-matching removal:\n%s\n"
    (Fmt.str "%a" Gunfu.Program.pp program_mr);

  let cases =
    [
      ("RTC baseline", `Rtc, false, Gunfu.Compiler.default_opts);
      ("interleaved x16", Gunfu.Exec.il 16, false, Gunfu.Compiler.default_opts);
      ("interleaved + DP", Gunfu.Exec.il 16, true, Gunfu.Compiler.default_opts);
      ( "interleaved + DP + MR",
        Gunfu.Exec.il 16,
        true,
        { Gunfu.Compiler.default_opts with Gunfu.Compiler.match_removal = true } );
    ]
  in
  let baseline = ref 0.0 in
  List.iter
    (fun (label, model, packed, opts) ->
      let worker, program, source = build ~packed ~opts in
      let run = Gunfu.Exec.run ~label model worker program source in
      let mpps = Gunfu.Metrics.mpps run in
      if !baseline = 0.0 then baseline := mpps;
      Printf.printf "%-24s %6.2f Mpps  IPC %.2f  (%.2fx vs RTC)\n" label mpps
        (Gunfu.Metrics.ipc run) (mpps /. !baseline))
    cases
