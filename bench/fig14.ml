(* Figure 14: SFC (length 6, 130k flows) scalability across cores and
   packet sizes, with a BESS-like RTC reference. GuNFu runs with all
   optimisations (interleaving + DP + MR); throughput is capped at the
   100 Gbps line rate. *)

open Bench_common

let cores_list = [ 1; 2; 4; 8; 12; 16 ]
let packets_per_core = 20_000
let n_flows_total = 131_072

type size_case = Fixed of int | Caida

let size_cases = [ Fixed 64; Fixed 512; Fixed 1024; Fixed 1512; Caida ]

let size_name = function Fixed n -> string_of_int n | Caida -> "CAIDA"

let build_core ~mr ~packed ~size ~cores worker core =
  let layout = Gunfu.Worker.layout worker in
  let n_flows = max 1024 (n_flows_total / cores) in
  let gen =
    match size with
    | Fixed n ->
        Traffic.Flowgen.create ~seed:(40 + core) ~n_flows
          ~size_model:(Traffic.Flowgen.Fixed n) ()
    | Caida -> Traffic.Caida.create ~seed:(40 + core) ~n_flows ()
  in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let sfc = Nfs.Sfc.create layout ~length:6 ~packed ~n_flows () in
  Nfs.Sfc.populate sfc (Traffic.Flowgen.flows gen);
  let opts = { Gunfu.Compiler.default_opts with Gunfu.Compiler.match_removal = mr } in
  ( Nfs.Sfc.program ~opts sfc,
    Traffic.Flowgen.flows gen,
    Gunfu.Workload.of_flowgen gen ~pool ~count:packets_per_core )

let gbps ~cores ~mr ~packed ~size model =
  let platform = Gunfu.Platform.create ~cores () in
  let setup w core =
    let program, _, source = build_core ~mr ~packed ~size ~cores w core in
    (program, source)
  in
  let runs = Gunfu.Platform.run platform ~setup ~execute:(Gunfu.Exec.run model) in
  (* Cores run concurrently: aggregate = per-core mean rate x cores, capped
     at line rate. *)
  let per_core =
    List.fold_left (fun acc r -> acc +. Gunfu.Metrics.gbps r) 0.0 runs
    /. float_of_int cores
  in
  Float.min 100.0 (per_core *. float_of_int cores)

let run () =
  header "Fig 14: SFC length 6, 130k flows - multicore scalability (Gbps, 100G line)";
  row "%-8s %8s %8s %8s %8s %8s" "cores" "64B" "512B" "1024B" "1512B" "CAIDA";
  List.iter
    (fun cores ->
      let cells =
        List.map
          (fun size ->
            let v = gbps ~cores ~mr:true ~packed:true ~size (Gunfu.Exec.il 16) in
            record_metrics ~fig:"fig14" ~title:"SFC multicore scalability"
              ~series:(size_name size) ~x:(float_of_int cores)
              [ ("gbps", v) ];
            v)
          size_cases
      in
      (match cells with
      | [ a; b; c; d; e ] -> row "%-8d %8.1f %8.1f %8.1f %8.1f %8.1f" cores a b c d e
      | _ -> assert false))
    cores_list;
  (* BESS-like reference: the same chain under per-packet RTC at 16 cores. *)
  let ref_cells =
    List.map
      (fun size ->
        let v = gbps ~cores:16 ~mr:false ~packed:false ~size `Rtc in
        record_metrics ~fig:"fig14" ~title:"SFC multicore scalability"
          ~series:(Printf.sprintf "BESS@16-%s" (size_name size))
          ~x:16.0 [ ("gbps", v) ];
        v)
      size_cases
  in
  (match ref_cells with
  | [ a; b; c; d; e ] ->
      row "%-8s %8.1f %8.1f %8.1f %8.1f %8.1f" "BESS@16" a b c d e
  | _ -> assert false);
  row "expected shape: near-linear scaling to line rate; RTC reference far below";
  row "(paper Fig 14: BESS reaches only ~18-20 Gbps on the length-6 chain)"
