(* Figure 11: granular decomposition for NAT — throughput and cache metrics
   vs the number of interleaved NFTasks, with the per-packet RTC baseline.
   NAT stands in for the small-per-flow-state family (LB, NM, FW). *)

open Bench_common

let task_counts = [ 1; 2; 4; 8; 16; 32; 64 ]

let run () =
  header "Fig 11: NAT on GuNFu - throughput and cache metrics vs NFTasks";
  row "%-8s %10s %10s %10s %10s %8s" "model" "Mpps" "speedup" "L1 m/pkt" "LLC m/pkt" "IPC";
  let baseline =
    let worker, program, source = nat_env () in
    measure worker program `Rtc source
  in
  let show label r =
    row "%-8s %10.2f %9.2fx %10.2f %10.2f %8.2f" label (Gunfu.Metrics.mpps r)
      (Gunfu.Metrics.mpps r /. Gunfu.Metrics.mpps baseline)
      (Gunfu.Metrics.l1_misses_per_packet r)
      (Gunfu.Metrics.llc_misses_per_packet r)
      (Gunfu.Metrics.ipc r)
  in
  show "RTC" baseline;
  (* x = NFTask count; the RTC baseline sits at x = 0. *)
  record ~fig:"fig11" ~title:"NAT granular decomposition" ~series:"RTC" ~x:0.0
    baseline;
  List.iter
    (fun n ->
      let worker, program, source = nat_env () in
      let r = measure worker program (Gunfu.Exec.il n) source in
      record ~fig:"fig11" ~title:"NAT granular decomposition" ~series:"IL"
        ~x:(float_of_int n) r;
      show (Printf.sprintf "IL-%d" n) r)
    task_counts;
  row "expected shape: IL-1 below RTC (scheduler overhead); benefits from 4 tasks;";
  row "optimum around 8-16; decline past 32 as prefetched lines contend (paper Fig 11)"
