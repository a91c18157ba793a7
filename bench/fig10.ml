(* Figure 10: single-core UPF improvement.
   (a) downlink throughput vs number of interleaved NFTasks, per PDR count,
       with the RTC baseline;
   (b)(c) L1/L2 cache behaviour and (d) IPC at 16 NFTasks vs number of
       second-level rules, against RTC. *)

open Bench_common

let task_counts = [ 1; 2; 4; 8; 16; 32; 64 ]
let rule_counts = [ 2; 8; 32; 128 ]

let run () =
  header "Fig 10(a): UPF downlink throughput vs interleaved NFTasks";
  row "%-8s %10s %10s %10s" "pdrs" "model" "Mpps" "speedup";
  List.iter
    (fun n_pdrs ->
      let baseline =
        let worker, program, source = upf_env ~n_pdrs () in
        measure worker program `Rtc source
      in
      row "%-8d %10s %10.2f %10s" n_pdrs "RTC" (Gunfu.Metrics.mpps baseline) "1.00x";
      (* x = NFTask count; the RTC baseline sits at x = 0. *)
      record ~fig:"fig10a" ~title:"UPF downlink throughput vs NFTasks"
        ~series:"RTC" ~x:0.0 baseline;
      List.iter
        (fun n ->
          let worker, program, source = upf_env ~n_pdrs () in
          let r = measure worker program (Gunfu.Exec.il n) source in
          record ~fig:"fig10a" ~title:"UPF downlink throughput vs NFTasks"
            ~series:"IL" ~x:(float_of_int n) r;
          row "%-8d %10s %10.2f %9.2fx" n_pdrs
            (Printf.sprintf "IL-%d" n)
            (Gunfu.Metrics.mpps r)
            (Gunfu.Metrics.mpps r /. Gunfu.Metrics.mpps baseline))
        task_counts)
    [ 16 ];
  row "expected shape: 1 NFTask < RTC; optimum around 8-32; mild decline at 64";

  header "Fig 10(b-d): cache behaviour and IPC at 16 NFTasks vs #rules";
  row "%-8s %-8s %10s %10s %10s %8s" "rules" "model" "L1 m/pkt" "L2 m/pkt" "LLC m/pkt" "IPC";
  List.iter
    (fun n_pdrs ->
      let show model =
        let worker, program, source = upf_env ~n_pdrs () in
        let r = measure worker program model source in
        record ~fig:"fig10b" ~title:"UPF cache behaviour and IPC vs rules"
          ~series:(legend model) ~x:(float_of_int n_pdrs) r;
        row "%-8d %-8s %10.2f %10.2f %10.2f %8.2f" n_pdrs (legend model)
          (Gunfu.Metrics.l1_misses_per_packet r)
          (Gunfu.Metrics.l2_misses_per_packet r)
          (Gunfu.Metrics.llc_misses_per_packet r)
          (Gunfu.Metrics.ipc r)
      in
      show `Rtc;
      show (Gunfu.Exec.il 16))
    rule_counts;
  row "expected shape: RTC misses/pkt grow with rules; interleaved stays flat and";
  row "keeps IPC high (paper Fig 10b-d)"
