(* Figure 2 (EXP A): impact of growing concurrency on per-packet RTC UPF.
   Sweeps the number of PFCP sessions and PDRs per session; throughput
   degrades as flow tables and per-flow state fall out of L1/L2. *)

open Bench_common

let session_counts = [ 1_024; 8_192; 32_768; 131_072 ]
let pdr_counts = [ 2; 16; 128 ]

let run () =
  header "Fig 2: UPF under per-packet RTC - concurrency vs throughput";
  row "%-10s %-8s %10s %12s %10s %10s" "sessions" "pdrs" "Mpps" "cyc/pkt" "L1m/pkt" "LLCm/pkt";
  List.iter
    (fun n_sessions ->
      List.iter
        (fun n_pdrs ->
          let worker, program, source = upf_env ~n_sessions ~n_pdrs () in
          let r = measure worker program `Rtc source in
          record ~fig:"fig2" ~title:"UPF concurrency under RTC"
            ~series:(Printf.sprintf "pdrs-%d" n_pdrs)
            ~x:(float_of_int n_sessions) r;
          row "%-10d %-8d %10.2f %12.1f %10.2f %10.2f" n_sessions n_pdrs
            (Gunfu.Metrics.mpps r)
            (Gunfu.Metrics.cycles_per_packet r)
            (Gunfu.Metrics.l1_misses_per_packet r)
            (Gunfu.Metrics.llc_misses_per_packet r))
        pdr_counts)
    session_counts;
  row "expected shape: throughput falls as sessions and PDRs grow (paper Fig 2)"
