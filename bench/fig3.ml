(* Figure 3 (EXP B): impact of state complexity — per-message cost of the
   state-intensive messages in UE initial registration under RTC. The AMF's
   per-UE context exceeds 20 cache lines; each message touches a different
   slice, and state access dominates processing time. *)

open Bench_common

let run () =
  header "Fig 3: AMF initial-registration messages under RTC - state complexity";
  row "%-26s %10s %10s %9s %9s %9s %10s %8s" "message" "Kmsg/s" "cyc/msg" "L1m/m" "L2m/m"
    "LLCm/m" "state-time" "lines";
  List.iter
    (fun msg ->
      let worker, program, amf, source = amf_env ~only_msg:msg () in
      let r = measure ~packets:20_000 worker program `Rtc source in
      record_metrics ~fig:"fig3" ~title:"AMF state complexity under RTC"
        ~series:(Traffic.Mgw.amf_msg_name msg)
        ~x:(float_of_int (Gunfu.Workload.amf_msg_code msg))
        (Telemetry.Baseline.metrics_of_run r
        @ [ ("lines", float_of_int (Nfs.Amf.lines_per_message amf msg)) ]);
      row "%-26s %10.0f %10.1f %9.2f %9.2f %9.2f %9.0f%% %8d"
        (Traffic.Mgw.amf_msg_name msg)
        (Gunfu.Metrics.mpps r *. 1000.0)
        (Gunfu.Metrics.cycles_per_packet r)
        (Gunfu.Metrics.l1_misses_per_packet r)
        (Gunfu.Metrics.l2_misses_per_packet r)
        (Gunfu.Metrics.llc_misses_per_packet r)
        (100.0
        *. Gunfu.Metrics.state_access_share r
             [ Gunfu.Sref.Per_flow; Gunfu.Sref.Match_state ])
        (Nfs.Amf.lines_per_message amf msg))
    Traffic.Mgw.all_amf_msgs;
  row "expected shape: misses/msg track the lines each message touches; state access";
  row "dominates the heavier messages (paper Fig 3)"
