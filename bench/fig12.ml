(* Figure 12: interleaved execution on the granularly decomposed AMF with
   2^17 UEs — registration-message throughput vs the RTC model, the
   per-message cache metrics, and the extra gain from data packing. *)

open Bench_common

let run () =
  header "Fig 12: AMF initial registration, 2^17 UEs";
  let run_case ~packed model =
    let worker, program, amf, source = amf_env ~packed () in
    (measure ~packets:30_000 worker program model source, amf)
  in
  let rtc, _ = run_case ~packed:false `Rtc in
  let il, _ = run_case ~packed:false (Gunfu.Exec.il 16) in
  let il_dp, amf_dp = run_case ~packed:true (Gunfu.Exec.il 16) in
  let line label r =
    row "%-24s %8.3f Mmsg/s %8.2fx  L1m/m=%6.2f L2m/m=%6.2f LLCm/m=%6.2f ipc=%.2f" label
      (Gunfu.Metrics.mpps r)
      (Gunfu.Metrics.mpps r /. Gunfu.Metrics.mpps rtc)
      (Gunfu.Metrics.l1_misses_per_packet r)
      (Gunfu.Metrics.l2_misses_per_packet r)
      (Gunfu.Metrics.llc_misses_per_packet r)
      (Gunfu.Metrics.ipc r)
  in
  line "RTC (L25GC-style)" rtc;
  line "GuNFu IL-16" il;
  line "GuNFu IL-16 + DP" il_dp;
  List.iter
    (fun (series, r) ->
      record ~fig:"fig12" ~title:"AMF interleaved + data packing" ~series ~x:0.0 r)
    [ ("RTC", rtc); ("IL-16", il); ("IL-16+DP", il_dp) ];
  row "interleaving improvement: +%.0f%% (paper: ~60%%)"
    ((Gunfu.Metrics.mpps il /. Gunfu.Metrics.mpps rtc -. 1.0) *. 100.0);
  row "data packing adds:        +%.1f%% (paper: ~5%%)"
    ((Gunfu.Metrics.mpps il_dp /. Gunfu.Metrics.mpps il -. 1.0) *. 100.0);
  row "";
  row "per-message UE-context lines (sequential vs packed layout):";
  let layout = Memsim.Layout.create () in
  let amf_u = Nfs.Amf.create layout ~name:"u" ~packed:false ~n_ues:8 () in
  List.iter
    (fun m ->
      row "  %-26s %3d -> %3d"
        (Traffic.Mgw.amf_msg_name m)
        (Nfs.Amf.lines_per_message amf_u m)
        (Nfs.Amf.lines_per_message amf_dp m))
    Traffic.Mgw.all_amf_msgs
