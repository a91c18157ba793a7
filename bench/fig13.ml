(* Figure 13: SFCs of length 2-6 — the interleaved execution model, data
   packing (DP), and redundant-matching removal (MR) stacked on each other,
   against the RTC baseline; plus the IPC panel. *)

open Bench_common

let lengths = [ 2; 3; 4; 5; 6 ]

let case ~length ~packed ~mr model =
  let opts = { Gunfu.Compiler.default_opts with Gunfu.Compiler.match_removal = mr } in
  let worker, program, source = sfc_env ~length ~packed ~opts () in
  measure ~packets:30_000 worker program model source

let run () =
  header "Fig 13(a): SFC throughput vs chain length (Mpps)";
  row "%-8s %10s %10s %10s %12s" "length" "RTC" "IL-16" "IL-16+DP" "IL-16+DP+MR";
  let results =
    List.map
      (fun length ->
        let rtc = case ~length ~packed:false ~mr:false `Rtc in
        let il = case ~length ~packed:false ~mr:false (Gunfu.Exec.il 16) in
        let dp = case ~length ~packed:true ~mr:false (Gunfu.Exec.il 16) in
        let mr = case ~length ~packed:true ~mr:true (Gunfu.Exec.il 16) in
        List.iter
          (fun (series, r) ->
            record ~fig:"fig13" ~title:"SFC compiler optimisations" ~series
              ~x:(float_of_int length) r)
          [ ("RTC", rtc); ("IL-16", il); ("IL-16+DP", dp); ("IL-16+DP+MR", mr) ];
        row "%-8d %10.2f %10.2f %10.2f %12.2f" length (Gunfu.Metrics.mpps rtc)
          (Gunfu.Metrics.mpps il) (Gunfu.Metrics.mpps dp) (Gunfu.Metrics.mpps mr);
        (length, rtc, il, dp, mr))
      lengths
  in
  header "Fig 13(b): speedups over RTC";
  row "%-8s %10s %10s %12s" "length" "IL-16" "IL-16+DP" "IL-16+DP+MR";
  List.iter
    (fun (length, rtc, il, dp, mr) ->
      let s r = Gunfu.Metrics.mpps r /. Gunfu.Metrics.mpps rtc in
      row "%-8d %9.2fx %9.2fx %11.2fx" length (s il) (s dp) (s mr))
    results;
  header "Fig 13(c): IPC";
  row "%-8s %10s %10s %10s %12s" "length" "RTC" "IL-16" "IL-16+DP" "IL-16+DP+MR";
  List.iter
    (fun (length, rtc, il, dp, mr) ->
      row "%-8d %10.2f %10.2f %10.2f %12.2f" length (Gunfu.Metrics.ipc rtc)
        (Gunfu.Metrics.ipc il) (Gunfu.Metrics.ipc dp) (Gunfu.Metrics.ipc mr))
    results;
  row "expected shape: gains grow with chain length; MR is the largest single";
  row "optimisation at length 6 (paper Fig 13)"
