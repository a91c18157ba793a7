(* AMF initial registration: heterogeneous signalling messages against a
   large (>20 cache lines) UE context — the paper's state-complexity case
   (EXP B / Fig 12). Demonstrates:

   - the per-UE registration state machine actually progressing,
   - per-message cache-line footprints, with and without data packing,
   - throughput under RTC vs the interleaved execution model.

     dune exec examples/amf_registration.exe
*)

let n_ues = 131072
let messages = 60_000

let run ~model ~packed =
  let worker = Gunfu.Worker.create ~id:0 () in
  let layout = Gunfu.Worker.layout worker in
  let gen = Traffic.Mgw.amf_create ~seed:3 ~n_ues () in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let amf = Nfs.Amf.create layout ~name:"amf" ~packed ~n_ues () in
  Nfs.Amf.populate amf;
  let program = Nfs.Amf.program amf in
  let source = Gunfu.Workload.of_amf gen ~pool ~count:messages in
  let r = Gunfu.Exec.run model worker program source in
  (r, amf)

let () =
  Printf.printf "AMF initial registration, %d UEs, %d messages\n\n" n_ues messages;

  (* Small functional walk-through: one UE registers end to end. *)
  let worker = Gunfu.Worker.create ~id:1 () in
  let layout = Gunfu.Worker.layout worker in
  let amf = Nfs.Amf.create layout ~name:"amf" ~n_ues:8 () in
  Nfs.Amf.populate amf;
  let program = Nfs.Amf.program amf in
  let pool = Netcore.Packet.Pool.create layout ~count:16 in
  let gen = Traffic.Mgw.amf_create ~n_ues:1 () in
  let _ = Gunfu.Rtc.run worker program (Gunfu.Workload.of_amf gen ~pool ~count:5) in
  Printf.printf "one UE sent the 5-message registration call flow:\n";
  Printf.printf "  completed registrations: %d, protocol errors: %d\n\n"
    amf.Nfs.Amf.registrations.(0) amf.Nfs.Amf.protocol_errors;

  (* Per-message footprint: how many UE-context lines each handler needs. *)
  let amf_unpacked = Nfs.Amf.create layout ~name:"amf_u" ~packed:false ~n_ues:8 () in
  let amf_packed = Nfs.Amf.create layout ~name:"amf_p" ~packed:true ~n_ues:8 () in
  Printf.printf "%-26s %10s %10s\n" "message" "lines" "lines+DP";
  List.iter
    (fun m ->
      Printf.printf "%-26s %10d %10d\n"
        (Traffic.Mgw.amf_msg_name m)
        (Nfs.Amf.lines_per_message amf_unpacked m)
        (Nfs.Amf.lines_per_message amf_packed m))
    Traffic.Mgw.all_amf_msgs;

  Printf.printf "\nthroughput (messages/second):\n";
  let rtc, _ = run ~model:`Rtc ~packed:false in
  let il, _ = run ~model:(Gunfu.Exec.il 16) ~packed:false in
  let il_dp, _ = run ~model:(Gunfu.Exec.il 16) ~packed:true in
  let p label r =
    Printf.printf "  %-26s %7.3f Mmsg/s  IPC %.2f  LLC misses/msg %.2f\n" label
      (Gunfu.Metrics.mpps r) (Gunfu.Metrics.ipc r)
      (Gunfu.Metrics.llc_misses_per_packet r)
  in
  p "RTC" rtc;
  p "interleaved x16" il;
  p "interleaved x16 + DP" il_dp;
  Printf.printf "\nimprovement over RTC: %.0f%% (paper: ~60%%)\n"
    ((Gunfu.Metrics.mpps il_dp /. Gunfu.Metrics.mpps rtc -. 1.0) *. 100.0)
