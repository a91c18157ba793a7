(* Figure 15: UPF downlink with 130k PFCP sessions (16 PDRs each) across
   cores and packet sizes, against the L25GC-style RTC reference. *)

open Bench_common

let cores_list = [ 1; 2; 4; 6; 8; 10; 12; 16 ]
let packets_per_core = 20_000
let n_sessions_total = 131_072

type size_case = Fixed of int | Caida

let size_cases = [ Fixed 64; Fixed 512; Fixed 1024; Fixed 1512; Caida ]

(* CAIDA-sized downlink: sample wire lengths from the CAIDA mix. *)
let caida_table = lazy (
  match Traffic.Caida.size_model with
  | Traffic.Flowgen.Mix weighted ->
      let total = List.fold_left (fun a (_, w) -> a + w) 0 weighted in
      let t = Array.make total 0 in
      let pos = ref 0 in
      List.iter (fun (sz, w) -> for _ = 1 to w do t.(!pos) <- sz; incr pos done) weighted;
      t
  | Traffic.Flowgen.Fixed n -> [| n |])

let build_core ~size ~cores worker core =
  let layout = Gunfu.Worker.layout worker in
  let n_sessions = max 1024 (n_sessions_total / cores) in
  let wire_len = match size with Fixed n -> n | Caida -> 128 in
  let mgw = Traffic.Mgw.create ~seed:(60 + core) ~n_sessions ~n_pdrs:16 ~wire_len () in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let upf =
    Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:16 ()
  in
  Nfs.Upf.populate upf;
  let rng = Memsim.Rng.create (80 + core) in
  let source =
    match size with
    | Fixed _ -> Gunfu.Workload.of_mgw_downlink mgw ~pool ~count:packets_per_core
    | Caida ->
        (* Same session workload, CAIDA packet-size mix. *)
        Gunfu.Workload.limited packets_per_core (fun () ->
            let si = Traffic.Mgw.next_session mgw in
            let packet = Traffic.Mgw.downlink mgw si in
            let pkt = Option.get packet in
            let table = Lazy.force caida_table in
            pkt.Netcore.Packet.wire_len <-
              max pkt.Netcore.Packet.wire_len
                table.(Memsim.Rng.int rng (Array.length table));
            Netcore.Packet.Pool.assign pool pkt;
            { Gunfu.Workload.packet; aux = 0; flow_hint = si })
  in
  (Nfs.Upf.program upf, source)

let gbps ~cores ~size model =
  let platform = Gunfu.Platform.create ~cores () in
  let setup w core = build_core ~size ~cores w core in
  let runs = Gunfu.Platform.run platform ~setup ~execute:(Gunfu.Exec.run model) in
  let per_core =
    List.fold_left (fun acc r -> acc +. Gunfu.Metrics.gbps r) 0.0 runs
    /. float_of_int cores
  in
  Float.min 100.0 (per_core *. float_of_int cores)

let size_name = function Fixed n -> string_of_int n | Caida -> "CAIDA"

let run () =
  header "Fig 15: UPF, 130k PFCP sessions x 16 PDRs - multicore scalability (Gbps)";
  row "%-8s %8s %8s %8s %8s %8s" "cores" "64B" "512B" "1024B" "1512B" "CAIDA";
  List.iter
    (fun cores ->
      let cells =
        List.map
          (fun size ->
            let v = gbps ~cores ~size (Gunfu.Exec.il 16) in
            record_metrics ~fig:"fig15" ~title:"UPF multicore scalability"
              ~series:(size_name size) ~x:(float_of_int cores)
              [ ("gbps", v) ];
            v)
          size_cases
      in
      match cells with
      | [ a; b; c; d; e ] -> row "%-8d %8.1f %8.1f %8.1f %8.1f %8.1f" cores a b c d e
      | _ -> assert false)
    cores_list;
  let ref_cells =
    List.map
      (fun size ->
        let v = gbps ~cores:10 ~size `Rtc in
        record_metrics ~fig:"fig15" ~title:"UPF multicore scalability"
          ~series:(Printf.sprintf "RTC@10-%s" (size_name size))
          ~x:10.0 [ ("gbps", v) ];
        v)
      size_cases
  in
  (match ref_cells with
  | [ a; b; c; d; e ] -> row "%-8s %8.1f %8.1f %8.1f %8.1f %8.1f" "RTC@10" a b c d e
  | _ -> assert false);
  row "expected shape: line rate reached with few cores for large packets, more";
  row "for 64B; the RTC reference needs far more cores (paper Fig 15)"
