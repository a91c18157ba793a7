(* Where the host time of a perfbench workload goes, by sampling.

     dune exec bench/hostprof/hostprof.exe -- nat-il16 [packets]
     dune exec bench/hostprof/hostprof.exe -- upf-rtc [packets]
     dune exec bench/hostprof/hostprof.exe -- scr-zipf [packets]
     dune exec bench/hostprof/hostprof.exe -- pulls

   The first three rebuild a perfbench workload from the library (same
   generator, NF, executor and seed 1), warm it up, then run [packets]
   (default 1,000,000; scr-zipf rounds it up to whole 16,384-item chunks,
   each one [Scr.run]) packets with an ITIMER_PROF timer asking for a
   SIGPROF every millisecond of CPU time. The kernel checks CPU-time timers
   at its scheduler tick, so the signal comes at most once per tick: on a
   250 Hz kernel that is one sample per 4 ms, about a quarter of what the
   interval asks for. Every report therefore prints the samples it got,
   the CPU seconds they cover and the milliseconds per sample. Each
   SIGPROF records the OCaml call stack. The report gives the share of
   samples per innermost function (self) and per layer: a sample belongs
   to the first layer of [layer]'s list that any of its frames matches,
   and GC work lands on the allocating function.
   OCaml runs a signal handler at its next poll point (an allocation, a
   call or a loop back-edge), so a sample lands on the first such point
   after the tick: read the shares per function, not per line, and expect
   a loop that follows allocation-free code to collect that code's
   samples.

   [pulls] times traffic pulls alone, with 16 and with 131,072 flows (or
   sessions): the first fits the host's caches, so the difference is what
   cold flow records, address boxes and session records cost per pull. *)

open Gunfu

let n_flows = 131_072
let seed = 1

(* ----- sampler ----- *)

let max_samples = 1 lsl 17
let samples : Printexc.raw_backtrace option array = Array.make max_samples None
let n_samples = ref 0

let on_prof _ =
  if !n_samples < max_samples then begin
    samples.(!n_samples) <- Some (Printexc.get_callstack 64);
    incr n_samples
  end

(* User plus system CPU seconds of the sampled run. *)
let sampled_cpu_s = ref 0.

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let with_sampler f =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_prof);
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  let cpu0 = cpu_s () in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick : Unix.interval_timer_status);
  f ();
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. }
      : Unix.interval_timer_status);
  sampled_cpu_s := cpu_s () -. cpu0;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

(* Frame names, innermost first, without the sampler's own frames. *)
let frames bt =
  match Printexc.backtrace_slots bt with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.filter_map Printexc.Slot.name
      |> List.filter (fun n -> not (String.starts_with ~prefix:"Dune__exe__Hostprof" n))
      |> List.filter (fun n -> not (String.starts_with ~prefix:"Stdlib__Printexc" n))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let any_frame fs subs = List.exists (fun f -> List.exists (contains f) subs) fs

(* Layers, first match wins. A traffic pull is split into the header codecs,
   the PRNG, the packet record/buffer work, and the rest of the generator
   (flow and session record reads, Zipf, the item). *)
let codecs =
  [ "Netcore__Ipv4"; "Netcore__L4"; "Netcore__Ethernet"; "Netcore__Checksum"; "Netcore__Gtpu" ]

let layer fs =
  if any_frame fs [ "Gunfu__Workload" ] then
    if any_frame fs codecs then "traffic: header codecs"
    else if any_frame fs [ "Memsim__Rng"; "Traffic__Zipf" ] then "traffic: rng / zipf"
    else if any_frame fs [ "Netcore__Packet" ] then "traffic: packet record + buffer"
    else "traffic: generator (flow/session records, item)"
  else if any_frame fs [ "Nfs__Migration" ] then "scaleout: migration export / apply"
  else if any_frame fs [ "Scaleout__Update_log" ] then "scaleout: update log (GUPD1, applier)"
  else if any_frame fs [ "Memsim__" ] then "memsim"
  else if any_frame fs [ "Structures__" ] then "structures"
  else if any_frame fs [ "Nfs__"; "Gunfu__Specialize"; "Gunfu__Action"; "Gunfu__Fault" ] then
    "NF actions"
  else if any_frame fs [ "Gunfu__" ] then "executor (engine, scheduler, fsm)"
  else if any_frame fs [ "Scaleout__" ] then "scaleout: scr driver"
  else "other (gc, runtime)"

let report name =
  let n = !n_samples in
  let self = Hashtbl.create 64 and layers = Hashtbl.create 16 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  for i = 0 to n - 1 do
    match samples.(i) with
    | None -> ()
    | Some bt ->
        let fs = frames bt in
        bump self (match fs with f :: _ -> f | [] -> "(no OCaml frame)");
        bump layers (layer fs)
  done;
  let pct c = 100.0 *. float_of_int c /. float_of_int (max 1 n) in
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Printf.printf "%s: %d samples over %.2f s of CPU time, %.2f ms per sample\n\nby layer\n"
    name n !sampled_cpu_s
    (1000. *. !sampled_cpu_s /. float_of_int (max 1 n));
  List.iter (fun (k, c) -> Printf.printf "  %5.1f%%  %s\n" (pct c) k) (sorted layers);
  Printf.printf "\nself, top 25\n";
  List.iteri
    (fun i (k, c) -> if i < 25 then Printf.printf "  %5.1f%%  %s\n" (pct c) k)
    (sorted self)

(* ----- workloads, as perfbench builds them ----- *)

let nat packets =
  let gen =
    Traffic.Flowgen.create ~seed ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows () in
  Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
  let program = Nfs.Nat.program nat in
  Specialize.install program;
  let arena = Netcore.Packet.Arena.create () in
  let run count =
    ignore
      (Exec.run (Exec.il 16) worker program
         (Workload.of_flowgen ~arena gen ~pool ~count)
        : Metrics.run)
  in
  run 5_000;
  with_sampler (fun () -> run packets)

let upf packets =
  let mgw = Traffic.Mgw.create ~seed ~n_sessions:n_flows ~n_pdrs:16 ~wire_len:128 () in
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let upf =
    Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:16 ()
  in
  Nfs.Upf.populate upf;
  let program = Nfs.Upf.program upf in
  let run count =
    ignore
      (Exec.run `Rtc worker program (Workload.of_mgw_downlink mgw ~pool ~count) : Metrics.run)
  in
  run 5_000;
  with_sampler (fun () -> run packets)

(* The monitor replicated on 8 cores by [Scr_platform.run_scr], Zipf 1.2
   over [n_flows] flows, as perfbench's scr-zipf builds it: the items are
   generated before the run, and every chunk is one [Scr.run] over the
   same 16,384 items. *)
let scr_cores = 8
let scr_chunk = 16_384

let scr packets =
  let gen =
    Traffic.Flowgen.create ~seed ~popularity:(Traffic.Flowgen.Zipf 1.2)
      ~size_model:(Traffic.Flowgen.Fixed 64) ~n_flows ()
  in
  let gen_pool =
    Netcore.Packet.Pool.create (Worker.layout (Worker.create ~id:99 ())) ~count:1024
  in
  let items count =
    let src = Workload.of_flowgen gen ~pool:gen_pool ~count in
    let rec go acc = match src () with Some it -> go (it :: acc) | None -> List.rev acc in
    go []
  in
  let warm = items 5_000 in
  let chunk = items scr_chunk in
  let plat = Platform.create ~cores:scr_cores () in
  let workers = Platform.workers plat in
  let flows = Traffic.Flowgen.flows gen in
  let mons =
    Array.mapi
      (fun c w ->
        let m =
          Nfs.Monitor.create (Worker.layout w) ~name:(Printf.sprintf "nm%d" c) ~n_flows ()
        in
        Nfs.Monitor.populate m flows;
        m)
      workers
  in
  let replicas =
    Array.mapi
      (fun c w ->
        {
          Scaleout.Scr.sc_worker = w;
          sc_program = Nfs.Monitor.program mons.(c);
          sc_pool = Netcore.Packet.Pool.create (Worker.layout w) ~count:1024;
          sc_export = (fun i -> [ ("nm", Nfs.Migration.export_monitor mons.(c) [ flows.(i) ]) ]);
          sc_apply =
            (fun r ->
              List.iter
                (fun (_, snap) -> ignore (Nfs.Migration.apply_monitor mons.(c) snap : int))
                r.Scaleout.Update_log.u_payload);
          sc_counters = (fun () -> []);
          sc_flow_digest = (fun _ _ -> ());
        })
      workers
  in
  let run its =
    ignore
      (Scaleout.Scr_platform.run_scr ~digest:false ~plat
         ~build:(fun ~core _ -> replicas.(core))
         ~universe:n_flows its
        : Scaleout.Scr.result)
  in
  run warm;
  with_sampler (fun () ->
      for _ = 1 to (packets + scr_chunk - 1) / scr_chunk do
        run chunk
      done)

(* ----- pull timing ----- *)

let ns_per_pull pull =
  let n = 1_000_000 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      pull ()
    done;
    best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n)
  done;
  !best

let pulls () =
  List.iter
    (fun flows ->
      let gen =
        Traffic.Flowgen.create ~seed ~n_flows:flows ~size_model:(Traffic.Flowgen.Fixed 128) ()
      in
      let pool = Netcore.Packet.Pool.create (Memsim.Layout.create ()) ~count:1024 in
      let arena = Netcore.Packet.Arena.create () in
      let src = Workload.of_flowgen ~arena gen ~pool ~count:max_int in
      let flowgen = ns_per_pull (fun () -> ignore (src ())) in
      let mgw = Traffic.Mgw.create ~seed ~n_sessions:flows ~n_pdrs:16 ~wire_len:128 () in
      let src = Workload.of_mgw_downlink mgw ~pool ~count:max_int in
      let downlink = ns_per_pull (fun () -> ignore (src ())) in
      Printf.printf
        "%7d flows: of_flowgen (arena) %6.1f ns/pull, of_mgw_downlink %6.1f ns/pull\n" flows
        flowgen downlink)
    [ 16; n_flows ]

let () =
  let packets k =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else k
  in
  match Array.to_list Sys.argv |> List.tl with
  | "nat-il16" :: _ ->
      nat (packets 1_000_000);
      report "nat-il16"
  | "upf-rtc" :: _ ->
      upf (packets 1_000_000);
      report "upf-rtc"
  | "scr-zipf" :: _ ->
      scr (packets 1_000_000);
      report "scr-zipf"
  | "pulls" :: _ -> pulls ()
  | _ ->
      prerr_endline "usage: hostprof.exe (nat-il16 | upf-rtc | scr-zipf) [packets] | pulls";
      exit 2
