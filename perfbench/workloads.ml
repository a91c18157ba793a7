(* The benchmark's three workloads.

   Every workload is a closed loop on one OS thread: the executor pulls the
   next packet when a slot frees, there is no arrival schedule (simulated
   latency runs from load to completion), and every simulated core — SCR's
   eight included — is simulated in this same thread. All traffic is
   generated in-process; no NIC or loopback is involved.

   [setup] builds an instance and times its phases; [measure] then drives
   one closed-loop chunk of [chunk_packets] packets through the executor.
   The remaining fields let the traced run observe each layer from outside,
   through the public calls the benchmark itself makes. *)

open Gunfu
open Hostcost

let n_flows = 131_072
let warmup_packets = 5_000
let scr_cores = 8

type phases = {
  traffic_s : float;  (** generators, and SCR's pre-generated item stream *)
  populate_s : float;  (** worker(s), NF create and populate *)
  compile_s : float;  (** program compile (+ specialize) *)
  warmup_s : float;
}

(* Meters around the benchmark-owned wrappers of layer calls; filled only
   by instrumented chunks. *)
type probe = { pull : Meter.t; export : Meter.t; apply : Meter.t }

let probe () = { pull = Meter.create (); export = Meter.create (); apply = Meter.create () }
let meters p = [ p.pull; p.export; p.apply ]
let wrap_source p (src : Workload.source) : Workload.source = fun () -> Meter.timed p.pull src ()

(* Simulated latency samples in cycles, preallocated so recording a
   completion allocates nothing. *)
type samples = { lat : int array; mutable n : int }

let samples cap = { lat = Array.make cap 0; n = 0 }

let record s v =
  if s.n < Array.length s.lat then begin
    s.lat.(s.n) <- v;
    s.n <- s.n + 1
  end

let sorted_samples s =
  let a = Array.sub s.lat 0 s.n in
  Array.sort compare a;
  a

(* The first [cap] demand line accesses of one core's hierarchy, recorded
   from the worker's creation through its tap, and the counters the
   hierarchy held at the last recorded line. Replaying them one line at a
   time through a fresh hierarchy of the same geometry does the same
   cache work again: for an executor that issues no prefetches the
   replayed hit/miss counters must equal the recorded ones exactly. *)
module Recorder = struct
  type t = {
    mem : Memsim.Hierarchy.t;
    now : int array;
    line : int array;
    mutable n : int;
    mutable at_end : Memsim.Memstats.t option;
  }

  let cap = 1 lsl 18

  let install mem =
    let r = { mem; now = Array.make cap 0; line = Array.make cap 0; n = 0; at_end = None } in
    Memsim.Hierarchy.set_tap mem
      (Some
         (fun ~now ~line ~served:_ ~cycles:_ ->
           r.now.(r.n) <- now;
           r.line.(r.n) <- line;
           r.n <- r.n + 1;
           if r.n = cap then begin
             r.at_end <- Some (Memsim.Hierarchy.counters mem);
             Memsim.Hierarchy.set_tap mem None
           end));
    r

  (* Stop recording (before anything else claims the tap). *)
  let finish r =
    if r.at_end = None then begin
      r.at_end <- Some (Memsim.Hierarchy.counters r.mem);
      Memsim.Hierarchy.set_tap r.mem None
    end

  (* Replay every recorded line; returns wall ns and the fresh counters. *)
  let replay r =
    let h = Memsim.Hierarchy.create ~cfg:(Memsim.Hierarchy.config r.mem) () in
    let lb = Memsim.Hierarchy.line_bytes h in
    let t0 = now_ns () in
    for i = 0 to r.n - 1 do
      ignore (Memsim.Hierarchy.read h ~now:r.now.(i) ~addr:(r.line.(i) * lb) ~bytes:1 : int)
    done;
    (now_ns () - t0, Memsim.Hierarchy.counters h)

  let hit_miss (c : Memsim.Memstats.t) =
    Memsim.Memstats.
      [ c.line_accesses; c.l1_hits; c.l2_hits; c.llc_hits; c.dram_fills; c.mshr_waits ]

  let reproduces r (replayed : Memsim.Memstats.t) =
    match r.at_end with
    | Some recorded -> hit_miss recorded = hit_miss replayed
    | None -> false
end

(* Median ns per lookup over the workload's own keys, and the misses seen
   (every key was populated, so any miss is a correctness failure). *)
let time_lookups keys lookup =
  let n = Array.length keys in
  let total = max n 262_144 in
  let misses = ref 0 in
  let rep () =
    let t0 = now_ns () in
    for i = 0 to total - 1 do
      if not (lookup keys.(i mod n)) then incr misses
    done;
    float_of_int (now_ns () - t0) /. float_of_int total
  in
  let ns = median (List.init 5 (fun _ -> rep ())) in
  (ns, !misses)

let key_count = 65_536

let emitted (task : Nftask.t) =
  match task.Nftask.event with
  | Event.Drop_packet | Event.Match_fail | Event.Faulted _ -> false
  | _ -> true

(* Untimed output checks: packets the check offered itself (0 when it
   inspects state left by the measured chunks) and packets that failed. *)
type verdict = { offered : int; failed : int; note : string }

type scr_view = {
  cores : int;
  last : unit -> Scaleout.Scr.result;  (** the most recent measured call *)
  ref_rtc : ?telemetry:Trace.t -> unit -> Metrics.run;
      (** the same items through one [Rtc.run] on a single-core monitor *)
}

type t = {
  name : string;
  chunk_packets : int;
  out_len : int;  (** wire length of every forwarded packet *)
  phases : phases;
  measure : ?samples:samples -> ?probe:probe -> unit -> Metrics.run;
  traced : Trace.t -> Metrics.run;  (** one chunk with the Trace plane attached *)
  verify : unit -> verdict;
  cuckoo : unit -> float * int;
  mdi : (unit -> float * int) option;
  recorder : Recorder.t option;
  scr : scr_view option;
}

let phases t0 t1 t2 t3 t4 =
  let s a b = float_of_int (b - a) /. 1e9 in
  { traffic_s = s t0 t1; populate_s = s t1 t2; compile_s = s t2 t3; warmup_s = s t3 t4 }

let latency_tap ctx s (task : Nftask.t) =
  record s (ctx.Exec_ctx.clock - task.Nftask.start_clock)

(* Run one extra chunk with [ok] applied to every completion. *)
let check_completions ~offered run ok =
  let seen = ref 0 and failed = ref 0 in
  ignore
    (run (fun task ->
         incr seen;
         if not (ok task) then incr failed)
      : Metrics.run);
  { offered; failed = !failed + (offered - !seen); note = "" }

let drain (src : Workload.source) =
  let rec go acc = match src () with Some it -> go (it :: acc) | None -> List.rev acc in
  go []

(* ----- nat-il16: NAT under the interleaved scheduler, 16 NFTasks ----- *)

let nat_chunk = 50_000

let nat ?(specialize = true) ?(prefetch_distance = 1) ?(record = false) ~seed () =
  let t0 = now_ns () in
  let gen =
    Traffic.Flowgen.create ~seed ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let t1 = now_ns () in
  let worker = Worker.create ~id:0 () in
  let ctx = Worker.ctx worker in
  let recorder = if record then Some (Recorder.install ctx.Exec_ctx.mem) else None in
  let layout = Worker.layout worker in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows () in
  Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
  let t2 = now_ns () in
  let program = Nfs.Nat.program nat in
  if specialize then Specialize.install program;
  let arena = if specialize then Some (Netcore.Packet.Arena.create ()) else None in
  let t3 = now_ns () in
  let source count = Workload.of_flowgen ?arena gen ~pool ~count in
  let exec ?on_complete ?telemetry src =
    Scheduler.run ~prefetch_distance ?on_complete ?telemetry worker program ~n_tasks:16 src
  in
  ignore (exec (source warmup_packets) : Metrics.run);
  let t4 = now_ns () in
  (* An emit carries its flow's translated source address and port. *)
  let translated (task : Nftask.t) =
    emitted task
    &&
    match task.Nftask.packet with
    | None -> false
    | Some p ->
        let f = Netcore.Packet.flow_of_headers p in
        let i = task.Nftask.flow_hint in
        Int32.equal f.Netcore.Flow.src_ip nat.Nfs.Nat.map_ip.(i)
        && f.Netcore.Flow.src_port = nat.Nfs.Nat.map_port.(i)
  in
  let table = Nfs.Classifier.table nat.Nfs.Nat.classifier in
  {
    name = "nat-il16";
    chunk_packets = nat_chunk;
    out_len = 128;
    phases = phases t0 t1 t2 t3 t4;
    measure =
      (fun ?samples ?probe () ->
        let src = source nat_chunk in
        let src = match probe with Some p -> wrap_source p src | None -> src in
        exec ?on_complete:(Option.map (latency_tap ctx) samples) src);
    traced = (fun tr -> exec ~telemetry:tr (source nat_chunk));
    verify =
      (fun () ->
        check_completions ~offered:nat_chunk
          (fun on_complete -> exec ~on_complete (source nat_chunk))
          translated);
    cuckoo =
      (fun () ->
        (* Keys come from the flow hints: with the arena on, a drained
           item's packet may already have been rewritten for a later one. *)
        let flows = Traffic.Flowgen.flows gen in
        let keys =
          drain (source key_count)
          |> List.map (fun (it : Workload.item) -> Netcore.Flow.key64 flows.(it.Workload.flow_hint))
          |> Array.of_list
        in
        time_lookups keys (fun k -> Structures.Cuckoo.lookup table k <> None));
    mdi = None;
    recorder;
    scr = None;
  }

(* ----- upf-rtc: UPF downlink under run-to-completion ----- *)

let upf_chunk = 50_000
let n_pdrs = 16

let upf ?(record = false) ~seed () =
  let t0 = now_ns () in
  let mgw = Traffic.Mgw.create ~seed ~n_sessions:n_flows ~n_pdrs ~wire_len:128 () in
  let t1 = now_ns () in
  let worker = Worker.create ~id:0 () in
  let ctx = Worker.ctx worker in
  let recorder = if record then Some (Recorder.install ctx.Exec_ctx.mem) else None in
  let layout = Worker.layout worker in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let upf =
    Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs ()
  in
  Nfs.Upf.populate upf;
  let t2 = now_ns () in
  let program = Nfs.Upf.program upf in
  let t3 = now_ns () in
  let source count = Workload.of_mgw_downlink mgw ~pool ~count in
  let exec ?on_complete ?telemetry src = Rtc.run ?on_complete ?telemetry worker program src in
  ignore (exec (source warmup_packets) : Metrics.run);
  let t4 = now_ns () in
  let gtpu_off =
    Netcore.Ethernet.header_bytes + Netcore.Ipv4.header_bytes + Netcore.L4.udp_header_bytes
  in
  (* An emit is GTP-U encapsulated with its session's TEID. *)
  let tunnelled (task : Nftask.t) =
    emitted task
    &&
    match task.Nftask.packet with
    | None -> false
    | Some p -> (
        match Netcore.Gtpu.decode p.Netcore.Packet.buf ~off:gtpu_off with
        | g ->
            Int32.equal g.Netcore.Gtpu.teid
              (Traffic.Mgw.session mgw task.Nftask.flow_hint).Traffic.Mgw.teid
        | exception Invalid_argument _ -> false)
  in
  let ue_key si =
    Int64.logand (Int64.of_int32 (Traffic.Mgw.session mgw si).Traffic.Mgw.ue_ip) 0xFFFFFFFFL
  in
  let mdi_key (p : Netcore.Packet.t) =
    let f = p.Netcore.Packet.flow in
    {
      Structures.Mdi_tree.k_src_ip = Int32.to_int f.Netcore.Flow.src_ip land 0xFFFFFFFF;
      k_src_port = f.Netcore.Flow.src_port;
      k_dst_port = f.Netcore.Flow.dst_port;
      k_proto = f.Netcore.Flow.proto;
    }
  in
  let key_items = lazy (drain (source key_count)) in
  let table = Nfs.Classifier.table upf.Nfs.Upf.classifier in
  let shape = Structures.Mdi_tree.Forest.shape upf.Nfs.Upf.forest in
  {
    name = "upf-rtc";
    chunk_packets = upf_chunk;
    out_len = 128 + Netcore.Gtpu.encap_overhead;
    phases = phases t0 t1 t2 t3 t4;
    measure =
      (fun ?samples ?probe () ->
        let src = source upf_chunk in
        let src = match probe with Some p -> wrap_source p src | None -> src in
        exec ?on_complete:(Option.map (latency_tap ctx) samples) src);
    traced = (fun tr -> exec ~telemetry:tr (source upf_chunk));
    verify =
      (fun () ->
        check_completions ~offered:upf_chunk
          (fun on_complete -> exec ~on_complete (source upf_chunk))
          tunnelled);
    cuckoo =
      (fun () ->
        let keys =
          Array.of_list
            (List.map (fun (it : Workload.item) -> ue_key it.Workload.flow_hint)
               (Lazy.force key_items))
        in
        time_lookups keys (fun k -> Structures.Cuckoo.lookup table k <> None));
    mdi =
      Some
        (fun () ->
          let keys =
            Array.of_list
              (List.filter_map
                 (fun (it : Workload.item) -> Option.map mdi_key it.Workload.packet)
                 (Lazy.force key_items))
          in
          time_lookups keys (fun k -> Structures.Mdi_tree.lookup shape k <> None));
    recorder;
    scr = None;
  }

(* ----- scr-zipf: network monitor replicated on 8 simulated cores ----- *)

let scr_chunk = 16_384

let scr ?(record = false) ~seed () =
  let t0 = now_ns () in
  let gen =
    Traffic.Flowgen.create ~seed ~popularity:(Traffic.Flowgen.Zipf 1.2)
      ~size_model:(Traffic.Flowgen.Fixed 64) ~n_flows ()
  in
  let gen_pool = Netcore.Packet.Pool.create (Worker.layout (Worker.create ~id:99 ())) ~count:1024 in
  let items count = drain (Workload.of_flowgen gen ~pool:gen_pool ~count) in
  let warm = items warmup_packets in
  let chunk = items scr_chunk in
  let per_flow its =
    let a = Array.make n_flows 0 in
    List.iter
      (fun (it : Workload.item) ->
        a.(it.Workload.flow_hint) <- a.(it.Workload.flow_hint) + 1)
      its;
    a
  in
  let warm_counts = per_flow warm and chunk_counts = per_flow chunk in
  let t1 = now_ns () in
  let plat = Platform.create ~cores:scr_cores () in
  let workers = Platform.workers plat in
  let recorder =
    if record then Some (Recorder.install (Worker.ctx workers.(0)).Exec_ctx.mem) else None
  in
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
  let pools = Array.map (fun w -> Netcore.Packet.Pool.create (Worker.layout w) ~count:1024) workers in
  let t2 = now_ns () in
  let programs = Array.map (fun m -> Nfs.Monitor.program m) mons in
  let t3 = now_ns () in
  (* The update payload and its application are benchmark-owned closures,
     so an instrumented chunk can time them from outside the engine. *)
  let current : probe option ref = ref None in
  let export c i = [ ("nm", Nfs.Migration.export_monitor mons.(c) [ flows.(i) ]) ] in
  let apply c (r : Scaleout.Update_log.record) =
    List.iter
      (fun (_, snap) -> ignore (Nfs.Migration.apply_monitor mons.(c) snap : int))
      r.Scaleout.Update_log.u_payload
  in
  let replicas =
    Array.init scr_cores (fun c ->
        {
          Scaleout.Scr.sc_worker = workers.(c);
          sc_program = programs.(c);
          sc_pool = pools.(c);
          sc_export =
            (fun i ->
              match !current with
              | None -> export c i
              | Some p -> Meter.timed p.export (export c) i);
          sc_apply =
            (fun r ->
              match !current with
              | None -> apply c r
              | Some p -> Meter.timed p.apply (apply c) r);
          sc_counters = (fun () -> []);
          sc_flow_digest = (fun _ _ -> ());
        })
  in
  let ctxs = Array.map Worker.ctx workers in
  let chunk_runs = ref 0 and broken_stream = ref 0 in
  let last = ref None in
  (* The convergence digest is computed by [verify], outside the timed
     call, so [digest] stays off here. *)
  let run ?on_complete its =
    let res =
      Scaleout.Scr_platform.run_scr ?on_complete ~digest:false ~plat
        ~build:(fun ~core _ -> replicas.(core))
        ~universe:n_flows its
    in
    let st = res.Scaleout.Scr.sr_stats in
    if
      st.Scaleout.Scr.st_records * (scr_cores - 1)
      <> st.Scaleout.Scr.st_applied + st.Scaleout.Scr.st_coalesced + st.Scaleout.Scr.st_stale
    then incr broken_stream;
    last := Some res;
    res.Scaleout.Scr.sr_merged
  in
  ignore (run warm : Metrics.run);
  let t4 = now_ns () in
  let reference =
    lazy
      (let w = Worker.create ~cfg:(Platform.config plat) ~id:0 () in
       let m = Nfs.Monitor.create (Worker.layout w) ~name:"nm" ~n_flows () in
       Nfs.Monitor.populate m flows;
       (w, Nfs.Monitor.program m, Netcore.Packet.Pool.create (Worker.layout w) ~count:1024))
  in
  (* Delivered like the SCR engine delivers: a clone per item, assigned a
     buffer from the core's pool. *)
  let ref_rtc ?telemetry () =
    let w, program, pool = Lazy.force reference in
    let ops = ref chunk in
    let source () =
      match !ops with
      | [] -> None
      | (it : Workload.item) :: rest ->
          ops := rest;
          let pkt = Option.map Netcore.Packet.clone it.Workload.packet in
          Option.iter (Netcore.Packet.Pool.assign pool) pkt;
          Some { it with Workload.packet = pkt }
    in
    Rtc.run ?telemetry w program source
  in
  let table = Nfs.Classifier.table mons.(0).Nfs.Monitor.classifier in
  {
    name = "scr-zipf";
    chunk_packets = scr_chunk;
    out_len = 64;
    phases = phases t0 t1 t2 t3 t4;
    measure =
      (fun ?samples ?probe () ->
        let on_complete =
          Option.map
            (fun s ~core ~g:_ ~seq:_ (task : Nftask.t) -> latency_tap ctxs.(core) s task)
            samples
        in
        current := probe;
        let r = Fun.protect ~finally:(fun () -> current := None) (fun () -> run ?on_complete chunk) in
        incr chunk_runs;
        r);
    traced = (fun tr -> ref_rtc ~telemetry:tr ());
    verify =
      (fun () ->
        (* Every replica's per-flow counters must equal what was offered
           (warmup plus every chunk), which also proves convergence. *)
        let failed = ref 0 and diverged = ref 0 in
        for i = 0 to n_flows - 1 do
          let expect = warm_counts.(i) + (!chunk_runs * chunk_counts.(i)) in
          let p0, _ = Nfs.Monitor.stats mons.(0) i in
          if Array.exists (fun m -> Nfs.Monitor.stats m i <> (p0, p0 * 64)) mons then
            incr diverged;
          if Array.exists (fun m -> Nfs.Monitor.stats m i <> (expect, expect * 64)) mons then
            failed := !failed + expect
        done;
        {
          offered = 0;
          failed = !failed + (!broken_stream * scr_chunk);
          note =
            Printf.sprintf "%d flows diverged across replicas, %d update-stream imbalances"
              !diverged !broken_stream;
        });
    cuckoo =
      (fun () ->
        let keys =
          Array.of_list
            (List.filter_map
               (fun (it : Workload.item) ->
                 Option.map (fun p -> Netcore.Flow.key64 p.Netcore.Packet.flow) it.Workload.packet)
               chunk)
        in
        time_lookups keys (fun k -> Structures.Cuckoo.lookup table k <> None));
    mdi = None;
    recorder;
    scr =
      Some
        {
          cores = scr_cores;
          last = (fun () -> Option.get !last);
          ref_rtc;
        };
  }

let names = [ "nat-il16"; "upf-rtc"; "scr-zipf" ]

let setup ?record name ~seed =
  match name with
  | "nat-il16" -> nat ?record ~seed ()
  | "upf-rtc" -> upf ?record ~seed ()
  | "scr-zipf" -> scr ?record ~seed ()
  | _ -> invalid_arg ("unknown workload " ^ name)
