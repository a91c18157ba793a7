(* Platform wrapper for head-to-head scale-out comparisons: the same
   global arrival stream driven through RSS sharding and through SCR on
   identical multi-core platforms (share-nothing workers, LLC partitioned
   across cores by {!Gunfu.Platform.create}).

   The RSS pass here shards ONE global stream by flow ownership
   ({!Gunfu.Platform.Recovery.owner}) — unlike the fig14/15 benches, which
   give every core an independent generator and therefore cannot exhibit
   skew collapse. Under a heavy-tailed flow-size distribution the owner of
   the hot flows receives most of the stream, its cycles dominate
   {!Gunfu.Metrics.merge_parallel}'s max, and throughput stops scaling:
   exactly the failure mode SCR's sprayed dispatch removes. *)

open Gunfu

type rss_core = {
  rss_worker : Worker.t;
  rss_program : Program.t;
  rss_pool : Netcore.Packet.Pool.pool;
}

(* Run the RSS pass: each core executes its owned slice of [items] under
   RTC. Returns per-core runs and their parallel merge (which carries the
   offered/served imbalance ratios). *)
let run_rss ~(plat : Platform.t) ~build items =
  let cores = Platform.cores plat in
  let runs =
    Array.init cores (fun c ->
        let core = build ~core:c (Platform.worker plat c) in
        let mine =
          List.filter
            (fun (it : Workload.item) ->
              Platform.Recovery.owner ~cores it.Workload.flow_hint = c)
            items
        in
        let ops = ref mine in
        let source () =
          match !ops with
          | [] -> None
          | item :: rest ->
              ops := rest;
              let pkt = Option.map Netcore.Packet.clone item.Workload.packet in
              Option.iter (Netcore.Packet.Pool.assign core.rss_pool) pkt;
              Some
                {
                  Workload.packet = pkt;
                  aux = item.Workload.aux;
                  flow_hint = item.Workload.flow_hint;
                }
        in
        Exec.run ~label:(Printf.sprintf "rss-core%d" c) `Rtc core.rss_worker
          core.rss_program source)
  in
  (runs, Metrics.merge_parallel (Array.to_list runs))

(* Run the SCR pass on the same platform shape: replicas built per worker,
   items sprayed by [policy], executed by [engine]. *)
let run_scr ?arm ?on_complete ?digest
    ?(policy = Spray.Round_robin) ?(engine = `Rtc) ~(plat : Platform.t)
    ~build ~universe items =
  let cores = Platform.cores plat in
  let replicas = Array.init cores (fun c -> build ~core:c (Platform.worker plat c)) in
  let slots = Spray.assign policy ~cores items in
  Scr.run ?arm ?on_complete ?digest ~engine ~replicas
    ~slots ~universe items
