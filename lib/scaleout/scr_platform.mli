(** Head-to-head scale-out comparisons: one global arrival stream driven
    through RSS sharding and through SCR on identical platforms. The RSS
    pass shards the single stream by {!Gunfu.Platform.Recovery.owner}, so
    heavy-tailed traffic genuinely collapses onto the hot flows' owners —
    the failure mode SCR's sprayed dispatch removes. *)

open Gunfu

type rss_core = {
  rss_worker : Worker.t;
  rss_program : Program.t;
  rss_pool : Netcore.Packet.Pool.pool;
}

(** Each core runs its owned slice of the stream under RTC. Returns the
    per-core runs and their {!Gunfu.Metrics.merge_parallel} (which carries
    the offered/served imbalance ratios). *)
val run_rss :
  plat:Platform.t ->
  build:(core:int -> Worker.t -> rss_core) ->
  Workload.item list ->
  Metrics.run array * Metrics.run

(** The SCR pass on the same platform shape: replicas built per worker,
    the stream sprayed by [policy] (default round-robin), executed by
    [engine] (default rtc). See {!Scr.run} for the remaining knobs. *)
val run_scr :
  ?arm:(plane:Fault.t -> g:int -> Netcore.Packet.t -> unit) ->
  ?apply_cycles:int ->
  ?apply_instrs:int ->
  ?on_complete:(core:int -> g:int -> seq:int -> Nftask.t -> unit) ->
  ?digest:bool ->
  ?policy:Spray.policy ->
  ?engine:Exec.flow_free ->
  plat:Platform.t ->
  build:(core:int -> Worker.t -> Scr.replica) ->
  universe:int ->
  Workload.item list ->
  Scr.result
