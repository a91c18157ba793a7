(** The cycle-attribution profiler: folds a {!Gunfu.Trace}'s exact books
    into a perf-report-style view keyed by (nf, fsm state, state class,
    serving cache level), plus phase totals, latency percentiles, the
    occupancy summary, and an exact reconciliation against
    {!Memsim.Memstats}. Works off the attribution books (never the span
    ring), so numbers stay exact when the ring overflowed. *)

(** Per-level serve counts vs the hierarchy's own counters (L1/L2/LLC
    hits, DRAM fills, MSHR waits). The tap fires exactly once per demand
    line access, so any difference means a tampered or mis-bracketed
    trace. *)
val reconcile : Gunfu.Trace.t -> Memsim.Memstats.t -> (unit, string) result

val report : ?run:Gunfu.Metrics.run -> Gunfu.Trace.t -> string
