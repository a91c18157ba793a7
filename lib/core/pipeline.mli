(** The pipeline execution model (related work, §VIII): modules placed on
    different cores connected by software queues, per-packet RTC within
    each stage. Every inter-stage hop pays queue operations plus a
    cross-core cache transfer; steady-state throughput is the bottleneck
    stage's. Provided as a comparison baseline. *)

(** [run stages source]: stage k's program runs on stage k's worker; the
    returned run carries the bottleneck stage's cycle count (stages overlap
    in steady state) and the sum of all stages' memory counters.
    @raise Invalid_argument on an empty stage list. *)
val run : ?label:string -> (Worker.t * Program.t) list -> Workload.source -> Metrics.run
