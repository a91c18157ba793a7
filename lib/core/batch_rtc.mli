(** Run-to-completion with batched software prefetching — the
    CuckooSwitch / G-opt style prior art of §II-C. Per RX batch: a prefetch
    pass pre-runs each packet's pure match prefix (key extraction + first
    hash) and prefetches the resolved first bucket plus the headers; a
    processing pass then runs each packet to completion. Control-flow-
    dependent accesses after the first bucket (second bucket, key store,
    tree descent, per-flow state, later NFs) remain demand misses — the
    divergence limitation the interleaved model removes. *)

val default_batch : int

(** The loop over [core]: builds the batch's [batch] tasks and the
    pre-runnable prefix and returns the feed, which drains a source in
    batches. Every feed starts a fresh batch, so a source shorter than
    [batch] is one partial batch. The core's quiesce hook is polled before
    each batch fill (batch boundaries are quiescent); once it answers
    [true] the feed returns with pulled = completed.
    @raise Invalid_argument when [batch <= 0]. *)
val loop : batch:int -> Engine.t -> Workload.source -> unit
