(** Aggregate memory-hierarchy counters.

    Obtained from {!Hierarchy.counters} as a snapshot; use {!diff} to measure
    a bounded run and {!add} to aggregate across cores. *)

type t = {
  reads : int;  (** demand read operations (possibly multi-line) *)
  writes : int;  (** demand write operations *)
  line_accesses : int;  (** individual line lookups performed *)
  l1_hits : int;
  l2_hits : int;  (** lines served from L2 (L1 miss) *)
  llc_hits : int;  (** lines served from LLC *)
  dram_fills : int;  (** lines served from DRAM (= LLC misses) *)
  mshr_waits : int;  (** demand accesses that found an in-flight prefetch *)
  wait_cycles : int;  (** cycles spent waiting on in-flight prefetches *)
  prefetch_issued : int;
  prefetch_redundant : int;  (** prefetch of a resident or pending line *)
  prefetch_dropped : int;  (** prefetch rejected because all MSHRs were busy *)
  mshr_stalls : int;  (** injected MSHR-starvation stalls (fault-injection plane) *)
}

val zero : t

(** [diff a b] is the field-wise difference [a - b]. *)
val diff : t -> t -> t

val add : t -> t -> t

(** Lines not served by L1 (includes MSHR waits). *)
val l1_misses : t -> int

(** Lines not served by L1, L2 or an in-flight prefetch. *)
val l2_misses : t -> int

(** Lines that had to be fetched from DRAM. *)
val llc_misses : t -> int

val l1_hit_rate : t -> float
