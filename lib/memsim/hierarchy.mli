(** Multi-level cache hierarchy (L1d / L2 / LLC / DRAM) with MSHR-limited
    asynchronous software prefetch.

    This is the substitute for the paper's real Xeon memory hierarchy: the
    simulation charges each state access the latency of the level that serves
    it, and a prefetch overlaps its fill latency with whatever the core does
    next — exactly the two effects the interleaved function-stream execution
    model exploits. Time is a caller-maintained cycle counter. *)

type config = {
  l1_size : int;
  l1_assoc : int;
  l2_size : int;
  l2_assoc : int;
  llc_size : int;
  llc_assoc : int;
  line_bytes : int;
  lat_l1 : int;
  lat_l2 : int;
  lat_llc : int;
  lat_dram : int;
  mshr_count : int;  (** max outstanding fills — bounds memory-level parallelism *)
  stream_num : int;
  stream_den : int;
      (** subsequent contiguous missing lines of one block access pay
          [lat * stream_num / stream_den], modelling hardware stream-in *)
}

(** Geometry and latencies of the paper's Xeon Platinum 8168 testbed at
    2.7 GHz. *)
val default_config : config

type t

(** Which level served a demand line access. [Served_inflight] = the line
    was found in an MSHR (an earlier prefetch's fill still in flight) and
    the access paid the residual wait. *)
type served = Served_l1 | Served_l2 | Served_llc | Served_dram | Served_inflight

(** Observation tap, called once per demand line access with the access
    start time, the line, the serving level, and the cycles charged (after
    the stream discount). Purely observational: installing a tap changes no
    counter, latency, or replacement decision — the telemetry plane's
    inertness guarantee rests on this. *)
type tap = now:int -> line:int -> served:served -> cycles:int -> unit

val create : ?cfg:config -> unit -> t

val config : t -> config

(** Install ([Some f]) or remove ([None]) the access tap. *)
val set_tap : t -> tap option -> unit
val line_bytes : t -> int
val l1 : t -> Cache.t
val l2 : t -> Cache.t
val llc : t -> Cache.t

(** Line numbers spanned by [\[addr, addr+bytes)]. *)
val lines_of : t -> addr:int -> bytes:int -> int list

(** [read t ~now ~addr ~bytes] serves a demand read and returns its latency
    in cycles. A read that finds its line in flight (prefetched but not yet
    arrived) pays only the residual wait. *)
val read : t -> now:int -> addr:int -> bytes:int -> int

(** Demand write; write-allocate with read timing. *)
val write : t -> now:int -> addr:int -> bytes:int -> int

(** [prefetch t ~now ~addr ~bytes] issues non-blocking fills for all lines of
    the block that are not already resident or in flight. Returns the number
    of fills issued; lines are rejected (counted as dropped) when every MSHR
    is busy. *)
val prefetch : t -> now:int -> addr:int -> bytes:int -> int

(** [ready t ~now ~addr ~bytes] is [true] when every line of the block is
    resident in L1/L2 with no fill still in flight — i.e. an access now would
    be cheap. The scheduler's [isPrefetched] test (Algorithm 1, line 7). *)
val ready : t -> now:int -> addr:int -> bytes:int -> bool

(** Number of fills currently outstanding. *)
val mshr_pending_count : t -> now:int -> int

(** The [(line, ready_at)] pairs of fills still outstanding at [now] —
    introspection for invariant checks (every [ready_at > now], and at most
    [mshr_count] entries). *)
val mshr_deadlines : t -> now:int -> (int * int) list

(** Fault-injection hook: occupy every currently-free MSHR slot with a dummy
    in-flight fetch for [cycles] cycles, starving prefetches issued before
    the deadline (they are dropped as MSHR-full). Dummy lines never match a
    demand access or readiness check, so behaviour is timing/stats-only.
    Returns the number of slots stalled (also counted in
    {!Memstats.t.mshr_stalls}). *)
val stall_mshrs : t -> now:int -> cycles:int -> int

(** Snapshot of all counters (monotonic; diff two snapshots to measure a
    run). *)
val counters : t -> Memstats.t

(** Empty all levels and MSHRs (counters preserved). *)
val clear : t -> unit
