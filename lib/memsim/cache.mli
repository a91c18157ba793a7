(** A single set-associative cache level with LRU replacement.

    The cache tracks only the {e presence} of 64-byte (configurable) lines of
    the simulated physical address space; actual data contents live in
    ordinary OCaml values elsewhere. This is all the paper's evaluation
    needs: hit/miss placement per level drives every reported metric.

    Every function keyed by line number ([*_line]) raises
    [Invalid_argument] on a negative line: no set holds one. *)

type t

(** [create ~size_bytes ~assoc ~line_bytes] builds an empty cache.
    [size_bytes] must equal [nsets * assoc * line_bytes] with [line_bytes] a
    power of two; [nsets] may be any positive count (the default 33 MiB
    11-way LLC has 49,152 sets). A power-of-two [nsets] is indexed with a
    mask; any other is indexed by a reciprocal multiply that equals
    [line mod nsets] exactly for [0 <= line < 2^50], with [mod] itself
    beyond that range.
    @raise Invalid_argument on malformed geometry. *)
val create : size_bytes:int -> assoc:int -> line_bytes:int -> t

val line_bytes : t -> int
val nsets : t -> int
val assoc : t -> int
val capacity_bytes : t -> int

(** [access t addr] performs a tag check; on hit, recency is refreshed and
    the result is [true]. Updates hit/miss counters. *)
val access : t -> int -> bool

(** Fused miss-path probe by line number: identical to [access] in
    counters and recency effects, but returns [1] on hit and
    [-(valid_ways + 1)] on miss so a following [fill_line] can install
    without re-scanning the set. *)
val probe_line : t -> int -> int

(** [locate_line t line] is the pure form of [probe_line]: the way (0 =
    MRU) holding [line], or [-(valid_ways + 1)] when it is absent. No
    counter or recency changes. *)
val locate_line : t -> int -> int

(** [fill_line t line valid_ways] installs an absent [line], given the
    [valid_ways] a [probe_line] miss or a negative [locate_line] just
    reported for its set. The contract is that nothing touches [t] between
    that call and this one; then the eviction decision and the counters are
    those of [install_line] on the absent line. Returns the evicted line,
    or [-1] when a free way took it. *)
val fill_line : t -> int -> int -> int

(** Presence test without touching LRU state or counters. *)
val contains : t -> int -> bool

val contains_line : t -> int -> bool

(** [install t addr] brings the line of [addr] in, evicting the LRU way of
    its set when full. Returns the evicted line number, if any. Installing a
    present line only refreshes recency. *)
val install : t -> int -> int option

(** As [install], keyed by line number; returns the evicted line or [-1]. *)
val install_line : t -> int -> int

val invalidate : t -> int -> unit

(** Drop all lines (counters preserved). *)
val clear : t -> unit

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val installs : t -> int

(** Number of currently valid lines. *)
val resident_lines : t -> int
