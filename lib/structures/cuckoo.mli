(** Cuckoo hash table over simulated memory — the match-state structure of
    the flow classifier (Fig 6(b), Listing 1).

    CuckooSwitch-style geometry: two candidate buckets per key, four slots
    per bucket, one bucket per cache line (fingerprints + value indices),
    with full keys in a separate key-store line per bucket. The table logic
    is real; cache behaviour comes from callers charging reads of
    {!bucket_addr} / {!key_addr} to the memory hierarchy, one action per
    probe step. *)

type t

val slots_per_bucket : int
val bucket_bytes : int

(** Sized for ~80% max load factor over [capacity] entries.
    @raise Invalid_argument when [capacity <= 0]. *)
val create : Memsim.Layout.t -> label:string -> capacity:int -> unit -> t

val nbuckets : t -> int
val population : t -> int
val load_factor : t -> float

(** {2 Probes over a key where it lies}

    The per-step probes read the key from a buffer: 8 little-endian bytes
    at [off] (an NFTask's key slot, written by {!Netcore.Flow.write_key64}).
    An [int64] argument would be boxed at every call from another module
    when modules are compiled without cross-module inlining. *)

(** Primary / alternate bucket of the key at [off]. *)
val hash1 : t -> Bytes.t -> int -> int

val hash2 : t -> Bytes.t -> int -> int

(** Simulated address of a bucket's line / of its out-of-line key store. *)
val bucket_addr : t -> int -> int

val key_addr : t -> int -> int

(** 16-bit key fingerprint as stored in bucket lines. *)
val fingerprint : int64 -> int

(** Slots of [bucket] whose fingerprint matches the key at [off] —
    decidable from the bucket line alone (the bucket_check action). *)
val candidates : t -> bucket:int -> Bytes.t -> int -> int list

(** Whether {!candidates} is non-empty, decided without allocating. *)
val has_candidate : t -> bucket:int -> Bytes.t -> int -> bool

(** Full-key comparison within one bucket (the key_check action): the
    value of the key at [off], or [-1] when the bucket does not hold it. *)
val find_in_bucket : t -> bucket:int -> Bytes.t -> int -> int

(** {2 Whole-key lookups} *)

(** Two-bucket lookup (pure table logic; RTC and tests). *)
val lookup : t -> int64 -> int option

(** {!lookup} without the option: the key's value, or [-1] when absent. *)
val find : t -> int64 -> int

(** {!find} of the little-endian key at [off] of a snapshot frame, read in
    place, so the key is not boxed. *)
val find_string : t -> string -> int -> int

(** Insert or update; random-walk displacement on conflicts. [false] means
    the walk exceeded 500 displacements (no entry is lost).
    @raise Invalid_argument unless [0 <= value < 2^46] (a slot packs the
    value with the key's 16-bit fingerprint into one word). *)
val insert : t -> key:int64 -> value:int -> bool

val delete : t -> int64 -> bool

(** What a state structure does when an insert finds the table full.
    [Drop_new] rejects the new entry (legacy behaviour, minus the crash);
    [Evict_lru] displaces the stalest resident of the key's two candidate
    buckets to make room; [Shed_flow] rejects and asks the caller to
    quarantine the offending flow (the caller raises a contained fault). *)
type overflow_policy = Drop_new | Evict_lru | Shed_flow

(** Outcome of {!insert_policy}. [Evicted] carries the displaced resident so
    the caller can release any out-of-table resources tied to it. *)
type insert_result =
  | Inserted
  | Updated
  | Evicted of { victim_key : int64; victim_value : int }
  | Rejected

(** Like {!insert} but overflow resolves per [policy] instead of just
    reporting [false]. Deterministic: LRU order comes from per-slot
    insertion stamps, ties break on scan order.
    @raise Invalid_argument unless [0 <= value < 2^46], as {!insert}. *)
val insert_policy :
  t -> policy:overflow_policy -> key:int64 -> value:int -> insert_result
