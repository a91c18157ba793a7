(** The stateful flow classifier module (Listing 1, Fig 6(b)): a
    cuckoo-hash match module decomposed into
    get_key / hash_1 / bucket_check_1 / key_check_1 / hash_2 /
    bucket_check_2 / key_check_2 NFActions — each bucket probe is two
    dependent cache-line reads, each its own action whose line address is
    resolved (and hence prefetchable) one step ahead. *)

open Gunfu

(** The Listing-1 module specification (parsed once). *)
val spec : Spec.module_spec Lazy.t

type t = {
  name : string;
  table : Structures.Cuckoo.t;
  key_kind : string;  (** what the key identifies; drives match removal *)
  key_fn : Nftask.t -> unit;
      (** writes the task's key into its 8-byte slot [temps.key] *)
  header_bytes : int;
}

(** Canonical 5-tuple key (rewrites do not change a flow's identity — what
    makes redundant-matching removal sound). *)
val five_tuple_key : Nftask.t -> unit

(** Destination-IP key (the UPF downlink session lookup). *)
val dst_ip_key : Nftask.t -> unit

val create :
  Memsim.Layout.t -> name:string -> key_kind:string -> key_fn:(Nftask.t -> unit) ->
  capacity:int -> unit -> t

val table : t -> Structures.Cuckoo.t

(** Insert [key -> per-flow index] pairs. Table overflow resolves per
    [policy] (default [Drop_new]) instead of raising; the result is the
    number of entries that are *not* resident afterwards (rejected new
    entries, or victims displaced by [Evict_lru]) — 0 on a well-sized
    table. *)
val populate :
  ?policy:Structures.Cuckoo.overflow_policy -> t -> (int64 * int) list -> int

(** {!populate} with [Flow.key64 flows.(i) -> i] for each flow, in array
    order, under [Drop_new]. *)
val populate_flows : t -> Netcore.Flow.t array -> int

(** The compiler-ready instance (actions + prefetch bindings). *)
val instance : t -> Compiler.instance
