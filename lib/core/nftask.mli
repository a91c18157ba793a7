(** NFTask (§V, Fig 9a): the lightweight execution environment of one
    function stream — all context needed to process one packet. Fields are
    deliberately public: the scheduler, the compiler-generated actions and
    the NF implementations all manipulate them directly, like the C struct
    of the paper. *)

(** The cache-management P-state: has the pending action's NFState been
    prefetched? *)
type p_state =
  | P_none  (** no prefetch issued yet *)
  | P_issued  (** fills in flight; re-check before running *)
  | P_ready  (** state resident (or nothing to fetch); may run *)

(** Temporaries persisting between the NFActions of one packet. *)
type temps = {
  key : Bytes.t;
      (** flow key being matched, as 8 little-endian bytes: the key
          extractor writes it and the table probes read it in place *)
  mutable h1 : int;  (** primary cuckoo bucket *)
  mutable h2 : int;  (** alternate cuckoo bucket *)
  mutable cursor : int;  (** MDI tree node during a walk *)
  mutable regs : int array;  (** NF-C temporaries *)
}

type t = {
  id : int;
  mutable cs : int;  (** current control-logic state *)
  mutable event : Event.t;  (** event driving the next transition *)
  mutable packet : Netcore.Packet.t option;
  mutable aux : int;  (** non-packet input, e.g. the AMF message code *)
  mutable flow_hint : int;  (** flow/session/UE index; -1 unknown *)
  mutable matched : int;  (** per-flow index from matching; -1 none *)
  mutable sub_matched : int;  (** sub-flow index; -1 none *)
  mutable match_addr : int;
      (** address of the block the next match action will read; -1 none *)
  mutable match_bytes : int;  (** size of that block *)
  mutable blocks : int array;
      (** block [i]'s address at [2i] and size at [2i + 1]; the first
          [n_blocks] are what [p_state] refers to, the rest scratch space *)
  mutable n_blocks : int;  (** blocks resolved by the last Fetch step *)
  mutable p_state : p_state;
  mutable active : bool;  (** [false]: free slot awaiting work *)
  mutable start_clock : int;  (** cycle the work item was loaded (latency) *)
  temps : temps;
}

val create : int -> t

(** Load a new unit of work (Algorithm 1 lines 4/13): resets all per-packet
    context. [aux] is 0 and [flow_hint] -1 when the work item has none. *)
val load :
  t -> cs:int -> packet:Netcore.Packet.t option -> aux:int -> flow_hint:int -> unit

(** Set the block ([match_addr], [match_bytes]) the next match action reads. *)
val set_match : t -> addr:int -> bytes:int -> unit

(** Write block [i] of [blocks], growing the array when [i] is past its
    end. *)
val set_block : t -> int -> addr:int -> bytes:int -> unit

(** The address and the size of block [i]. *)
val block_addr : t -> int -> int
val block_bytes : t -> int -> int

val retire : t -> unit

(** @raise Invalid_argument when the task holds no packet. *)
val packet_exn : t -> Netcore.Packet.t
