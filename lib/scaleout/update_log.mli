(** Compact per-flow state-update records — the unit of state SCR ships
    between replicas instead of packets. A record is an {e absolute}
    snapshot of one flow's observable NF state (the Migration layer's
    named single-flow export blobs) plus the fault plane's per-flow
    containment, stamped with the flow's dense 1-based sequence number.
    Absoluteness buys coalescing (only the latest pending record per flow
    needs applying) and idempotence (re-application is harmless). *)

exception Bad_update of string

type record = {
  u_flow : int;  (** universe flow id *)
  u_seq : int;  (** per-flow sequence number, 1-based, dense *)
  u_payload : (string * string) list;  (** NF name -> single-flow state blob *)
  u_consec : int;  (** containment: consecutive faults on this flow *)
  u_poisoned : bool;
}

(** "GUPD1" wire format, little-endian: magic, u32 flow, u32 seq,
    u32 consec, u8 poisoned, u16 blob count, then (u16 name length, name,
    u32 blob length, blob) per blob, closed by a u32 FNV-1a checksum over
    everything before it — so decode rejects truncation {e and} bit flips.
    @raise Invalid_argument on a field the frame cannot hold: a flow or
    fault count outside \[0, 2{^32}), a sequence outside \[1, 2{^32}),
    more than 65,535 blobs, a name over 65,535 bytes or a blob of
    2{^32} bytes or more. *)
val encode : record -> string

(** @raise Bad_update on bad magic, truncation, trailing bytes, checksum
    mismatch, or out-of-range fields. *)
val decode : string -> record

(** Check that [frame] is exactly [record]'s GUPD1 frame, walking it in
    place as {!decode} does but building nothing.
    @raise Bad_update on anything {!decode} rejects, and on a well-formed
    frame whose flow, sequence, containment pair, blob count, any NF name
    or any blob differs from [record]'s. *)
val verify : string -> record -> unit

(** {2 Per-core emitted records}

    A log counts the records a core ships and owns the one frame they are
    encoded into, grown to the largest record shipped. *)

type t

val create : unit -> t

(** Encode [record] into the log's frame, check the frame in place
    against [record] (as {!verify}) and count it; the record itself is
    not kept. Allocates nothing once the frame has grown to fit.
    @raise Invalid_argument as {!encode}.
    @raise Bad_update when the frame does not hold exactly [record]. *)
val ship : t -> record -> unit

(** Records shipped. *)
val length : t -> int

(** {2 Sequence-monotonic application}

    An applier tracks a resident sequence number per (flow slot, core)
    and hands only strictly newer records to [apply]. Because records are
    absolute, this makes application deterministic and order-insensitive
    across every interleaving that respects per-flow sequence order. A
    slot is the caller's dense index for a flow (SCR numbers a run's
    flows in first-arrival order), so the store is sized by the flows in
    use, not by the flow universe. *)

type applier

(** An applier over slots \[0, [slots]) on cores \[0, [cores]), whose
    resident sequence numbers are held in one flat slot-major u32 store
    of 4·[slots]·[cores] bytes: a slot's marks for every core are
    adjacent. [apply c r] applies [r] on core [c].
    @raise Invalid_argument on a negative [slots] or a non-positive
    [cores]. *)
val applier : slots:int -> cores:int -> apply:(int -> record -> unit) -> applier

(** The slot's resident sequence number on [core] (0 when never seen).
    @raise Invalid_argument on a slot or core outside the store. *)
val resident : applier -> core:int -> int -> int

(** Record a local completion: the slot's state was produced in place on
    [core], so its resident sequence advances without an apply.
    @raise Invalid_argument on a slot or core outside the store or a
    sequence number of 2{^32} or more. *)
val advance : applier -> core:int -> slot:int -> seq:int -> unit

(** Apply the record on [core] if it is newer than the slot's resident
    state there; returns [false] (and counts it stale) otherwise.
    @raise Invalid_argument, before applying anything, on a slot or core
    outside the store or a sequence number of 2{^32} or more. *)
val offer : applier -> core:int -> slot:int -> record -> bool

val applied : applier -> int
val stale : applier -> int

(** Largest sequence gap bridged by a single apply — how far a replica's
    view of a flow lagged before it next needed it. *)
val max_lag : applier -> int
