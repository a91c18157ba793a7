(** Elastic scaling of stateful NFs (related work, §VIII "Separation of
    Data and Code"): per-flow state decoupled from code can be exported
    from one instance and imported into another (scale-out / failover)
    without breaking connections. Snapshots use an explicit little-endian
    wire format.

    {2 Formats}

    A frame is a 5-byte magic, a u32 entry count, then that many
    fixed-size entries. Every classifier-keyed entry starts with the
    flow's u64 classifier key.

    {v
    magic  entry  payload after the key          codec
    GNAT1  14     external ip u32, port u16      nat
    GNMC1  24     packets u64, bytes u64         monitor
    GNLB1  10     backend index u16              lb
    GNFW1   9     verdict u8 (0 drop, 1 accept)  firewall
    GSYN1  24     flow id u32, seq u32,          Check.Recovery.syn_codec
                  scratch u64
    GUPF1   8     ue_ip u32, teid u32 (no key)   export_upf / import_upf
    v}

    {2 Import and apply}

    {!import} gives every entry a fresh slot and points its key there;
    {!apply} is the SCR update upsert: a resident key keeps its slot and
    has its state overwritten, an absent one is admitted. An SCR update
    record is an absolute per-flow state snapshot, so applying only the
    latest record for a flow equals applying all of them in order, and
    re-applying is idempotent.

    Both are all-or-nothing. The frame is parsed and every entry validated
    before the first mutation; then every key is pointed at its slot, and
    only then are payloads written. If a slot or a table insert is refused,
    each key gets back the value it held before (a key the target already
    held stays resident) and every taken slot is released, so the target
    is as it was.
    @raise Bad_snapshot on a malformed frame, an invalid entry or a full
    target. *)

open Gunfu

exception Bad_snapshot of string

(** One wire format for the state of an NF whose per-flow state sits in
    slot-indexed arrays behind a {!Classifier}. A codec is a static value:
    its functions take the NF, so binding one to an instance builds
    nothing per call. Payload functions work on (frame, entry offset):
    the key sits at the offset, the payload after it.

    Slots are allocated from the NF's own arena: recycled slots first (NAT
    only), then the bump region [next_free .. capacity). *)
type 'nf codec = {
  magic : string;
  entry_bytes : int;  (** key included *)
  label : string;  (** names the NF in {!Bad_snapshot} messages *)
  arena : string;  (** names its slot arena in them *)
  classifier : 'nf -> Classifier.t;
  encode : 'nf -> Bytes.t -> int -> int -> unit;  (** frame, offset, slot *)
  validate : ('nf -> string -> int -> unit) option;
      (** raises {!Bad_snapshot} on an entry the target cannot hold *)
  decode : 'nf -> string -> int -> int -> unit;  (** frame, offset, slot *)
  capacity : 'nf -> int;
  next_free : 'nf -> int;
  set_next_free : 'nf -> int -> unit;
  recycling : 'nf recycling option;
      (** evicted slots are scrubbed (an all-zero entry decodes to an
          unused slot) and queued here for reuse *)
  feed : 'nf -> Fingerprint.t -> int -> unit;  (** one slot's observable state *)
}

and 'nf recycling = {
  free_slots : 'nf -> int list;
  set_free_slots : 'nf -> int list -> unit;
}

val nat : Nat.t codec

(** Counters carry absolute totals: import and apply overwrite, never add. *)
val monitor : Monitor.t codec

(** Backend indices are validated against the target's backends. *)
val lb : Lb.t codec

(** Verdict bytes outside [{0,1}] are rejected. *)
val firewall : Firewall.t codec

(** One exact-size frame holding the given flows' state; flows without
    resident state are skipped. *)
val export : 'nf codec -> 'nf -> Netcore.Flow.t list -> string

(** Remove the flows' keys (after export): later packets of these flows
    MATCH_FAIL. A recycling codec frees their slots for reuse. *)
val evict : 'nf codec -> 'nf -> Netcore.Flow.t list -> unit

(** Entries installed. See "Import and apply" above. *)
val import : 'nf codec -> 'nf -> string -> int

val apply : 'nf codec -> 'nf -> string -> int

(** One flow's location-independent state: whether it is resident and, if
    so, its slot's {!codec.feed}. *)
val flow_digest : 'nf codec -> 'nf -> Fingerprint.t -> Netcore.Flow.t -> unit

(** [export monitor] and [apply monitor]: SCR's per-record hot path. *)
val export_monitor : Monitor.t -> Netcore.Flow.t list -> string

val apply_monitor : Monitor.t -> string -> int

(** {2 UPF}

    PFCP sessions by identity (UE IP, TEID). They are admitted through
    {!Upf.install_session}, keyed by UE IP, not through a codec. Import is
    all-or-nothing: a mid-import rejection tears the installed prefix back
    out and rewinds [n_active]. Apply leaves resident sessions alone
    (session identity is immutable) and admits absent ones.

    UPF stays off {!codec}. A GUPF1 entry carries no classifier key: the
    UE IP is both key and payload. A session is admitted, not slotted:
    {!Upf.install_session} takes the next session slot itself, keys both
    the UE IP and the TEID classifier, and can refuse with a PFCP cause.
    A codec decodes into a slot that {!import} allocated and keys one
    classifier, so fitting UPF in would make the shared import and apply
    branch on their caller.
    @raise Bad_snapshot on malformed input or a full target. *)

val export_upf : Upf.t -> Netcore.Ipv4.addr list -> string
val import_upf : Upf.t -> string -> int
val apply_upf : Upf.t -> string -> int
