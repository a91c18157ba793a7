(** Simulated packets: real header bytes that NF actions genuinely parse
    and rewrite, a virtual payload (only its size matters), and a buffer
    address in the simulated physical memory so header accesses are charged
    to the cache model. *)

type t = {
  mutable id : int;  (** unique per construction (arena reuse re-stamps) *)
  mutable buf : Bytes.t;  (** header bytes *)
  mutable hdr_len : int;  (** valid bytes at the front of [buf] *)
  mutable l3_off : int;  (** offset of the (innermost) IPv4 header *)
  mutable l4_off : int;
  mutable wire_len : int;  (** on-wire size including virtual payload *)
  mutable flow : Flow.t;  (** canonical flow identity (not affected by rewrites) *)
  mutable sim_addr : int;  (** simulated buffer address; -1 = unassigned *)
}

val max_header_bytes : int

(** Zero-alloc packet arena: a ring of packet records recycled in place by
    {!make}, {!make_some} or {!Arena.copy}. Reuse by {!make} resets every field to the
    exact state a fresh construction would produce (same global id
    counter, zeroed buffer, unassigned address), so arena-fed runs are
    byte-identical to fresh-allocation runs. Size the ring beyond the
    maximum number of packets simultaneously in flight. *)
module Arena : sig
  type packet := t
  type t

  val default_size : int

  (** @raise Invalid_argument when [size <= 0]. *)
  val create : ?size:int -> unit -> t

  val size : t -> int

  (** Copy a packet into the ring's next record, as {!clone} would copy
      it (same id, fields and header bytes; a buffer that GTP-U
      encapsulation grew is restored to the original's length), and
      return that slot's stored [Some]. Allocates only on a slot's first
      use or when its buffer length differs from the original's. The
      copy stays valid until the ring comes around to its slot again. *)
  val copy : t -> packet -> packet option
end

(** Build an Eth/IPv4/UDP-or-TCP packet for [flow], encoding real headers.
    With [arena], recycle the ring's next record instead of allocating. *)
val make : ?arena:Arena.t -> flow:Flow.t -> wire_len:int -> unit -> t

(** {!make} as a work item's packet option. With [arena], the recycled
    slot's stored [Some], so a pull allocates neither the packet nor the
    option; without, a fresh packet in a fresh [Some]. *)
val make_some : ?arena:Arena.t -> flow:Flow.t -> wire_len:int -> unit -> t option

(** Deep copy sharing no mutable state with the original but keeping its
    id — replay-log entries must re-run as "the same packet" (exactly-once
    dedup and fault injections key on id) even after the original buffer
    was rewritten or recycled. *)
val clone : t -> t

(** Re-derive the 5-tuple from the actual header bytes — reflects rewrites
    performed by NFs, unlike the canonical [flow] field. *)
val flow_of_headers : t -> Flow.t

(** Prepend an outer IPv4/UDP/GTP-U tunnel (UPF downlink). Adjusts offsets,
    header and wire lengths. *)
val encapsulate_gtpu : t -> outer_src:Ipv4.addr -> outer_dst:Ipv4.addr -> teid:int32 -> unit

(** Strip a GTP-U tunnel (UPF uplink); returns the TEID.
    @raise Invalid_argument when the outer headers are not a GTP-U tunnel. *)
val decapsulate_gtpu : t -> int32

module Pool : sig
  (** A DPDK-mempool-like ring of packet buffers in simulated memory;
      buffers recycle round-robin like an RX descriptor ring. *)
  type pool

  val create : Memsim.Layout.t -> count:int -> pool

  (** Assign the next ring buffer's simulated address to the packet. *)
  val assign : pool -> t -> unit
end
