(** Pre-allocated per-flow / sub-flow state datablocks (§V "NF Management"):
    entries are allocated up front; a match result is an index, and actions
    reach state at [base + index * stride].

    Layouts: {!create} gives each state type its own arena with one line
    per entry (the conventional unpacked layout); {!create_group} packs the
    per-flow states of several chained NFs into one entry (data packing,
    §VI-B); {!create_record} lays a record out by explicit field offsets
    (e.g. from {!Packing}). *)

type t

(** @raise Invalid_argument on non-positive sizes. *)
val create : Memsim.Layout.t -> label:string -> entry_bytes:int -> count:int -> unit -> t

(** Record arena with named field offsets (from {!Packing.pack} or
    {!Packing.sequential}). *)
val create_record :
  Memsim.Layout.t -> label:string -> field_offsets:(string * int) list ->
  record_bytes:int -> count:int -> unit -> t

val label : t -> string
val stride : t -> int
val entry_bytes : t -> int
val lines_per_entry : t -> int

(** Simulated address of entry [idx].
    @raise Invalid_argument when out of range. *)
val addr : t -> int -> int

(** Address of a named field inside entry [idx].
    @raise Invalid_argument on unknown fields. *)
val field_addr : t -> int -> string -> int

val field_offset : t -> string -> int

(** {2 Packed groups} *)

type group

(** One packed entry per flow holding every member's state contiguously. *)
val create_group :
  Memsim.Layout.t -> label:string -> members:(string * int) list -> count:int ->
  unit -> group

val group_arena : group -> t
val group_addr : group -> int -> string -> int
val group_member_bytes : group -> string -> int

(** Present one member of a group as an ordinary arena: NFs written against
    plain arenas run unchanged on packed layouts. *)
val view : group -> member:string -> t
