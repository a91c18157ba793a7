(* Pre-allocated per-flow / sub-flow state datablocks (§V, "NF Management"):
   the runtime allocates [count] fixed-size entries up front; a successful
   match yields an entry index, and actions reach their state at
   [base + index * stride].

   Two layouts:
   - {!create}: one arena per state type, each entry starting on its own
     cache line (the conventional, unpacked layout).
   - {!create_group}: the data-packed layout — the per-flow states of
     several consecutive NFs for the same flow share one entry, packed into
     the fewest cache lines (§VI-B, SFC case). *)

let line_bytes = 64

let round_up v m = (v + m - 1) / m * m

type t = {
  label : string;
  base : int;
  stride : int;
  entry_bytes : int;
  count : int;
  field_offsets : (string * int) list;  (* empty for opaque entries *)
}

let create layout ~label ~entry_bytes ~count () =
  if entry_bytes <= 0 || count <= 0 then invalid_arg "State_arena.create";
  let stride = round_up entry_bytes line_bytes in
  let base = Memsim.Layout.alloc_array layout ~align:64 ~label ~stride ~count () in
  { label; base; stride; entry_bytes; count; field_offsets = [] }

(* Layout with explicit field offsets (e.g. produced by {!Packing.pack} or
   {!Packing.sequential}). *)
let create_record layout ~label ~field_offsets ~record_bytes ~count () =
  if record_bytes <= 0 || count <= 0 then invalid_arg "State_arena.create_record";
  let stride = round_up record_bytes line_bytes in
  let base = Memsim.Layout.alloc_array layout ~align:64 ~label ~stride ~count () in
  { label; base; stride; entry_bytes = record_bytes; count; field_offsets }

let label t = t.label
let stride t = t.stride
let entry_bytes t = t.entry_bytes

let addr t idx =
  if idx < 0 || idx >= t.count then invalid_arg "State_arena.addr: index out of range";
  t.base + (idx * t.stride)

(* [List.assoc] rather than [assoc_opt]: the hit path, taken per
   field-sliced access, allocates no [Some]. *)
let field_addr t idx name =
  match List.assoc name t.field_offsets with
  | off -> addr t idx + off
  | exception Not_found -> invalid_arg ("State_arena.field_addr: unknown field " ^ name)

let field_offset t name =
  match List.assoc name t.field_offsets with
  | off -> off
  | exception Not_found -> invalid_arg ("State_arena.field_offset: unknown field " ^ name)

let lines_per_entry t = round_up t.entry_bytes line_bytes / line_bytes

(* ----- packed groups ----- *)

type group = { arena : t; member_bytes : (string * int) array }

(* [create_group layout ~label ~members ~count ()] packs one entry per flow
   holding every member's state contiguously. Member [m] of flow [i] lives
   at [group_addr g i m]. *)
let create_group layout ~label ~members ~count () =
  if members = [] then invalid_arg "State_arena.create_group: no members";
  let offsets, total =
    List.fold_left
      (fun (acc, off) (name, bytes) ->
        if bytes <= 0 then invalid_arg "State_arena.create_group: bad member size";
        let off = round_up off (min 8 bytes |> max 1) in
        ((name, off) :: acc, off + bytes))
      ([], 0) members
  in
  let arena =
    create_record layout ~label ~field_offsets:(List.rev offsets)
      ~record_bytes:total ~count ()
  in
  { arena; member_bytes = Array.of_list members }

let group_arena g = g.arena

let group_addr g idx name = field_addr g.arena idx name

(* A view presents one member of a packed group as an ordinary arena: entry
   [i] of the view is member [name] inside packed entry [i]. NFs written
   against plain arenas work unchanged on packed layouts. *)
let view g ~member =
  let off = field_offset g.arena member in
  let bytes =
    let rec go i =
      if i = Array.length g.member_bytes then
        invalid_arg ("State_arena.view: unknown member " ^ member)
      else
        let n, b = g.member_bytes.(i) in
        if String.equal n member then b else go (i + 1)
    in
    go 0
  in
  {
    label = g.arena.label ^ "." ^ member;
    base = g.arena.base + off;
    stride = g.arena.stride;
    entry_bytes = bytes;
    count = g.arena.count;
    field_offsets = [];
  }

let group_member_bytes g name =
  let rec go i =
    if i = Array.length g.member_bytes then
      invalid_arg ("State_arena.group_member_bytes: unknown member " ^ name)
    else
      let n, b = g.member_bytes.(i) in
      if String.equal n name then b else go (i + 1)
  in
  go 0
