(* Prefetch policy (§V, "Cache Management"): the compiler attaches to every
   control state a list of symbolic targets describing the NFState the
   state's action will access. At the scheduler's Fetch step the targets
   resolve — via the NFTask's references — to concrete (address, size)
   blocks that the software prefetcher pushes towards L1/L2.

   Targets are symbolic (not closures) so the redundant-prefetch-removal
   pass can compare them across control states. *)

open Structures

type target =
  | Packet_header of int
      (* first [n] bytes of the packet buffer (headers) *)
  | Match_addrs
      (* the block the previous match step resolved *)
  | Per_flow of State_arena.t * (string * int) list
      (* per-flow entry of this module's arena at index [task.matched];
         with a non-empty field list, only those (field, bytes) slices *)
  | Sub_flow of State_arena.t * (string * int) list
      (* as Per_flow, at index [task.sub_matched] *)
  | Fixed of Sref.t
      (* a fixed region, e.g. control state *)

let class_of = function
  | Packet_header _ -> `Packet
  | Match_addrs -> `Match_addrs
  | Per_flow _ -> `Per_flow
  | Sub_flow _ -> `Sub_flow
  | Fixed _ -> `Fixed

(* Structural equality; arenas compare by label (unique per instance). *)
let equal_target a b =
  match (a, b) with
  | Packet_header x, Packet_header y -> x = y
  | Match_addrs, Match_addrs -> true
  | Per_flow (ar1, f1), Per_flow (ar2, f2) | Sub_flow (ar1, f1), Sub_flow (ar2, f2) ->
      String.equal (State_arena.label ar1) (State_arena.label ar2) && f1 = f2
  | Fixed s1, Fixed s2 -> s1 = s2
  | _ -> false

(* The resolver writes blocks into the task's array ([Nftask.blocks]),
   starting at block [at] and returning the index past the last one, so a
   Fetch step allocates nothing. *)
let block (task : Nftask.t) at ~addr ~bytes =
  Nftask.set_block task at ~addr ~bytes;
  at + 1

let rec field_blocks task arena idx at = function
  | [] -> at
  | (name, bytes) :: rest ->
      let at = block task at ~addr:(State_arena.field_addr arena idx name) ~bytes in
      field_blocks task arena idx at rest

let arena_blocks task arena idx fields at =
  if idx < 0 then at
  else
    match fields with
    | [] ->
        block task at ~addr:(State_arena.addr arena idx)
          ~bytes:(State_arena.entry_bytes arena)
    | fields -> field_blocks task arena idx at fields

(* Unresolvable targets (e.g. no match result yet) write nothing — the
   action will simply demand-fetch. *)
let resolve_target (task : Nftask.t) at = function
  | Packet_header n -> (
      match task.Nftask.packet with
      | Some p when p.Netcore.Packet.sim_addr >= 0 ->
          block task at ~addr:p.Netcore.Packet.sim_addr ~bytes:n
      | Some _ | None -> at)
  | Match_addrs ->
      if task.Nftask.match_addr < 0 then at
      else block task at ~addr:task.Nftask.match_addr ~bytes:task.Nftask.match_bytes
  | Per_flow (arena, fields) -> arena_blocks task arena task.Nftask.matched fields at
  | Sub_flow (arena, fields) -> arena_blocks task arena task.Nftask.sub_matched fields at
  | Fixed s -> block task at ~addr:s.Sref.addr ~bytes:s.Sref.bytes

let rec resolve targets task ~at =
  match targets with
  | [] -> at
  | t :: rest -> resolve rest task ~at:(resolve_target task at t)

let pp_target ppf = function
  | Packet_header n -> Fmt.pf ppf "packet[0..%d]" n
  | Match_addrs -> Fmt.string ppf "match_addrs"
  | Per_flow (a, []) -> Fmt.pf ppf "per_flow(%s)" (State_arena.label a)
  | Per_flow (a, fs) ->
      Fmt.pf ppf "per_flow(%s){%a}" (State_arena.label a)
        Fmt.(list ~sep:comma string)
        (List.map fst fs)
  | Sub_flow (a, []) -> Fmt.pf ppf "sub_flow(%s)" (State_arena.label a)
  | Sub_flow (a, fs) ->
      Fmt.pf ppf "sub_flow(%s){%a}" (State_arena.label a)
        Fmt.(list ~sep:comma string)
        (List.map fst fs)
  | Fixed s -> Sref.pp ppf s
