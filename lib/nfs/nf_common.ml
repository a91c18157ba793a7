(* Shared helpers for NFAction bodies: charging packet / per-flow / sub-flow
   accesses against the simulated hierarchy with the right state class. *)

open Gunfu
open Structures

let packet_read ctx (task : Nftask.t) ~bytes =
  match task.Nftask.packet with
  | Some p when p.Netcore.Packet.sim_addr >= 0 ->
      Exec_ctx.read ctx ~cls:Sref.Packet_state ~addr:p.Netcore.Packet.sim_addr ~bytes
  | Some _ | None -> ()

let packet_write ctx (task : Nftask.t) ~bytes =
  match task.Nftask.packet with
  | Some p when p.Netcore.Packet.sim_addr >= 0 ->
      Exec_ctx.write ctx ~cls:Sref.Packet_state ~addr:p.Netcore.Packet.sim_addr ~bytes
  | Some _ | None -> ()

(* The block the previous match step resolved, if any. *)
let match_read ctx (task : Nftask.t) =
  if task.Nftask.match_addr >= 0 then
    Exec_ctx.read ctx ~cls:Sref.Match_state ~addr:task.Nftask.match_addr
      ~bytes:task.Nftask.match_bytes

let matched_exn (task : Nftask.t) name =
  if task.Nftask.matched < 0 then
    failwith (name ^ ": data action executed without a match result");
  task.Nftask.matched

let per_flow_read ctx (task : Nftask.t) arena ~name =
  let idx = matched_exn task name in
  Exec_ctx.read ctx ~cls:Sref.Per_flow ~addr:(State_arena.addr arena idx)
    ~bytes:(State_arena.entry_bytes arena);
  idx

let per_flow_write ctx (task : Nftask.t) arena ~name =
  let idx = matched_exn task name in
  Exec_ctx.write ctx ~cls:Sref.Per_flow ~addr:(State_arena.addr arena idx)
    ~bytes:(State_arena.entry_bytes arena);
  idx

let sub_flow_read ctx (task : Nftask.t) arena ~name =
  if task.Nftask.sub_matched < 0 then
    failwith (name ^ ": data action executed without a sub-flow match");
  let idx = task.Nftask.sub_matched in
  Exec_ctx.read ctx ~cls:Sref.Sub_flow ~addr:(State_arena.addr arena idx)
    ~bytes:(State_arena.entry_bytes arena);
  idx
