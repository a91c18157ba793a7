(* Packet spraying: SCR's dispatch discipline. Because every core holds a
   full state replica, the NIC may send a packet to ANY core — there is no
   flow affinity to preserve, which is exactly what makes the model immune
   to flow-size skew. The only obligation the dispatcher retains is
   bookkeeping: stamping each item of a flow with its dense per-flow
   sequence number, so replicas can order that flow's update stream.

   Any assignment whatsoever is legal (the oracle's SCR axis fuzzes seeded
   sprays to prove it); the policies here are the two a real NIC would
   implement — pure round-robin, and a seeded uniform hash. *)

open Gunfu

type policy = Round_robin | Seeded of int

(* splitmix-style avalanche: uniform, deterministic in (seed, index). *)
let mix seed g =
  let z = (g + 0x9E3779B9) lxor (seed * 0x85EBCA6B) in
  let z = (z lxor (z lsr 15)) * 0x2545F491 land max_int in
  let z = (z lxor (z lsr 13)) * 0x5AB3B58D land max_int in
  z lxor (z lsr 16)

type slot = {
  s_core : int;
  s_seq : int;  (* dense 1-based per-flow sequence; 0 for hintless items *)
}

let assign policy ~cores (items : Workload.item list) =
  if cores <= 0 then invalid_arg "Spray.assign: cores must be positive";
  let slots = Array.make (List.length items) { s_core = 0; s_seq = 0 } in
  let seqs = Itbl.create 256 in
  List.iteri
    (fun g (item : Workload.item) ->
      let f = item.Workload.flow_hint in
      let seq =
        if f < 0 then 0
        else begin
          let seq = 1 + (match Itbl.find seqs f with n -> n | exception Not_found -> 0) in
          Itbl.replace seqs f seq;
          seq
        end
      in
      let core =
        match policy with Round_robin -> g mod cores | Seeded seed -> mix seed g mod cores
      in
      slots.(g) <- { s_core = core; s_seq = seq })
    items;
  slots
