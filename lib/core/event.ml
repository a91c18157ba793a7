(* NFEvents (§IV-A): notifications the control logic transitions on.
   System events originate outside the NF (packet arrival); user events are
   raised by NFActions. The FSM layer keys transitions by the event's wire
   name, so every event has a stable string form. *)

type t =
  | Packet_arrival  (* system: a packet was handed to the function stream *)
  | Match_success
  | Match_fail
  | Emit_packet     (* processing finished; forward the packet *)
  | Drop_packet
  | User of string  (* module-defined events, e.g. "hash_done" *)
  | Faulted of string  (* containment: task quarantined, carries the reason *)

let to_key = function
  | Packet_arrival -> "packet"
  | Match_success -> "MATCH_SUCCESS"
  | Match_fail -> "MATCH_FAIL"
  | Emit_packet -> "EMIT"
  | Drop_packet -> "DROP"
  | Faulted r -> "FAULT[" ^ r ^ "]"
  | User s -> s

let of_key = function
  | "packet" -> Packet_arrival
  | "MATCH_SUCCESS" -> Match_success
  | "MATCH_FAIL" -> Match_fail
  | "EMIT" -> Emit_packet
  | "DROP" -> Drop_packet
  | s ->
      let n = String.length s in
      if n > 7 && String.sub s 0 6 = "FAULT[" && s.[n - 1] = ']' then
        Faulted (String.sub s 6 (n - 7))
      else User s

let equal a b = String.equal (to_key a) (to_key b)
