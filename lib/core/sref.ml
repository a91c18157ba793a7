(* Resolved NFState references (§IV-A).

   A reference names a region of the simulated address space plus the state
   class it belongs to. NFActions reach all state through references held in
   their NFTask — that indirection is the isolation the paper describes
   ("the action cannot access a memory address other than the one referenced
   in an NFTask"). *)

type state_class =
  | Match_state
  | Per_flow
  | Sub_flow
  | Packet_state
  | Control_state
  | Temp_state

let class_name = function
  | Match_state -> "match"
  | Per_flow -> "per_flow"
  | Sub_flow -> "sub_flow"
  | Packet_state -> "packet"
  | Control_state -> "control"
  | Temp_state -> "temp"

type t = { cls : state_class; addr : int; bytes : int }

let make ~cls ~addr ~bytes =
  if bytes < 0 then invalid_arg "Sref.make: negative size";
  { cls; addr; bytes }

let pp ppf t = Fmt.pf ppf "%s@0x%x+%d" (class_name t.cls) t.addr t.bytes
