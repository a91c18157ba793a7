(* NFActions (§IV-A): event handlers, classified by the state class they
   interact with. An action's body performs real packet/table logic on the
   OCaml side and charges its memory traffic to the execution context.

   [base_cycles]/[base_instrs] model the action's computation (hashing,
   header rewriting, …) excluding memory-hierarchy time, which the body
   charges per access. [invalidates] declares which prefetchable resources
   the action redefines — the redundant-prefetch-removal pass (§VI-B) uses
   it as its kill set. *)

type kind = Match_action | Data_action | Config_action

type resource = [ `Match_addrs | `Per_flow | `Sub_flow | `Packet ]

type t = {
  name : string;
  kind : kind;
  base_cycles : int;
  base_instrs : int;
  invalidates : resource list;
  body : Exec_ctx.t -> Nftask.t -> Event.t;
}

let make ?(kind = Data_action) ?(base_cycles = 20) ?(base_instrs = 15)
    ?(invalidates = []) ~name body =
  { name; kind; base_cycles; base_instrs; invalidates; body }

(* Run the action, charging its base computation. *)
let execute t ctx task =
  Exec_ctx.compute ctx ~cycles:t.base_cycles ~instrs:t.base_instrs;
  t.body ctx task
