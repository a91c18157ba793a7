(** NF-C (§IV-B, Listing 4): the C-like DSL for NFAction bodies over the
    NFState keywords (Packet, PerFlowState, SubFlowState, ControlState,
    TempState, MatchState).

    An NF-C source compiles into an {!Action.t} whose body interprets the
    statements against a per-module {!binding}. The binding is the
    isolation boundary: programs can only reach state exposed through it
    (the property the paper enforces with a compilation check). *)

exception Nfc_error of string

type scope = Packet | Per_flow | Sub_flow | Control | Temp | Match_state

type binop = Add | Sub | Mul | Mod | And | Eq | Ne | Lt | Gt | Le | Ge

type expr =
  | Int of int
  | Ref of scope * string
  | Bin of binop * expr * expr

type stmt =
  | Assign of scope * string * expr
  | Emit of string
  | Drop
  | If of expr * stmt list * stmt list

type t = {
  action_name : string;
  body : stmt list;
  temporaries : string list;
      (** TempState fields, collected as the paper's compiler does to size
          the NFTask temporary area *)
}

(** @raise Nfc_error on lexical or syntax errors. *)
val parse : string -> t

(** Build a program from an AST, collecting [temporaries] exactly as
    {!parse} does — printing and re-parsing a generated body reproduces
    the same [t]. *)
val of_body : action_name:string -> stmt list -> t

val keyword_of_scope : scope -> string
val binop_symbol : binop -> string

val to_string : t -> string

type binding = {
  read_field : Exec_ctx.t -> Nftask.t -> scope -> string -> int;
  write_field : Exec_ctx.t -> Nftask.t -> scope -> string -> int -> unit;
}

(** [Emit(Event_Packet)] maps to the ["packet"] system event; other names
    pass through as spec event labels. *)
val event_of_name : string -> Event.t

(** The static compute-cost weight of a statement/expression — the model
    behind {!compile}'s [base_cycles = 4 + 2*weight] charge. Exposed so the
    symbolic checker can validate the cycle model of compiled actions. *)
val stmt_weight : stmt -> int

(** The event of an action whose body ends without [Emit] or [Drop]:
    [continue]. *)
val fall_through : Event.t

(** Compile NF-C source to an executable NFAction. Memory charging happens
    inside the binding's accessors; the static statement weight models the
    generated code's compute cost. The first executed [Emit]/[Drop] decides
    the event; fall-through yields {!fall_through}.
    @raise Nfc_error on parse errors (immediately) or on binding violations
    (when the action runs). *)
val compile :
  ?kind:Action.kind -> ?invalidates:Action.resource list -> binding:binding -> string ->
  Action.t
