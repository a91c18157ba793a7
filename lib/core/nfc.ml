(* NF-C (§IV-B, Listing 4): the C-like DSL in which developers write
   NFAction bodies against the NFState keywords (Packet, PerFlowState,
   SubFlowState, ControlState, TempState).

   The paper compiles NF-C to C; here an NF-C source compiles to an
   {!Action.t} whose body interprets the statement list against a
   per-module binding that maps (scope, field) to real reads/writes — the
   binding is the isolation boundary: programs can only touch state
   reachable from their NFTask's references, enforcing the property the
   paper gets from its compilation check. *)

exception Nfc_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Nfc_error s)) fmt

type scope = Packet | Per_flow | Sub_flow | Control | Temp | Match_state

let scope_of_keyword = function
  | "Packet" -> Some Packet
  | "PerFlowState" -> Some Per_flow
  | "SubFlowState" -> Some Sub_flow
  | "ControlState" -> Some Control
  | "TempState" -> Some Temp
  | "MatchState" -> Some Match_state
  | _ -> None

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

type t = { action_name : string; body : stmt list; temporaries : string list }

(* ----- lexer ----- *)

type token = Ident of string | Num of int | Sym of string

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let is_ident c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_digit c = c >= '0' && c <= '9' in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if is_ident c then begin
      let start = !i in
      while !i < n && (is_ident src.[!i] || is_digit src.[!i]) do
        incr i
      done;
      toks := Ident (String.sub src start (!i - start)) :: !toks
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      let text = String.sub src start (!i - start) in
      match int_of_string_opt text with
      | Some v -> toks := Num v :: !toks
      | None -> fail "integer literal %s at character %d does not fit an int" text start
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub src !i 2) else None
      in
      match two with
      | Some (("==" | "!=" | "<=" | ">=") as op) ->
          toks := Sym op :: !toks;
          i := !i + 2
      | _ ->
          (match c with
          | '(' | ')' | '{' | '}' | ';' | '.' | '=' | '+' | '-' | '*' | '%' | '&' | '<' | '>' ->
              toks := Sym (String.make 1 c) :: !toks
          | _ -> fail "lexical error at character %d: %c" !i c);
          incr i
    end
  done;
  List.rev !toks

(* ----- parser (recursive descent over a token list ref) ----- *)

type cursor = { mutable toks : token list }

let peek c = match c.toks with [] -> None | t :: _ -> Some t

let advance c = match c.toks with [] -> fail "unexpected end of input" | _ :: tl -> c.toks <- tl

let expect_sym c s =
  match peek c with
  | Some (Sym x) when x = s -> advance c
  | Some (Ident x) -> fail "expected %S, found identifier %S" s x
  | Some (Sym x) -> fail "expected %S, found %S" s x
  | Some (Num v) -> fail "expected %S, found number %d" s v
  | None -> fail "expected %S, found end of input" s

let expect_ident c =
  match peek c with
  | Some (Ident x) ->
      advance c;
      x
  | _ -> fail "expected an identifier"

let parse_ref c first =
  match scope_of_keyword first with
  | None -> fail "unknown state keyword %S" first
  | Some scope ->
      expect_sym c ".";
      let field = expect_ident c in
      (scope, field)

let rec parse_factor c =
  match peek c with
  | Some (Num v) ->
      advance c;
      Int v
  | Some (Sym "(") ->
      advance c;
      let e = parse_expr c in
      expect_sym c ")";
      e
  | Some (Ident id) ->
      advance c;
      let scope, field = parse_ref c id in
      Ref (scope, field)
  | _ -> fail "expected an expression"

and parse_term c =
  let lhs = ref (parse_factor c) in
  let continue_loop = ref true in
  while !continue_loop do
    match peek c with
    | Some (Sym "*") ->
        advance c;
        lhs := Bin (Mul, !lhs, parse_factor c)
    | Some (Sym "%") ->
        advance c;
        lhs := Bin (Mod, !lhs, parse_factor c)
    | Some (Sym "&") ->
        advance c;
        lhs := Bin (And, !lhs, parse_factor c)
    | _ -> continue_loop := false
  done;
  !lhs

and parse_arith c =
  let lhs = ref (parse_term c) in
  let continue_loop = ref true in
  while !continue_loop do
    match peek c with
    | Some (Sym "+") ->
        advance c;
        lhs := Bin (Add, !lhs, parse_term c)
    | Some (Sym "-") ->
        advance c;
        lhs := Bin (Sub, !lhs, parse_term c)
    | _ -> continue_loop := false
  done;
  !lhs

and parse_expr c =
  let lhs = parse_arith c in
  match peek c with
  | Some (Sym (("==" | "!=" | "<" | ">" | "<=" | ">=") as op)) ->
      advance c;
      let rhs = parse_arith c in
      let binop =
        match op with
        | "==" -> Eq
        | "!=" -> Ne
        | "<" -> Lt
        | ">" -> Gt
        | "<=" -> Le
        | _ -> Ge
      in
      Bin (binop, lhs, rhs)
  | _ -> lhs

let rec parse_stmt c =
  match peek c with
  | Some (Ident "Emit") ->
      advance c;
      expect_sym c "(";
      let ev = expect_ident c in
      expect_sym c ")";
      expect_sym c ";";
      Emit ev
  | Some (Ident "Drop") ->
      advance c;
      expect_sym c "(";
      expect_sym c ")";
      expect_sym c ";";
      Drop
  | Some (Ident "if") ->
      advance c;
      expect_sym c "(";
      let cond = parse_expr c in
      expect_sym c ")";
      let then_ = parse_block c in
      let else_ =
        match peek c with
        | Some (Ident "else") ->
            advance c;
            parse_block c
        | _ -> []
      in
      If (cond, then_, else_)
  | Some (Ident id) ->
      advance c;
      let scope, field = parse_ref c id in
      expect_sym c "=";
      let e = parse_expr c in
      expect_sym c ";";
      Assign (scope, field, e)
  | _ -> fail "expected a statement"

and parse_block c =
  expect_sym c "{";
  let stmts = ref [] in
  let rec go () =
    match peek c with
    | Some (Sym "}") -> advance c
    | Some _ ->
        stmts := parse_stmt c :: !stmts;
        go ()
    | None -> fail "unterminated block"
  in
  go ();
  List.rev !stmts

(* Collect TempState fields, as the paper's compiler does to size the
   NFTask temporary area. *)
let rec temps_of_stmt acc = function
  | Assign (Temp, f, e) -> temps_of_expr (if List.mem f acc then acc else f :: acc) e
  | Assign (_, _, e) -> temps_of_expr acc e
  | Emit _ | Drop -> acc
  | If (e, a, b) ->
      let acc = temps_of_expr acc e in
      let acc = List.fold_left temps_of_stmt acc a in
      List.fold_left temps_of_stmt acc b

and temps_of_expr acc = function
  | Int _ -> acc
  | Ref (Temp, f) -> if List.mem f acc then acc else f :: acc
  | Ref (_, _) -> acc
  | Bin (_, a, b) -> temps_of_expr (temps_of_expr acc a) b

(* Build a program from an already-constructed AST, collecting temporaries
   exactly as [parse] does — so printing and re-parsing a generated body
   reproduces the same [t], temporaries included. *)
let of_body ~action_name body =
  { action_name; body; temporaries = List.rev (List.fold_left temps_of_stmt [] body) }

let parse src =
  let c = { toks = lex src } in
  (match peek c with
  | Some (Ident "NFAction") -> advance c
  | _ -> fail "program must start with NFAction(<name>)");
  expect_sym c "(";
  let action_name = expect_ident c in
  expect_sym c ")";
  let body = parse_block c in
  (match c.toks with
  | [] -> ()
  | _ -> fail "trailing tokens after NFAction body");
  let temporaries = List.rev (List.fold_left temps_of_stmt [] body) in
  { action_name; body; temporaries }

(* ----- pretty printer (used by tooling and the parse/print/parse
   roundtrip property tests) ----- *)

let keyword_of_scope = function
  | Packet -> "Packet"
  | Per_flow -> "PerFlowState"
  | Sub_flow -> "SubFlowState"
  | Control -> "ControlState"
  | Temp -> "TempState"
  | Match_state -> "MatchState"

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Mod -> "%"
  | And -> "&"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="

(* Fully parenthesised, so printing is trivially re-parseable. *)
let rec pp_expr ppf = function
  | Int v -> Fmt.int ppf v
  | Ref (scope, field) -> Fmt.pf ppf "%s.%s" (keyword_of_scope scope) field
  | Bin (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_symbol op) pp_expr b

let rec pp_stmt ppf = function
  | Assign (scope, field, e) ->
      Fmt.pf ppf "%s.%s = %a;" (keyword_of_scope scope) field pp_expr e
  | Emit ev -> Fmt.pf ppf "Emit(%s);" ev
  | Drop -> Fmt.string ppf "Drop();"
  | If (cond, then_, []) ->
      Fmt.pf ppf "if (%a) { %a }" pp_expr cond Fmt.(list ~sep:sp pp_stmt) then_
  | If (cond, then_, else_) ->
      Fmt.pf ppf "if (%a) { %a } else { %a }" pp_expr cond
        Fmt.(list ~sep:sp pp_stmt)
        then_
        Fmt.(list ~sep:sp pp_stmt)
        else_

let pp_program ppf t =
  Fmt.pf ppf "NFAction(%s) { %a }" t.action_name Fmt.(list ~sep:sp pp_stmt) t.body

let to_string t = Fmt.str "%a" pp_program t

(* ----- interpreter / action compilation ----- *)

type binding = {
  read_field : Exec_ctx.t -> Nftask.t -> scope -> string -> int;
  write_field : Exec_ctx.t -> Nftask.t -> scope -> string -> int -> unit;
}

(* Default event translation: Emit(Event_Packet) -> "packet" (cf. Listing
   4); other names pass through and match the spec's transition labels. *)
let event_of_name name =
  match name with
  | "Event_Packet" -> Event.Packet_arrival
  | "Event_Drop" -> Event.Drop_packet
  | _ -> Event.of_key name

let rec eval binding ctx task = function
  | Int v -> v
  | Ref (scope, field) -> binding.read_field ctx task scope field
  | Bin (op, a, b) ->
      let va = eval binding ctx task a in
      let vb = eval binding ctx task b in
      let bool_int c = if c then 1 else 0 in
      (match op with
      | Add -> va + vb
      | Sub -> va - vb
      | Mul -> va * vb
      | Mod -> if vb = 0 then fail "NF-C: modulo by zero" else va mod vb
      | And -> va land vb
      | Eq -> bool_int (va = vb)
      | Ne -> bool_int (va <> vb)
      | Lt -> bool_int (va < vb)
      | Gt -> bool_int (va > vb)
      | Le -> bool_int (va <= vb)
      | Ge -> bool_int (va >= vb))

let fall_through = Event.User "continue"

(* Execute statements; the first Emit/Drop decides the resulting event.
   [fall_through] itself means none did: it is compared physically, and
   an explicit [Emit(continue)] builds another value. *)
let rec exec binding ctx task = function
  | [] -> fall_through
  | Assign (scope, field, e) :: rest ->
      let v = eval binding ctx task e in
      binding.write_field ctx task scope field v;
      exec binding ctx task rest
  | Emit name :: _ -> event_of_name name
  | Drop :: _ -> Event.Drop_packet
  | If (cond, then_, else_) :: rest ->
      let ev =
        exec binding ctx task (if eval binding ctx task cond <> 0 then then_ else else_)
      in
      if ev != fall_through then ev else exec binding ctx task rest

let rec stmt_weight = function
  | Assign (_, _, e) -> 2 + expr_weight e
  | Emit _ | Drop -> 1
  | If (e, a, b) ->
      1 + expr_weight e
      + List.fold_left (fun acc s -> acc + stmt_weight s) 0 a
      + List.fold_left (fun acc s -> acc + stmt_weight s) 0 b

and expr_weight = function
  | Int _ -> 0
  | Ref _ -> 1
  | Bin (_, a, b) -> 1 + expr_weight a + expr_weight b

(* Compile NF-C source into an executable NFAction. Memory charging happens
   inside the binding's read/write field accessors; the static statement
   weight models the compute cost of the generated code. *)
let compile ?(kind = Action.Data_action) ?(invalidates = []) ~binding src =
  let prog = parse src in
  let weight = List.fold_left (fun acc s -> acc + stmt_weight s) 0 prog.body in
  Action.make ~kind ~base_cycles:(4 + (2 * weight)) ~base_instrs:(3 + (2 * weight))
    ~invalidates ~name:prog.action_name (fun ctx task -> exec binding ctx task prog.body)
