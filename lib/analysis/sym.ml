(* Symbolic execution of NF-C action bodies (the verification half of the
   analyzer, next to the may/must {!Effects} summaries).

   An action's meaning, for equivalence checking, is the set of its
   symbolic paths: a path condition over the entry values of the state
   fields the body reads, the (scope, field) -> expression writes the path
   performs, and how it finishes (Emit/Drop, fall-through to the default
   event, or a raise from modulo-by-zero). Variables denote field values
   *at entry* — assignments substitute into later reads, so a path's
   writes are in terms of entry values only.

   The decision procedure covers the linear-arithmetic / boolean fragment
   NF-C actually uses: constant folding plus interval reasoning (bounds
   harvested from the path condition's comparisons) and congruence
   reasoning (x % m == r facts). Everything else is a sound [Unknown]:
   branches fork, and checkers fall back to the dynamic oracle. *)

open Gunfu

(* ----- symbolic expressions ----- *)

type sexpr =
  | Const of int
  | Var of Nfc.scope * string  (* the field's value at action entry *)
  | SBin of Nfc.binop * sexpr * sexpr

let rec sexpr_equal a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Var (s, f), Var (s', f') -> s = s' && String.equal f f'
  | SBin (op, x, y), SBin (op', x', y') ->
      op = op' && sexpr_equal x x' && sexpr_equal y y'
  | _ -> false

let rec pp_sexpr ppf = function
  | Const v -> Fmt.int ppf v
  | Var (scope, field) -> Fmt.pf ppf "%s.%s" (Nfc.keyword_of_scope scope) field
  | SBin (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_sexpr a (Nfc.binop_symbol op) pp_sexpr b

let bool_int c = if c then 1 else 0

(* ----- normalizing simplifier ----- *)

(* Constant folding plus the algebraic identities that make compiled
   conditions decidable (x+0, x*1, x*0, x-x, reflexive comparisons).
   Modulo by a constant zero is NOT folded: the raise is part of the
   path's meaning and the executor classifies it. *)
let rec simplify e =
  match e with
  | Const _ | Var _ -> e
  | SBin (op, a, b) -> (
      let a = simplify a and b = simplify b in
      match (op, a, b) with
      | Nfc.Mod, Const x, Const y when y <> 0 -> Const (x mod y)
      | Nfc.Mod, _, _ -> SBin (op, a, b)
      | _, Const x, Const y ->
          Const
            (match op with
            | Nfc.Add -> x + y
            | Nfc.Sub -> x - y
            | Nfc.Mul -> x * y
            | Nfc.And -> x land y
            | Nfc.Eq -> bool_int (x = y)
            | Nfc.Ne -> bool_int (x <> y)
            | Nfc.Lt -> bool_int (x < y)
            | Nfc.Gt -> bool_int (x > y)
            | Nfc.Le -> bool_int (x <= y)
            | Nfc.Ge -> bool_int (x >= y)
            | Nfc.Mod -> assert false)
      | Nfc.Add, x, Const 0 | Nfc.Add, Const 0, x -> x
      | Nfc.Sub, x, Const 0 -> x
      | Nfc.Sub, x, y when sexpr_equal x y -> Const 0
      | Nfc.Mul, x, Const 1 | Nfc.Mul, Const 1, x -> x
      | Nfc.Mul, _, Const 0 | Nfc.Mul, Const 0, _ -> Const 0
      | Nfc.And, _, Const 0 | Nfc.And, Const 0, _ -> Const 0
      | Nfc.And, x, y when sexpr_equal x y -> x
      | Nfc.Eq, x, y when sexpr_equal x y -> Const 1
      | Nfc.Le, x, y when sexpr_equal x y -> Const 1
      | Nfc.Ge, x, y when sexpr_equal x y -> Const 1
      | Nfc.Ne, x, y when sexpr_equal x y -> Const 0
      | Nfc.Lt, x, y when sexpr_equal x y -> Const 0
      | Nfc.Gt, x, y when sexpr_equal x y -> Const 0
      | _ -> SBin (op, a, b))

(* ----- the abstract domain: interval x congruence ----- *)

type decision = True | False | Unknown

(* Bounds are options ([None] = unbounded); [cong = Some (m, r)] with
   [m >= 1] means the value is congruent to [r] modulo [m] (and [m = 1]
   carries no information). Bounds beyond [big] are widened to [None] so
   interval arithmetic never overflows. *)
type absval = { lo : int option; hi : int option; cong : (int * int) option }

let big = 1 lsl 40
let clamp = function Some v when abs v > big -> None | b -> b
let top = { lo = None; hi = None; cong = None }
let of_const v = { lo = Some v; hi = Some v; cong = Some (1, 0) }

let norm_cong = function
  | Some (m, r) when m > 1 -> Some (m, ((r mod m) + m) mod m)
  | _ -> None

let lift2 f a b =
  match (a, b) with Some x, Some y -> clamp (Some (f x y)) | _ -> None

let av_add a b =
  {
    lo = lift2 ( + ) a.lo b.lo;
    hi = lift2 ( + ) a.hi b.hi;
    cong =
      (match (norm_cong a.cong, norm_cong b.cong) with
      | Some (m1, r1), Some (m2, r2) ->
          let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
          norm_cong (Some (gcd m1 m2, r1 + r2))
      | _ -> None);
  }

let av_neg a = { lo = Option.map (fun v -> -v) a.hi; hi = Option.map (fun v -> -v) a.lo;
                 cong = (match norm_cong a.cong with Some (m, r) -> norm_cong (Some (m, -r)) | None -> None) }

let av_sub a b = av_add a (av_neg b)

let av_mul a b =
  match (a.lo, a.hi, b.lo, b.hi) with
  | Some al, Some ah, Some bl, Some bh ->
      let ps = [ al * bl; al * bh; ah * bl; ah * bh ] in
      {
        lo = clamp (Some (List.fold_left min (List.hd ps) ps));
        hi = clamp (Some (List.fold_left max (List.hd ps) ps));
        cong =
          (match (norm_cong a.cong, norm_cong b.cong) with
          | Some (m1, r1), Some (m2, r2) ->
              let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
              let m = gcd (m1 * m2) (gcd (m1 * r2) (m2 * r1)) in
              if m > big then None else norm_cong (Some ((if m = 0 then 1 else m), r1 * r2))
          | _ -> None);
      }
  | _ -> top

(* OCaml's [mod] takes the dividend's sign; with a constant positive
   divisor the result is bounded either way, and exactly determined when
   the dividend's congruence class is a refinement of the divisor. *)
let av_mod a b =
  match (b.lo, b.hi) with
  | Some m, Some m' when m = m' && m > 0 ->
      let nonneg = match a.lo with Some l when l >= 0 -> true | _ -> false in
      let nonpos = match a.hi with Some h when h <= 0 -> true | _ -> false in
      let exact =
        match norm_cong a.cong with
        | Some (cm, cr) when nonneg && cm mod m = 0 -> Some (cr mod m)
        | _ -> (
            match (a.lo, a.hi) with
            | Some l, Some h when l = h -> Some (l mod m)
            | _ -> None)
      in
      (match exact with
      | Some v -> of_const v
      | None ->
          {
            lo = Some (if nonneg then 0 else -(m - 1));
            hi = Some (if nonpos then 0 else m - 1);
            cong = None;
          })
  | _ -> top

let av_and a b =
  (* Bitwise and of non-negatives is bounded by either operand. *)
  let nonneg v = match v.lo with Some l when l >= 0 -> true | _ -> false in
  if nonneg a && nonneg b then
    { lo = Some 0; hi = lift2 min a.hi b.hi; cong = None }
  else top

let av_bool = { lo = Some 0; hi = Some 1; cong = None }

(* Compare two intervals under [op]; [Unknown] when they overlap. *)
let av_cmp op a b =
  let lt_strict =
    match (a.hi, b.lo) with Some ah, Some bl -> ah < bl | _ -> false
  in
  let le = match (a.hi, b.lo) with Some ah, Some bl -> ah <= bl | _ -> false in
  let gt_strict =
    match (a.lo, b.hi) with Some al, Some bh -> al > bh | _ -> false
  in
  let ge = match (a.lo, b.hi) with Some al, Some bh -> al >= bh | _ -> false in
  let cong_apart () =
    (* Same-modulus congruences with different residues can never be
       equal; exact-value intervals are handled by the bounds above. *)
    match (norm_cong a.cong, norm_cong b.cong) with
    | Some (m1, r1), Some (m2, r2) when m1 = m2 && m1 > 1 -> r1 <> r2
    | _ -> false
  in
  match op with
  | Nfc.Lt -> if lt_strict then True else if ge then False else Unknown
  | Nfc.Gt -> if gt_strict then True else if le then False else Unknown
  | Nfc.Le -> if le then True else if gt_strict then False else Unknown
  | Nfc.Ge -> if ge then True else if lt_strict then False else Unknown
  | Nfc.Eq ->
      if lt_strict || gt_strict || cong_apart () then False
      else if le && ge then True
      else Unknown
  | Nfc.Ne ->
      if lt_strict || gt_strict || cong_apart () then True
      else if le && ge then False
      else Unknown
  | _ -> Unknown

(* ----- facts harvested from a path condition ----- *)

(* A path condition is a list of (condition, polarity): the condition's
   truth value (<> 0 or = 0) on this path. *)
type pc = (sexpr * bool) list

type fact = { f_lo : int option; f_hi : int option; f_cong : (int * int) option; f_ne : int list }

let fact_top = { f_lo = None; f_hi = None; f_cong = None; f_ne = [] }

let fact_meet f ~lo ~hi ~cong ~ne =
  {
    f_lo = (match (f.f_lo, lo) with Some a, Some b -> Some (max a b) | a, None -> a | None, b -> b);
    f_hi = (match (f.f_hi, hi) with Some a, Some b -> Some (min a b) | a, None -> a | None, b -> b);
    f_cong = (match cong with Some _ -> cong | None -> f.f_cong);
    f_ne = ne @ f.f_ne;
  }

(* Walk the path condition once and build per-variable facts. Only
   conditions relating one variable to constants refine; everything else
   is ignored (soundly — facts only ever shrink the concretization). *)
let facts_of_pc (pc : pc) =
  let tbl : (Nfc.scope * string, fact) Hashtbl.t = Hashtbl.create 8 in
  let get v = Option.value ~default:fact_top (Hashtbl.find_opt tbl v) in
  let refine v ~lo ~hi ~cong ~ne = Hashtbl.replace tbl v (fact_meet (get v) ~lo ~hi ~cong ~ne) in
  let flip = function
    | Nfc.Lt -> Nfc.Gt
    | Nfc.Gt -> Nfc.Lt
    | Nfc.Le -> Nfc.Ge
    | Nfc.Ge -> Nfc.Le
    | op -> op
  in
  let negate = function
    | Nfc.Eq -> Nfc.Ne
    | Nfc.Ne -> Nfc.Eq
    | Nfc.Lt -> Nfc.Ge
    | Nfc.Ge -> Nfc.Lt
    | Nfc.Gt -> Nfc.Le
    | Nfc.Le -> Nfc.Gt
    | op -> op
  in
  let rec harvest cond polarity =
    match cond with
    | Var (s, f) ->
        let v = (s, f) in
        if polarity then refine v ~lo:None ~hi:None ~cong:None ~ne:[ 0 ]
        else refine v ~lo:(Some 0) ~hi:(Some 0) ~cong:None ~ne:[]
    | SBin (op, Const c, rhs) when op = Nfc.Eq || op = Nfc.Ne || op = Nfc.Lt || op = Nfc.Gt || op = Nfc.Le || op = Nfc.Ge ->
        harvest (SBin (flip op, rhs, Const c)) polarity
    | SBin (op, lhs, Const c) -> (
        let op = if polarity then op else negate op in
        match (op, lhs) with
        | Nfc.Eq, Var (s, f) -> refine (s, f) ~lo:(Some c) ~hi:(Some c) ~cong:None ~ne:[]
        | Nfc.Ne, Var (s, f) -> refine (s, f) ~lo:None ~hi:None ~cong:None ~ne:[ c ]
        | Nfc.Lt, Var (s, f) -> refine (s, f) ~lo:None ~hi:(Some (c - 1)) ~cong:None ~ne:[]
        | Nfc.Le, Var (s, f) -> refine (s, f) ~lo:None ~hi:(Some c) ~cong:None ~ne:[]
        | Nfc.Gt, Var (s, f) -> refine (s, f) ~lo:(Some (c + 1)) ~hi:None ~cong:None ~ne:[]
        | Nfc.Ge, Var (s, f) -> refine (s, f) ~lo:(Some c) ~hi:None ~cong:None ~ne:[]
        | Nfc.Eq, SBin (Nfc.Mod, Var (s, f), Const m) when m > 1 && c >= 0 && c < m ->
            refine (s, f) ~lo:None ~hi:None ~cong:(Some (m, c)) ~ne:[]
        | _ -> ())
    | _ -> ()
  in
  List.iter (fun (cond, polarity) -> harvest cond polarity) pc;
  tbl

(* Abstract evaluation of a symbolic expression under path-condition
   facts. *)
let rec av_of facts e =
  match e with
  | Const v -> of_const v
  | Var (s, f) -> (
      match Hashtbl.find_opt facts (s, f) with
      | None -> top
      | Some f -> { lo = f.f_lo; hi = f.f_hi; cong = norm_cong f.f_cong })
  | SBin (op, a, b) -> (
      let va = av_of facts a and vb = av_of facts b in
      match op with
      | Nfc.Add -> av_add va vb
      | Nfc.Sub -> av_sub va vb
      | Nfc.Mul -> av_mul va vb
      | Nfc.Mod -> av_mod va vb
      | Nfc.And -> av_and va vb
      | Nfc.Eq | Nfc.Ne | Nfc.Lt | Nfc.Gt | Nfc.Le | Nfc.Ge -> (
          match av_cmp op va vb with
          | True -> of_const 1
          | False -> of_const 0
          | Unknown -> av_bool))

(* Decide the truth value (<> 0) of [e] under path condition [pc]. *)
let decide (pc : pc) e =
  let e = simplify e in
  match e with
  | Const 0 -> False
  | Const _ -> True
  | _ -> (
      let facts = facts_of_pc pc in
      (* Direct [x ne c] facts decide equalities intervals cannot. *)
      let ne_holds v c =
        match Hashtbl.find_opt facts v with
        | Some f -> List.mem c f.f_ne
        | None -> false
      in
      match e with
      | SBin (Nfc.Eq, Var (s, f), Const c) when ne_holds (s, f) c -> False
      | SBin (Nfc.Ne, Var (s, f), Const c) when ne_holds (s, f) c -> True
      | Var (s, f) when ne_holds (s, f) 0 -> True
      | _ -> (
          let av = av_of facts e in
          match av_cmp Nfc.Ne av (of_const 0) with
          | True -> True
          | False -> False
          | Unknown -> (
              (* Nonzero congruence class: x = r (mod m), 0 < r < m. *)
              match norm_cong av.cong with
              | Some (m, r) when r <> 0 && m > 1 -> True
              | _ -> Unknown)))

(* ----- the symbolic executor ----- *)

type exit_kind =
  | Exit_emit of string  (* event key, via Event.to_key/event_of_name *)
  | Exit_drop
  | Exit_fall  (* end of body: the runtime raises the default event *)
  | Exit_raise  (* modulo by a divisor proven zero on this path *)

type path = {
  p_pc : pc;
  p_writes : (Nfc.scope * string * sexpr) list;  (* program order, last write per field *)
  p_exit : exit_kind;
  p_may_raise : bool;  (* some modulo divisor could not be proven nonzero *)
}

type summary = {
  s_paths : path list;
  s_weight : int;  (* the compile-time cost model: Nfc.stmt_weight sum *)
  s_decided : (int * Nfc.expr * bool) list;
      (* [If] conditions statically decided on every path that reaches
         them: (source-order index of the If, condition, truth). Feeds the
         constant-condition lint. *)
  s_truncated : bool;  (* path budget exhausted; checkers must go Unknown *)
}

let max_paths = 4096

(* Environment: (scope, field) -> value expression in terms of entry
   variables. Unwritten fields read as their own [Var]. *)
let env_lookup (env : ((Nfc.scope * string) * sexpr) list) key =
  match List.assoc_opt key env with Some e -> e | None -> Var (fst key, snd key)

let rec sym_eval env (e : Nfc.expr) =
  match e with
  | Nfc.Int v -> Const v
  | Nfc.Ref (scope, field) -> env_lookup env (scope, field)
  | Nfc.Bin (op, a, b) -> simplify (SBin (op, sym_eval env a, sym_eval env b))

(* Does evaluating [e] (already symbolic) raise on this path? [`Raises]
   when some modulo divisor is provably zero, [`May] when one cannot be
   proven nonzero, [`Ok] otherwise. *)
let raise_status pc e =
  let status = ref `Ok in
  let rec walk = function
    | Const _ | Var _ -> ()
    | SBin (op, a, b) ->
        walk a;
        walk b;
        if op = Nfc.Mod then
          match decide pc (SBin (Nfc.Ne, b, Const 0)) with
          | True -> ()
          | False -> status := `Raises
          | Unknown -> if !status = `Ok then status := `May
  in
  walk e;
  !status

let summarize (prog : Nfc.t) =
  let weight = List.fold_left (fun acc s -> acc + Nfc.stmt_weight s) 0 prog.Nfc.body in
  let paths = ref [] in
  let truncated = ref false in
  let n_live = ref 0 in
  (* Every If gets a source-order id; a condition is "decided" when every
     path reaching it resolved it statically, to the same truth value. *)
  let if_id = ref (-1) in
  let if_ids : (Nfc.expr * int) list ref = ref [] in
  let decisions : (int, (Nfc.expr * bool) option) Hashtbl.t = Hashtbl.create 8 in
  let note_decided id cond truth =
    match Hashtbl.find_opt decisions id with
    | None -> Hashtbl.replace decisions id (Some (cond, truth))
    | Some (Some (_, t)) when t = truth -> ()
    | Some _ -> Hashtbl.replace decisions id None
  in
  let note_undecided id = Hashtbl.replace decisions id None in
  let finish pc writes may_raise exit =
    if !n_live >= max_paths then truncated := true
    else begin
      incr n_live;
      paths := { p_pc = pc; p_writes = writes; p_exit = exit; p_may_raise = may_raise } :: !paths
    end
  in
  (* [writes] maps fields to their current symbolic value; [wlog] keeps
     first-write program order for reporting. *)
  let rec run pc env wlog may_raise stmts =
    if !truncated then ()
    else
      match stmts with
      | [] -> finish pc (List.rev wlog) may_raise Exit_fall
      | Nfc.Assign (scope, field, e) :: rest -> (
          let se = sym_eval env e in
          match raise_status pc se with
          | `Raises -> finish pc (List.rev wlog) may_raise Exit_raise
          | (`Ok | `May) as st ->
              let may_raise = may_raise || st = `May in
              let env = ((scope, field), se) :: List.remove_assoc (scope, field) env in
              let wlog = (scope, field, se) :: List.filter (fun (s, f, _) -> not (s = scope && String.equal f field)) wlog in
              run pc env wlog may_raise rest)
      | Nfc.Emit name :: _ ->
          finish pc (List.rev wlog) may_raise
            (Exit_emit (Event.to_key (Nfc.event_of_name name)))
      | Nfc.Drop :: _ -> finish pc (List.rev wlog) may_raise Exit_drop
      | Nfc.If (cond, then_, else_) :: rest -> (
          let id =
            match List.assq_opt cond !if_ids with
            | Some i -> i
            | None ->
                incr if_id;
                if_ids := (cond, !if_id) :: !if_ids;
                !if_id
          in
          let sc = sym_eval env cond in
          match raise_status pc sc with
          | `Raises -> finish pc (List.rev wlog) may_raise Exit_raise
          | (`Ok | `May) as st -> (
              let may_raise = may_raise || st = `May in
              match decide pc sc with
              | True ->
                  note_decided id cond true;
                  run pc env wlog may_raise (then_ @ rest)
              | False ->
                  note_decided id cond false;
                  run pc env wlog may_raise (else_ @ rest)
              | Unknown ->
                  note_undecided id;
                  run ((sc, true) :: pc) env wlog may_raise (then_ @ rest);
                  run ((sc, false) :: pc) env wlog may_raise (else_ @ rest)))
  in
  run [] [] [] false prog.Nfc.body;
  let decided =
    Hashtbl.fold
      (fun id v acc -> match v with Some (cond, truth) -> (id, cond, truth) :: acc | None -> acc)
      decisions []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  {
    s_paths = List.rev !paths;
    s_weight = weight;
    s_decided = decided;
    s_truncated = !truncated;
  }

(* The event keys a summary can hand the control logic ([Exit_raise]
   paths are contained by the fault plane, not transitioned on). *)
let exit_keys summary =
  List.fold_left
    (fun acc p ->
      let key =
        match p.p_exit with
        | Exit_emit k -> Some k
        | Exit_fall -> Some (Event.to_key Nfc.fall_through)
        | Exit_drop -> Some (Event.to_key Event.Drop_packet)
        | Exit_raise -> None
      in
      match key with
      | Some k when not (List.mem k acc) -> acc @ [ k ]
      | _ -> acc)
    [] summary.s_paths

let pp_pc ppf (pc : pc) =
  match pc with
  | [] -> Fmt.string ppf "true"
  | _ ->
      Fmt.pf ppf "%a"
        Fmt.(
          list ~sep:(any " && ") (fun ppf (e, pol) ->
              if pol then pp_sexpr ppf e else Fmt.pf ppf "!(%a)" pp_sexpr e))
        (List.rev pc)

let pp_writes ppf writes =
  match writes with
  | [] -> Fmt.string ppf "(no writes)"
  | _ ->
      Fmt.pf ppf "%a"
        Fmt.(
          list ~sep:(any "; ") (fun ppf (scope, field, e) ->
              Fmt.pf ppf "%s.%s = %a" (Nfc.keyword_of_scope scope) field pp_sexpr e))
        writes
