(* NF-C DSL: lexer, parser, interpreter, isolation. *)

open Gunfu

(* A toy binding over two int tables: "Packet" fields and "PerFlowState"
   fields, plus TempState registers. Reads/writes are logged so tests can
   assert what state a program touched. *)
type env = {
  pkt : (string, int) Hashtbl.t;
  pfs : (string, int) Hashtbl.t;
  tmp : (string, int) Hashtbl.t;
  mutable log : (string * string) list;  (* (op, scope.field) *)
}

let env () =
  { pkt = Hashtbl.create 8; pfs = Hashtbl.create 8; tmp = Hashtbl.create 8; log = [] }

let scope_name = function
  | Nfc.Packet -> "Packet"
  | Nfc.Per_flow -> "PerFlowState"
  | Nfc.Sub_flow -> "SubFlowState"
  | Nfc.Control -> "ControlState"
  | Nfc.Temp -> "TempState"
  | Nfc.Match_state -> "MatchState"

let binding e : Nfc.binding =
  let table = function
    | Nfc.Packet -> e.pkt
    | Nfc.Per_flow -> e.pfs
    | Nfc.Temp -> e.tmp
    | s -> raise (Nfc.Nfc_error ("scope not bound: " ^ scope_name s))
  in
  {
    Nfc.read_field =
      (fun _ctx _task scope field ->
        e.log <- ("r", scope_name scope ^ "." ^ field) :: e.log;
        Option.value ~default:0 (Hashtbl.find_opt (table scope) field));
    write_field =
      (fun _ctx _task scope field v ->
        e.log <- ("w", scope_name scope ^ "." ^ field) :: e.log;
        Hashtbl.replace (table scope) field v);
  }

let worker = lazy (Worker.create ~id:99 ())

let run_action action =
  let task = Nftask.create 0 in
  Nftask.load task ~cs:0 ~packet:None ~aux:0 ~flow_hint:(-1);
  Action.execute action (Worker.ctx (Lazy.force worker)) task

let compile e src = Nfc.compile ~binding:(binding e) src

(* ----- parsing ----- *)

let test_parse_listing4 () =
  let p =
    Nfc.parse
      "NFAction(flow_mapper) { Packet.src_ip = PerFlowState.ip; Packet.dst_port = PerFlowState.port; Emit(Event_Packet); }"
  in
  Alcotest.(check string) "action name" "flow_mapper" p.Nfc.action_name;
  Alcotest.(check int) "three statements" 3 (List.length p.Nfc.body)

let test_parse_comments () =
  let p = Nfc.parse "NFAction(x) { // set field\n Packet.a = 1; }" in
  Alcotest.(check int) "comment skipped" 1 (List.length p.Nfc.body)

let test_parse_temporaries_collected () =
  let p =
    Nfc.parse
      "NFAction(x) { TempState.t1 = 1; TempState.t2 = TempState.t1 + TempState.t3; Emit(done); }"
  in
  Alcotest.(check (list string)) "temporaries found (decl order)" [ "t1"; "t2"; "t3" ]
    p.Nfc.temporaries

let test_parse_errors () =
  List.iter
    (fun src ->
      match Nfc.parse src with
      | exception Nfc.Nfc_error _ -> ()
      | _ -> Alcotest.fail ("accepted bad program: " ^ src))
    [
      "Packet.a = 1;";
      "NFAction() { }";
      "NFAction(x) { Packet.a = ; }";
      "NFAction(x) { Unknown.a = 1; }";
      "NFAction(x) { Packet.a = 1 }";
      "NFAction(x) { Packet.a = 1; ";
      "NFAction(x) { } trailing";
    ]

let test_parse_huge_int_literal () =
  (* An out-of-range literal is a syntax error (Nfc_error), not a crash
     or a silently wrapped value. *)
  match Nfc.parse "NFAction(x) { Packet.a = 99999999999999999999999999; }" with
  | exception Nfc.Nfc_error msg ->
      Alcotest.(check bool) "names the literal" true
        (String.length msg > 0 && String.contains msg '9')
  | _ -> Alcotest.fail "oversized integer literal must raise Nfc_error"

(* ----- evaluation ----- *)

let test_assignment_and_arith () =
  let e = env () in
  Hashtbl.replace e.pfs "ip" 42;
  let a = compile e "NFAction(x) { Packet.out = PerFlowState.ip * 2 + 1; Emit(done); }" in
  let ev = run_action a in
  Alcotest.(check int) "arithmetic" 85 (Hashtbl.find e.pkt "out");
  Alcotest.(check string) "emitted event" "done" (Event.to_key ev)

let test_operator_precedence () =
  let e = env () in
  let a = compile e "NFAction(x) { TempState.r = 2 + 3 * 4 - 1; Emit(done); }" in
  ignore (run_action a);
  Alcotest.(check int) "2+3*4-1 = 13" 13 (Hashtbl.find e.tmp "r")

let test_parens_and_mod () =
  let e = env () in
  let a = compile e "NFAction(x) { TempState.r = (2 + 3) * 4 % 7; Emit(done); }" in
  ignore (run_action a);
  Alcotest.(check int) "(2+3)*4 mod 7 = 6" 6 (Hashtbl.find e.tmp "r")

let test_comparison_and_if () =
  let e = env () in
  Hashtbl.replace e.pkt "port" 80;
  let a =
    compile e
      "NFAction(x) { if (Packet.port == 80) { TempState.hit = 1; Emit(web); } else { Emit(other); } }"
  in
  Alcotest.(check string) "took then-branch" "web" (Event.to_key (run_action a));
  Alcotest.(check int) "side effect" 1 (Hashtbl.find e.tmp "hit");
  Hashtbl.replace e.pkt "port" 22;
  Alcotest.(check string) "took else-branch" "other" (Event.to_key (run_action a))

let test_if_without_else_falls_through () =
  let e = env () in
  Hashtbl.replace e.pkt "v" 0;
  let a = compile e "NFAction(x) { if (Packet.v > 10) { Emit(big); } Emit(small); }" in
  Alcotest.(check string) "falls through to next stmt" "small" (Event.to_key (run_action a))

let test_drop_statement () =
  let e = env () in
  let a = compile e "NFAction(x) { Drop(); }" in
  Alcotest.(check bool) "drop event" true (Event.equal Event.Drop_packet (run_action a))

let test_emit_event_packet_translation () =
  let e = env () in
  let a = compile e "NFAction(x) { Emit(Event_Packet); }" in
  Alcotest.(check string) "Event_Packet -> packet" "packet" (Event.to_key (run_action a));
  let a2 = compile e "NFAction(x) { Emit(MATCH_SUCCESS); }" in
  Alcotest.(check bool) "MATCH_SUCCESS passthrough" true
    (Event.equal Event.Match_success (run_action a2))

let test_default_event () =
  let e = env () in
  let a = compile e "NFAction(x) { Packet.a = 1; }" in
  Alcotest.(check string) "no Emit -> default" "continue" (Event.to_key (run_action a))

let test_emit_stops_execution () =
  let e = env () in
  let a = compile e "NFAction(x) { Emit(done); Packet.after = 1; }" in
  ignore (run_action a);
  Alcotest.(check bool) "statements after Emit not executed" false
    (Hashtbl.mem e.pkt "after");
  (* An explicit Emit(continue) in a branch decides too: only running off
     the end of a body falls through. *)
  let a = compile e "NFAction(x) { if (1) { Emit(continue); } Packet.after = 1; }" in
  Alcotest.(check string) "explicit continue" "continue" (Event.to_key (run_action a));
  Alcotest.(check bool) "statements after a branch's Emit not executed" false
    (Hashtbl.mem e.pkt "after")

let test_division_by_zero_modulo () =
  let e = env () in
  let a = compile e "NFAction(x) { TempState.r = 1 % 0; Emit(done); }" in
  (match run_action a with
  | exception Nfc.Nfc_error _ -> ()
  | _ -> Alcotest.fail "modulo by zero must raise")

let test_isolation_unbound_scope () =
  (* The binding exposes only Packet/PerFlowState/TempState: touching
     ControlState is a compile-check violation surfaced at run time. *)
  let e = env () in
  let a = compile e "NFAction(x) { ControlState.cfg = 1; Emit(done); }" in
  match run_action a with
  | exception Nfc.Nfc_error msg ->
      Alcotest.(check bool) "names the scope" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "unbound scope access must raise"

let test_access_log () =
  let e = env () in
  Hashtbl.replace e.pfs "ip" 7;
  let a = compile e "NFAction(x) { Packet.src = PerFlowState.ip; Emit(done); }" in
  ignore (run_action a);
  Alcotest.(check (list (pair string string))) "exact state touched"
    [ ("w", "Packet.src"); ("r", "PerFlowState.ip") ]
    e.log

let test_cost_scales_with_body () =
  let e = env () in
  let small = compile e "NFAction(x) { Emit(done); }" in
  let big =
    compile e
      "NFAction(x) { Packet.a = 1 + 2 + 3; Packet.b = Packet.a * 2; Packet.c = Packet.b - 1; Emit(done); }"
  in
  Alcotest.(check bool) "bigger body costs more cycles" true
    (big.Action.base_cycles > small.Action.base_cycles)

let qcheck_arith_matches_ocaml =
  QCheck.Test.make ~name:"NF-C arithmetic agrees with OCaml" ~count:200
    QCheck.(triple (int_range 0 1000) (int_range 0 1000) (int_range 1 100))
    (fun (x, y, z) ->
      let e = env () in
      Hashtbl.replace e.pkt "x" x;
      Hashtbl.replace e.pkt "y" y;
      Hashtbl.replace e.pkt "z" z;
      let a =
        compile e
          "NFAction(q) { TempState.r = (Packet.x + Packet.y) * 2 - Packet.x % Packet.z; Emit(done); }"
      in
      ignore (run_action a);
      Hashtbl.find e.tmp "r" = ((x + y) * 2) - (x mod z))

let qcheck_print_parse_roundtrip =
  (* The printer emits exactly the surface syntax the parser accepts, and
     [of_body] collects temporaries the way [parse] does — so a generated
     AST survives print-then-parse bit-for-bit (the foundation under the
     symbolic checker's "the source we analyze is the source that ran"). *)
  QCheck.Test.make ~name:"print/parse round-trip on generated programs" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = Check.Progen.random_nfc ~seed in
      Nfc.parse (Nfc.to_string p) = p)

let suite =
  [
    Alcotest.test_case "parse listing 4" `Quick test_parse_listing4;
    Alcotest.test_case "parse comments" `Quick test_parse_comments;
    Alcotest.test_case "temporaries collected" `Quick test_parse_temporaries_collected;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "oversized int literal" `Quick test_parse_huge_int_literal;
    Alcotest.test_case "assignment/arith" `Quick test_assignment_and_arith;
    Alcotest.test_case "operator precedence" `Quick test_operator_precedence;
    Alcotest.test_case "parens and mod" `Quick test_parens_and_mod;
    Alcotest.test_case "comparison and if" `Quick test_comparison_and_if;
    Alcotest.test_case "if fall-through" `Quick test_if_without_else_falls_through;
    Alcotest.test_case "drop" `Quick test_drop_statement;
    Alcotest.test_case "Event_Packet translation" `Quick test_emit_event_packet_translation;
    Alcotest.test_case "default event" `Quick test_default_event;
    Alcotest.test_case "emit stops execution" `Quick test_emit_stops_execution;
    Alcotest.test_case "modulo by zero" `Quick test_division_by_zero_modulo;
    Alcotest.test_case "isolation: unbound scope" `Quick test_isolation_unbound_scope;
    Alcotest.test_case "access log" `Quick test_access_log;
    Alcotest.test_case "cost scales with body" `Quick test_cost_scales_with_body;
    Helpers.qcheck qcheck_arith_matches_ocaml;
    Helpers.qcheck qcheck_print_parse_roundtrip;
  ]
