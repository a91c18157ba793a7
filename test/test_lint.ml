(* The static analyzer (nflint): the shared dataflow fixpoint, NF-C
   effects summaries, the bad-spec fixtures (each must yield exactly its
   intended finding), cleanliness of every shipped spec, a constructed
   short-distance build, and the analyzer's verdict on a compile
   ({!Analysis.Register.check}). *)

open Gunfu
open Analysis

let specs_dir = "../specs"

let significant fs =
  List.filter
    (fun f -> Report.severity_rank f.Report.severity >= Report.severity_rank Report.Warning)
    fs

let pp_findings fs = Fmt.str "%a" (Fmt.list Report.pp_finding) fs

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ----- dataflow ----- *)

(* a --l--> b --j--> d ; a --r--> c --j--> d : the classic join diamond. *)
let diamond () =
  let bld = Fsm.Builder.create () in
  let a = Fsm.Builder.add_state bld "a" in
  let b = Fsm.Builder.add_state bld "b" in
  let c = Fsm.Builder.add_state bld "c" in
  let d = Fsm.Builder.add_state bld "d" in
  Fsm.Builder.add_edge bld ~src:a ~event:"l" ~dst:b;
  Fsm.Builder.add_edge bld ~src:a ~event:"r" ~dst:c;
  Fsm.Builder.add_edge bld ~src:b ~event:"j" ~dst:d;
  Fsm.Builder.add_edge bld ~src:c ~event:"j" ~dst:d;
  (Fsm.Builder.build bld, a, b, c, d)

let run_diamond ~join ~init =
  let fsm, a, _, _, d = diamond () in
  let eq = String.equal in
  let r =
    Dataflow.forward fsm ~entry:a ~entry_out:[ "seed" ] ~init ~no_pred:[]
      ~join:(join ~equal:eq)
      ~equal:(Dataflow.Set_ops.set_equal ~equal:eq)
      ~transfer:(fun i f -> Dataflow.Set_ops.union ~equal:eq f [ Fsm.name fsm i ])
  in
  (r, d)

let test_dataflow_must () =
  (* Must-analysis: only facts on EVERY path into d survive the join —
     "b" and "c" are branch-local, "seed" flows through both. *)
  let r, d = run_diamond ~join:Dataflow.Set_ops.inter ~init:[ "seed"; "b"; "c"; "d" ] in
  Alcotest.(check bool) "ins(d) is exactly {seed}" true
    (Dataflow.Set_ops.set_equal ~equal:String.equal r.Dataflow.ins.(d) [ "seed" ]);
  Alcotest.(check bool) "outs(d) adds d's own fact" true
    (Dataflow.Set_ops.set_equal ~equal:String.equal r.Dataflow.outs.(d) [ "seed"; "d" ])

let test_dataflow_may () =
  (* May-analysis (join = union): both branch facts reach d. *)
  let r, d = run_diamond ~join:Dataflow.Set_ops.union ~init:[] in
  Alcotest.(check bool) "ins(d) is {seed,b,c}" true
    (Dataflow.Set_ops.set_equal ~equal:String.equal r.Dataflow.ins.(d) [ "seed"; "b"; "c" ])

let test_dataflow_reachability_and_witness () =
  let bld = Fsm.Builder.create () in
  let a = Fsm.Builder.add_state bld "a" in
  let b = Fsm.Builder.add_state bld "b" in
  let orphan = Fsm.Builder.add_state bld "orphan" in
  Fsm.Builder.add_edge bld ~src:a ~event:"x" ~dst:b;
  Fsm.Builder.add_edge bld ~src:orphan ~event:"x" ~dst:b;
  let fsm = Fsm.Builder.build bld in
  let reach = Dataflow.reachable fsm ~entry:a in
  Alcotest.(check bool) "b reachable" true reach.(b);
  Alcotest.(check bool) "orphan not reachable" false reach.(orphan);
  let co = Dataflow.coreachable fsm ~exit_:b in
  Alcotest.(check bool) "orphan co-reachable (it can reach b)" true co.(orphan);
  (match Dataflow.witness fsm ~entry:a ~target:b with
  | Some [ s0; s1 ] ->
      Alcotest.(check int) "witness starts at entry" a s0;
      Alcotest.(check int) "witness ends at target" b s1
  | other ->
      Alcotest.failf "expected 2-state witness, got %s"
        (match other with None -> "None" | Some p -> string_of_int (List.length p)))
  ;
  Alcotest.(check bool) "no witness into an orphan" true
    (Dataflow.witness fsm ~entry:a ~target:orphan = None)

(* ----- effects ----- *)

let eff src =
  match Effects.of_source src with
  | Ok e -> e
  | Error msg -> Alcotest.failf "unexpected NF-C error: %s" msg

let has_access e scope field write =
  List.exists
    (fun (a : Effects.access) ->
      a.Effects.a_scope = scope && a.Effects.a_field = field && a.Effects.a_write = write)
    e.Effects.accesses

let test_effects_reads_writes_emits () =
  let e = eff "NFAction(m) { Packet.src_ip = PerFlowState.ip; Emit(Event_Packet); }" in
  Alcotest.(check bool) "writes Packet.src_ip" true (has_access e Nfc.Packet "src_ip" true);
  Alcotest.(check bool) "reads PerFlowState.ip" true (has_access e Nfc.Per_flow "ip" false);
  Alcotest.(check (list string)) "Event_Packet normalizes to its key" [ "packet" ]
    e.Effects.emits;
  Alcotest.(check bool) "every path emits" false e.Effects.falls_through;
  Alcotest.(check bool) "touches Packet" true (Effects.touches e Nfc.Packet);
  Alcotest.(check bool) "never writes PerFlowState" false
    (Effects.touches e ~write:true Nfc.Per_flow)

let test_effects_if_joins_branches () =
  (* Both branches are visited (may-info: both emits) while the temp
     must-set takes the meet: t is written on every path, u on one. *)
  let e =
    eff
      "NFAction(m) { if (Packet.p == 1) { TempState.t = 1; TempState.u = 1; Emit(a); } \
       else { TempState.t = 2; Emit(b); } }"
  in
  Alcotest.(check (list string)) "emits from both branches" [ "a"; "b" ] e.Effects.emits;
  Alcotest.(check bool) "t definitely written" true (List.mem "t" e.Effects.temp_written);
  Alcotest.(check bool) "u only conditionally written" false
    (List.mem "u" e.Effects.temp_written)

let test_effects_temp_exposure () =
  (* v is read before any local write: its value leaks in from outside.
     u is written first, so the later read is covered. *)
  let e = eff "NFAction(m) { TempState.u = TempState.v + 1; Packet.o = TempState.u; Emit(a); }" in
  Alcotest.(check (list string)) "v exposed" [ "v" ] e.Effects.temp_exposed;
  Alcotest.(check (list string)) "u definitely written" [ "u" ] e.Effects.temp_written;
  (* A read under an if that only sometimes wrote first is exposed too. *)
  let e2 =
    eff "NFAction(m) { if (Packet.p == 1) { TempState.t = 1; } Packet.o = TempState.t; Emit(a); }"
  in
  Alcotest.(check (list string)) "conditionally-written read exposed" [ "t" ]
    e2.Effects.temp_exposed

let test_effects_drop_and_fall_through () =
  let e = eff "NFAction(m) { if (Packet.p == 1) { Drop(); } Packet.a = 1; }" in
  Alcotest.(check (list string)) "Drop maps to its event key" [ "DROP" ] e.Effects.emits;
  Alcotest.(check bool) "the no-drop path falls through" true e.Effects.falls_through

(* ----- the bad fixtures: each yields exactly its intended finding ----- *)

let load_module path = Spec.module_spec_of_string (Nfs.Catalog.read_file path)

let expect_single_finding file rule severity qname () =
  let fs = significant (Lints.of_module (load_module (Filename.concat specs_dir file))) in
  match fs with
  | [ f ] ->
      Alcotest.(check string) (file ^ ": rule") rule f.Report.rule;
      Alcotest.(check string) (file ^ ": severity") (Report.severity_label severity)
        (Report.severity_label f.Report.severity);
      Alcotest.(check string) (file ^ ": offending state") qname f.Report.qname
  | fs ->
      Alcotest.failf "%s: expected exactly one finding, got %d:\n%s" file (List.length fs)
        (pp_findings fs)

let test_cold_access_witness () =
  (* The cold-access finding must carry the FSM path that reaches the
     demand miss. *)
  let fs = Lints.of_module (load_module (specs_dir ^ "/bad/cold_access.yaml")) in
  match significant fs with
  | [ f ] ->
      Alcotest.(check (list string)) "entry-to-offender path" [ "Start"; "rewrite" ]
        f.Report.witness
  | fs -> Alcotest.failf "expected one finding:\n%s" (pp_findings fs)

(* ----- all shipped specs are clean ----- *)

let is_composition src =
  List.exists
    (fun l -> String.length l >= 3 && String.sub l 0 3 = "nf:")
    (String.split_on_char '\n' src)

let test_shipped_modules_clean () =
  let files =
    Sys.readdir specs_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".yaml")
    |> List.sort compare
  in
  Alcotest.(check bool) "found the shipped specs" true (List.length files >= 10);
  List.iter
    (fun file ->
      let src = Nfs.Catalog.read_file (Filename.concat specs_dir file) in
      if not (is_composition src) then
        let fs = Lints.of_module (Spec.module_spec_of_string src) in
        Alcotest.(check string) (file ^ " lints clean") "" (pp_findings fs))
    files

let test_shipped_builds_clean () =
  List.iter
    (fun name ->
      let v = Check.Progen.spec_view ~opts:Compiler.default_opts ~specs_dir ~name () in
      let fs = Lints.of_build v in
      Alcotest.(check string) (name ^ " build lints clean") "" (pp_findings fs))
    Check.Progen.spec_names

(* ----- a constructed build with a short-distance prefetch ----- *)

let toy_sd_spec =
  Spec.module_spec_of_string
    "module: toy_sd\n\
     category: StatefulNF\n\
     transitions:\n\
     - Start,packet->warm\n\
     - warm,go->use\n\
     - use,packet->End\n\
     fetching:\n\
    \  warm:\n\
    \  - header\n\
    \  use:\n\
    \  - mapping\n\
     states:\n\
    \  header: packet\n\
    \  mapping: per_flow\n\
     nfc:\n\
    \  warm: NFAction(warm) { Packet.ttl = Packet.ttl - 1; Emit(go); }\n\
    \  use: NFAction(use) { Packet.src = PerFlowState.ip; Emit(Event_Packet); }\n"

let dummy_action name = Action.make ~name (fun _ _ -> Event.Packet_arrival)

let toy_sd_instance () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let arena =
    Structures.State_arena.create layout ~label:"toy_pf" ~entry_bytes:64 ~count:16 ()
  in
  {
    Compiler.i_name = "t";
    i_spec = toy_sd_spec;
    i_actions = [ ("warm", dummy_action "warm"); ("use", dummy_action "use") ];
    i_bindings =
      [ ("header", Prefetch.Packet_header 64); ("mapping", Prefetch.Per_flow (arena, [])) ];
    i_key_kind = None;
  }

let toy_nf = { Spec.n_name = "toy"; n_modules = [ ("t", "toy_sd") ]; n_transitions = [] }

let test_short_distance_flagged () =
  (* The per-flow prefetch rides the transition into "use" — the very
     state whose action reads it — while "warm" could host it (no kill,
     no competing fetch of the class). The header prefetch on "warm" is
     NOT flagged: its only predecessor is the entry pseudo-state. *)
  match Lints.of_build (Compiler.view ~name:"toy" [ toy_sd_instance () ] toy_nf) with
  | [ f ] ->
      Alcotest.(check string) "rule" "short-distance" f.Report.rule;
      Alcotest.(check string) "severity" "info" (Report.severity_label f.Report.severity);
      Alcotest.(check string) "anchored at the consuming state" "t.use" f.Report.qname;
      Alcotest.(check bool) "detail names the hoist host" true
        (contains ~sub:"t.warm" f.Report.detail)
  | fs -> Alcotest.failf "expected exactly the short-distance note:\n%s" (pp_findings fs)

(* ----- the analyzer's verdict on a compile ----- *)

let cold_instance () =
  (* The cold_access fixture as a real instance: the action reads
     per-flow state but only the header is ever fetched. *)
  {
    Compiler.i_name = "c";
    i_spec = load_module (specs_dir ^ "/bad/cold_access.yaml");
    i_actions = [ ("rewrite", dummy_action "rewrite") ];
    i_bindings = [ ("header", Prefetch.Packet_header 64) ];
    i_key_kind = None;
  }

let cold_nf = { Spec.n_name = "coldnf"; n_modules = [ ("c", "bad_cold") ]; n_transitions = [] }

let test_lint_error_fails_compilation () =
  match Register.check (Compiler.view ~name:"coldnf" [ cold_instance () ] cold_nf) with
  | exception Compiler.Compile_error msg ->
      Alcotest.(check bool) "error names the analyzer" true
        (contains ~sub:"nflint" msg)
  | () -> Alcotest.fail "lint must fail compilation on a cold access"

let test_lint_clean_program_compiles_strictly () =
  (* Info-severity findings (the short-distance note) never fail. *)
  Register.check (Compiler.view ~name:"toy" [ toy_sd_instance () ] toy_nf)

let test_match_removal_missing_instance () =
  let nf = { Spec.n_name = "ghostnf"; n_modules = [ ("ghost", "m") ]; n_transitions = [] } in
  match Compiler.remove_redundant_matching [] nf with
  | exception Compiler.Compile_error msg ->
      Alcotest.(check bool) "names the missing instance" true
        (contains ~sub:"ghost" msg)
  | _ -> Alcotest.fail "match removal over a missing instance must fail"

(* ----- report rendering ----- *)

let sample_finding =
  {
    Report.rule = "cold-access";
    severity = Report.Error;
    subject = "m";
    qname = "s";
    detail = "a \"quoted\"\nmulti-line detail";
    witness = [ "Start"; "s" ];
  }

let test_report_json_escapes () =
  let json = Report.to_json [ sample_finding ] in
  Alcotest.(check bool) "escapes quotes" true
    (contains ~sub:{|\"quoted\"|} json);
  Alcotest.(check bool) "escapes newlines" true (contains ~sub:{|\n|} json);
  Alcotest.(check bool) "carries the witness" true
    (contains ~sub:{|"witness":["Start","s"]|} json);
  Alcotest.(check string) "empty list renders as empty array" "[]" (Report.to_json [])

let test_report_sort_and_worst () =
  let mk rule severity = { sample_finding with Report.rule; severity } in
  let fs = [ mk "b" Report.Info; mk "a" Report.Error; mk "c" Report.Warning ] in
  Alcotest.(check (list string)) "severity-descending order" [ "a"; "c"; "b" ]
    (List.map (fun f -> f.Report.rule) (Report.sort fs));
  (match Report.worst fs with
  | Some Report.Error -> ()
  | _ -> Alcotest.fail "worst must be Error");
  Alcotest.(check bool) "worst of nothing" true (Report.worst [] = None)

let suite =
  [
    Alcotest.test_case "dataflow: must join" `Quick test_dataflow_must;
    Alcotest.test_case "dataflow: may join" `Quick test_dataflow_may;
    Alcotest.test_case "dataflow: reachability + witness" `Quick
      test_dataflow_reachability_and_witness;
    Alcotest.test_case "effects: reads/writes/emits" `Quick test_effects_reads_writes_emits;
    Alcotest.test_case "effects: if joins branches" `Quick test_effects_if_joins_branches;
    Alcotest.test_case "effects: temp exposure" `Quick test_effects_temp_exposure;
    Alcotest.test_case "effects: drop + fall-through" `Quick
      test_effects_drop_and_fall_through;
    Alcotest.test_case "fixture: cold access" `Quick
      (expect_single_finding "bad/cold_access.yaml" "cold-access" Report.Error "rewrite");
    Alcotest.test_case "fixture: interleaving conflict" `Quick
      (expect_single_finding "bad/control_race.yaml" "interleaving-conflict" Report.Warning
         "bump_a");
    Alcotest.test_case "fixture: temp escape" `Quick
      (expect_single_finding "bad/temp_escape.yaml" "temp-escape" Report.Error "use");
    Alcotest.test_case "fixture: unreachable state" `Quick
      (expect_single_finding "bad/unreachable.yaml" "unreachable-state" Report.Warning
         "orphan");
    Alcotest.test_case "fixture: constant condition" `Quick
      (expect_single_finding "bad/constant_condition.yaml" "constant-condition"
         Report.Warning "decide");
    Alcotest.test_case "fixture: cold access carries witness" `Quick test_cold_access_witness;
    Alcotest.test_case "shipped module specs clean" `Quick test_shipped_modules_clean;
    Alcotest.test_case "shipped builds clean" `Quick test_shipped_builds_clean;
    Alcotest.test_case "short-distance prefetch flagged" `Quick test_short_distance_flagged;
    Alcotest.test_case "lint=Error fails compile" `Quick test_lint_error_fails_compilation;
    Alcotest.test_case "clean program compiles strictly" `Quick
      test_lint_clean_program_compiles_strictly;
    Alcotest.test_case "match removal: missing instance" `Quick
      test_match_removal_missing_instance;
    Alcotest.test_case "report: json escaping" `Quick test_report_json_escapes;
    Alcotest.test_case "report: sort + worst" `Quick test_report_sort_and_worst;
  ]
