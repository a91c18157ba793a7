(* Translation validation (verifyeq): the symbolic engine's simplifier
   and decision procedure, path summaries of NF-C actions, the per-pass
   equivalence checker proving every shipped composition and a generated
   sweep, the analyzer's verdict on a compile ({!Analysis.Register.check})
   over shipped and generated programs, and — the teeth — seeded
   miscompiles (a dropped prefetch, a flipped jump-table cell, an emit
   the control logic never wired, a reclassified key kind) each rejected
   with a path witness naming the control state. *)

open Gunfu
open Analysis

let specs_dir = "../specs"

let spec_view name =
  Check.Progen.spec_view ~opts:Check.Progen.verify_opts ~specs_dir ~name ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let pp_findings fs = Fmt.str "%a" (Fmt.list Report.pp_finding) fs

let errors fs = List.filter (fun f -> f.Report.severity = Report.Error) fs

(* ----- the simplifier ----- *)

let va = Sym.Var (Nfc.Packet, "a")

let test_simplify () =
  let eq name expected e =
    Alcotest.(check bool) name true (Sym.sexpr_equal expected (Sym.simplify e))
  in
  eq "x - x folds to 0" (Sym.Const 0) (Sym.SBin (Nfc.Sub, va, va));
  eq "x + 0 is x" va (Sym.SBin (Nfc.Add, va, Sym.Const 0));
  eq "x * 0 is 0" (Sym.Const 0) (Sym.SBin (Nfc.Mul, va, Sym.Const 0));
  eq "x & x is x" va (Sym.SBin (Nfc.And, va, va));
  eq "x <= x is 1" (Sym.Const 1) (Sym.SBin (Nfc.Le, va, va));
  eq "constants fold"
    (Sym.Const 20)
    (Sym.SBin (Nfc.Mul, Sym.SBin (Nfc.Add, Sym.Const 2, Sym.Const 3), Sym.Const 4));
  (* The raise is part of the path's meaning: never folded away. *)
  eq "modulo by zero survives"
    (Sym.SBin (Nfc.Mod, Sym.Const 1, Sym.Const 0))
    (Sym.SBin (Nfc.Mod, Sym.Const 1, Sym.Const 0))

(* ----- the decision procedure ----- *)

let decision =
  Alcotest.testable
    (fun ppf d ->
      Fmt.string ppf
        (match d with Sym.True -> "True" | Sym.False -> "False" | Sym.Unknown -> "Unknown"))
    ( = )

let test_decide_interval () =
  (* pc: a < 10. *)
  let pc = [ (Sym.SBin (Nfc.Lt, va, Sym.Const 10), true) ] in
  Alcotest.check decision "a < 12 under a < 10" Sym.True
    (Sym.decide pc (Sym.SBin (Nfc.Lt, va, Sym.Const 12)));
  Alcotest.check decision "a >= 10 under a < 10" Sym.False
    (Sym.decide pc (Sym.SBin (Nfc.Ge, va, Sym.Const 10)));
  Alcotest.check decision "a < 5 under a < 10 is open" Sym.Unknown
    (Sym.decide pc (Sym.SBin (Nfc.Lt, va, Sym.Const 5)));
  (* Negative polarity: !(a < 10), i.e. a >= 10. *)
  let nc = [ (Sym.SBin (Nfc.Lt, va, Sym.Const 10), false) ] in
  Alcotest.check decision "a > 5 under !(a < 10)" Sym.True
    (Sym.decide nc (Sym.SBin (Nfc.Gt, va, Sym.Const 5)));
  Alcotest.check decision "bare variable with no facts" Sym.Unknown
    (Sym.decide [] va);
  (* Truthiness facts. *)
  Alcotest.check decision "a under pc [a]" Sym.True
    (Sym.decide [ (va, true) ] va);
  Alcotest.check decision "a under pc [!a]" Sym.False
    (Sym.decide [ (va, false) ] va)

let test_decide_congruence () =
  (* pc: a >= 0 && a mod 4 == 1. The sign fact matters: OCaml's [mod]
     takes the dividend's sign, so the congruence is only usable once the
     dividend is provably non-negative. *)
  let m4 = Sym.SBin (Nfc.Mod, va, Sym.Const 4) in
  let pc =
    [
      (Sym.SBin (Nfc.Ge, va, Sym.Const 0), true);
      (Sym.SBin (Nfc.Eq, m4, Sym.Const 1), true);
    ]
  in
  Alcotest.check decision "a%4==3 refuted by a%4==1" Sym.False
    (Sym.decide pc (Sym.SBin (Nfc.Eq, m4, Sym.Const 3)));
  Alcotest.check decision "without the sign fact, soundly Unknown" Sym.Unknown
    (Sym.decide
       [ (Sym.SBin (Nfc.Eq, m4, Sym.Const 1), true) ]
       (Sym.SBin (Nfc.Eq, m4, Sym.Const 3)));
  Alcotest.check decision "a%4!=3 proven" Sym.True
    (Sym.decide pc (Sym.SBin (Nfc.Ne, m4, Sym.Const 3)));
  Alcotest.check decision "a%4==1 confirmed" Sym.True
    (Sym.decide pc (Sym.SBin (Nfc.Eq, m4, Sym.Const 1)))

(* ----- path summaries ----- *)

let test_summarize_branches () =
  let p =
    Nfc.parse
      "NFAction(t) { if (Packet.a < 10) { Packet.b = 1; Emit(EMIT); } else { Drop(); } }"
  in
  let s = Sym.summarize p in
  Alcotest.(check int) "two paths" 2 (List.length s.Sym.s_paths);
  Alcotest.(check bool) "nothing truncated" false s.Sym.s_truncated;
  Alcotest.(check int) "no statically decided branch" 0 (List.length s.Sym.s_decided);
  (match s.Sym.s_paths with
  | [ t; e ] ->
      Alcotest.(check bool) "then-path emits EMIT" true (t.Sym.p_exit = Sym.Exit_emit "EMIT");
      Alcotest.(check bool) "then-path writes b = 1" true
        (match t.Sym.p_writes with
        | [ (Nfc.Packet, "b", w) ] -> Sym.sexpr_equal w (Sym.Const 1)
        | _ -> false);
      Alcotest.(check bool) "else-path drops" true (e.Sym.p_exit = Sym.Exit_drop)
  | _ -> Alcotest.fail "expected then/else paths in source order");
  Alcotest.(check (list string)) "exit keys in path order" [ "EMIT"; "DROP" ]
    (Sym.exit_keys s)

let test_summarize_entry_substitution () =
  (* Writes are expressed over ENTRY values: the temp assignment
     substitutes into the later packet write. *)
  let p =
    Nfc.parse
      "NFAction(t) { TempState.t = Packet.a + 1; Packet.b = TempState.t * 2; Emit(EMIT); }"
  in
  let s = Sym.summarize p in
  match s.Sym.s_paths with
  | [ path ] ->
      let expected =
        Sym.SBin (Nfc.Mul, Sym.SBin (Nfc.Add, va, Sym.Const 1), Sym.Const 2)
      in
      Alcotest.(check bool) "Packet.b = (Packet.a + 1) * 2" true
        (List.exists
           (fun (sc, f, w) ->
             sc = Nfc.Packet && f = "b" && Sym.sexpr_equal w expected)
           path.Sym.p_writes)
  | ps -> Alcotest.failf "expected one path, got %d" (List.length ps)

let test_summarize_constant_condition () =
  let p =
    Nfc.parse
      "NFAction(t) { if ((Packet.len - Packet.len) < 1) { Emit(EMIT); } else { Drop(); } }"
  in
  let s = Sym.summarize p in
  Alcotest.(check int) "only the live branch explored" 1 (List.length s.Sym.s_paths);
  match s.Sym.s_decided with
  | [ (0, _, true) ] -> ()
  | _ -> Alcotest.fail "the If must be decided true on every path"

let test_summarize_mod_zero () =
  let s = Sym.summarize (Nfc.parse "NFAction(t) { TempState.r = 1 % 0; Emit(EMIT); }") in
  (match s.Sym.s_paths with
  | [ p ] -> Alcotest.(check bool) "the path raises" true (p.Sym.p_exit = Sym.Exit_raise)
  | ps -> Alcotest.failf "expected one path, got %d" (List.length ps));
  Alcotest.(check (list string)) "a raising path hands control no event" []
    (Sym.exit_keys s)

(* ----- every shipped composition proves, with zero Unknown ----- *)

let test_shipped_specs_prove () =
  List.iter
    (fun name ->
      let v = spec_view name in
      let r = Symcheck.check v in
      Alcotest.(check string) (name ^ ": no findings") "" (pp_findings r.Symcheck.findings);
      Alcotest.(check (list string)) (name ^ ": all three passes proved")
        [ "match_removal"; "prefetch_dedup"; "specialize" ]
        r.Symcheck.proved;
      Alcotest.(check int) (name ^ ": zero Unknown fallbacks") 0 r.Symcheck.unknowns)
    Check.Progen.spec_names

let test_generated_programs_prove () =
  for seed = 300 to 311 do
    let r = Symcheck.check (Check.Progen.gen_view ~seed) in
    Alcotest.(check string)
      (Printf.sprintf "gen seed=%d: no findings" seed)
      "" (pp_findings r.Symcheck.findings);
    Alcotest.(check int) (Printf.sprintf "gen seed=%d: no unknowns" seed) 0
      r.Symcheck.unknowns
  done

(* ----- mutation teeth ----- *)

(* Miscompile 1: the compiler "loses" a prefetch the dedup pass never
   stripped. Some state's fetch must become cold on a witnessed path. *)
let test_mutation_dropped_prefetch () =
  let v = spec_view "sfc4" in
  let info = v.Compiler.v_program.Program.info in
  let refuted = ref None in
  Array.iteri
    (fun i (ci : Program.cs_info) ->
      if !refuted = None && ci.Program.prefetch <> [] then begin
        let saved = ci.Program.prefetch in
        ci.Program.prefetch <- [];
        let r = Symcheck.check v in
        (match
           List.find_opt
             (fun f ->
               f.Report.severity = Report.Error && f.Report.rule = "verifyeq-prefetch")
             r.Symcheck.findings
         with
        | Some f -> refuted := Some (i, f)
        | None -> ());
        ci.Program.prefetch <- saved
      end)
    info;
  match !refuted with
  | None -> Alcotest.fail "no dropped prefetch was refuted"
  | Some (i, f) ->
      Alcotest.(check string) "refutation anchored at the mutated state"
        info.(i).Program.qname f.Report.qname;
      Alcotest.(check bool) "carries the cold-path witness" true (f.Report.witness <> []);
      Alcotest.(check bool) "explains the miss" true
        (contains ~sub:"not in flight" f.Report.detail)

(* Miscompile 2: a corrupted jump table — one live cell re-routed, one
   dead cell brought to life. Both directions must be caught. *)
let test_mutation_table_flip () =
  let v = spec_view "nat" in
  let sp =
    match Specialize.get v.Compiler.v_program with
    | Some sp -> sp
    | None -> Alcotest.fail "verify_opts compiles with specialization on"
  in
  let table = Specialize.next_table sp in
  let n_classes = Specialize.n_classes sp in
  (* Builtin class columns (0..4) are always audited. *)
  let find pred =
    let r = ref None in
    Array.iteri
      (fun idx cell ->
        if !r = None && idx mod n_classes < 5 && pred cell then r := Some idx)
      table;
    match !r with Some idx -> idx | None -> Alcotest.fail "no such cell"
  in
  let expect_cell_finding label =
    let r = Symcheck.check v in
    match
      List.find_opt (fun f -> contains ~sub:"jump table cell" f.Report.detail)
        (errors r.Symcheck.findings)
    with
    | Some f ->
        Alcotest.(check string) (label ^ ": rule") "verifyeq-specialize" f.Report.rule
    | None -> Alcotest.failf "%s: corrupted cell not refuted:\n%s" label
                (pp_findings r.Symcheck.findings)
  in
  (* Live cell re-routed to quarantine. *)
  let live = find (fun c -> c >= 0) in
  let saved = table.(live) in
  table.(live) <- -1;
  expect_cell_finding "stale cell";
  table.(live) <- saved;
  (* Dead cell brought to life: a transition the spec never declared. *)
  let dead = find (fun c -> c < 0) in
  table.(dead) <- 0;
  expect_cell_finding "phantom cell";
  table.(dead) <- -1;
  (* Restored table proves again. *)
  let r = Symcheck.check v in
  Alcotest.(check string) "restored table is clean" "" (pp_findings r.Symcheck.findings)

(* Miscompile 3: the action emits an event the control logic never
   wired — the symbolic path summary must expose it with a witness
   naming the path condition and the emitted event. *)
let swap_source = "NFAction(swap) { Packet.seen = 1; Emit(EMIT); }"

let swap_spec =
  Spec.module_spec_of_string
    ("module: swap\n\
      category: StatefulNF\n\
      transitions:\n\
      - Start,packet->boom\n\
      - boom,DROP->End\n\
      fetching:\n\
     \  boom:\n\
     \  - header\n\
      states:\n\
     \  header: packet\n\
      nfc:\n\
     \  boom: " ^ swap_source ^ "\n")

let stub_binding =
  { Nfc.read_field = (fun _ _ _ _ -> 0); write_field = (fun _ _ _ _ _ -> ()) }

let swap_instance () =
  {
    Compiler.i_name = "b";
    i_spec = swap_spec;
    i_actions = [ ("boom", Nfc.compile ~binding:stub_binding swap_source) ];
    i_bindings = [ ("header", Prefetch.Packet_header 64) ];
    i_key_kind = None;
  }

let swap_nf =
  { Spec.n_name = "swapnf"; n_modules = [ ("b", "swap") ]; n_transitions = [] }

let test_mutation_emit_swap () =
  let v =
    Compiler.view ~opts:Check.Progen.verify_opts ~name:"swapnf" [ swap_instance () ] swap_nf
  in
  Specialize.install v.Compiler.v_program;
  let r = Symcheck.check v in
  match errors r.Symcheck.findings with
  | [ f ] ->
      Alcotest.(check string) "rule" "verifyeq-specialize" f.Report.rule;
      Alcotest.(check string) "names the control state" "b.boom" f.Report.qname;
      Alcotest.(check bool) "no transition for the emitted event" true
        (contains ~sub:{|emits "EMIT"|} f.Report.detail);
      (* The witness's last line is the symbolic path itself. *)
      (match List.rev f.Report.witness with
      | last :: _ ->
          Alcotest.(check bool) "path witness shows the diverging write + emit" true
            (contains ~sub:"Packet.seen = 1" last && contains ~sub:{|emit "EMIT"|} last)
      | [] -> Alcotest.fail "refutation must carry a witness")
  | fs -> Alcotest.failf "expected exactly one refutation:\n%s" (pp_findings fs)

(* Miscompile 4: a removed classifier whose key kind no survivor
   matches — its verdict was never reusable. *)
let test_mutation_key_kind_swap () =
  let v = spec_view "sfc4" in
  let post = List.map fst v.Compiler.v_nf.Spec.n_modules in
  let removed =
    List.filter
      (fun n -> not (List.mem n post))
      (List.map fst v.Compiler.v_orig_nf.Spec.n_modules)
  in
  (match removed with
  | [] -> Alcotest.fail "sfc4 must exercise match removal"
  | _ -> ());
  let victim = List.hd removed in
  let v' =
    {
      v with
      Compiler.v_orig_instances =
        List.map
          (fun i ->
            if i.Compiler.i_name = victim then
              { i with Compiler.i_key_kind = Some "verifyeq-test-kind" }
            else i)
          v.Compiler.v_orig_instances;
    }
  in
  let r = Symcheck.check v' in
  match
    List.find_opt (fun f -> f.Report.rule = "verifyeq-match-removal")
      (errors r.Symcheck.findings)
  with
  | Some f ->
      Alcotest.(check string) "names the deleted classifier" victim f.Report.qname;
      Alcotest.(check bool) "explains the verdict is not reusable" true
        (contains ~sub:"not reusable" f.Report.detail)
  | None ->
      Alcotest.failf "reclassified key kind not refuted:\n%s"
        (pp_findings r.Symcheck.findings)

(* ----- the analyzer's verdict on a compile ----- *)

(* A refuted pass fails the check, naming the validator: the shipped NAT
   passes, then fails once a live jump-table cell is re-routed (a
   miscompile nflint cannot see, so the verifier's verdict is the one
   that fires). *)
let test_verify_error_fails_compile () =
  let v = spec_view "nat" in
  Register.check v;
  let sp = Option.get (Specialize.get v.Compiler.v_program) in
  let table = Specialize.next_table sp in
  let live = ref (-1) in
  Array.iteri
    (fun idx cell ->
      if !live < 0 && idx mod Specialize.n_classes sp < 5 && cell >= 0 then live := idx)
    table;
  table.(!live) <- -1;
  match Register.check v with
  | exception Compiler.Compile_error msg ->
      Alcotest.(check bool) "error names verifyeq" true (contains ~sub:"verifyeq" msg)
  | () -> Alcotest.fail "a refuted pass must fail the check"

(* Every generated program is lint-clean and passes translation
   validation under its own random opts — the guarantee {!Check.Progen.case}
   enforces when a case is drawn. Both shapes must be covered. *)
let test_generated_programs_check () =
  let shapes = ref [] in
  for seed = 0 to 23 do
    let recipe = Check.Progen.recipe ~seed in
    let shape =
      match recipe with Check.Progen.Chain _ -> "chain" | Check.Progen.Synthetic _ -> "syn"
    in
    if not (List.mem shape !shapes) then shapes := shape :: !shapes;
    match Check.Progen.check_recipe ~seed recipe with
    | () -> ()
    | exception Compiler.Compile_error msg -> Alcotest.failf "gen seed=%d: %s" seed msg
  done;
  Alcotest.(check (list string)) "both shapes drawn" [ "chain"; "syn" ]
    (List.sort compare !shapes)

(* ----- Mod-by-zero semantics pinned across compilation modes ----- *)

let boom_source = "NFAction(boom) { TempState.r = 1 % 0; Emit(EMIT); }"

let boom_spec =
  Spec.module_spec_of_string
    ("module: boom\n\
      category: StatefulNF\n\
      transitions:\n\
      - Start,packet->boom\n\
      - boom,EMIT->End\n\
      fetching:\n\
     \  boom:\n\
     \  - header\n\
      states:\n\
     \  header: packet\n\
      nfc:\n\
     \  boom: " ^ boom_source ^ "\n")

let boom_instance () =
  {
    Compiler.i_name = "z";
    i_spec = boom_spec;
    i_actions = [ ("boom", Nfc.compile ~binding:stub_binding boom_source) ];
    i_bindings = [ ("header", Prefetch.Packet_header 64) ];
    i_key_kind = None;
  }

let boom_nf =
  { Spec.n_name = "boomnf"; n_modules = [ ("z", "boom") ]; n_transitions = [] }

let run_boom ~specialized =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen =
    Traffic.Flowgen.create ~seed:11 ~n_flows:16
      ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let pool = Netcore.Packet.Pool.create layout ~count:64 in
  let program = Compiler.compile ~name:"boomnf" [ boom_instance () ] boom_nf in
  if specialized then Specialize.install program else Specialize.remove program;
  let r = Rtc.run worker program (Workload.of_flowgen gen ~pool ~count:24) in
  ( r.Metrics.packets,
    r.Metrics.drops,
    r.Metrics.faulted,
    r.Metrics.faults,
    r.Metrics.degraded )

let test_mod_zero_containment_parity () =
  (* Every packet hits 1 % 0; the raise must be contained — not
     propagated — and identically so under the interpreter and the fused
     hot path: same quarantine count, same taxonomy, same degradation. *)
  let interp = run_boom ~specialized:false in
  let fused = run_boom ~specialized:true in
  Alcotest.(check bool) "interpreted ≡ specialized on faults" true (interp = fused);
  let _, _, faulted, faults, _ = interp in
  Alcotest.(check int) "every packet quarantined" 24 faulted;
  Alcotest.(check bool) "taxonomy blames the action raise" true
    (List.exists (fun (_, reason, n) -> reason = Fault.Action_raise && n > 0) faults)

let suite =
  [
    Alcotest.test_case "sym: simplifier" `Quick test_simplify;
    Alcotest.test_case "sym: interval decisions" `Quick test_decide_interval;
    Alcotest.test_case "sym: congruence decisions" `Quick test_decide_congruence;
    Alcotest.test_case "sym: branch summary" `Quick test_summarize_branches;
    Alcotest.test_case "sym: entry-value substitution" `Quick
      test_summarize_entry_substitution;
    Alcotest.test_case "sym: constant condition decided" `Quick
      test_summarize_constant_condition;
    Alcotest.test_case "sym: modulo-by-zero path" `Quick test_summarize_mod_zero;
    Alcotest.test_case "shipped specs prove, zero Unknown" `Quick
      test_shipped_specs_prove;
    Alcotest.test_case "generated programs prove" `Quick test_generated_programs_prove;
    Alcotest.test_case "mutation: dropped prefetch refuted" `Quick
      test_mutation_dropped_prefetch;
    Alcotest.test_case "mutation: jump-table flips refuted" `Quick
      test_mutation_table_flip;
    Alcotest.test_case "mutation: unwired emit refuted" `Quick test_mutation_emit_swap;
    Alcotest.test_case "mutation: reclassified key kind refuted" `Quick
      test_mutation_key_kind_swap;
    Alcotest.test_case "verify=Error fails compile" `Quick test_verify_error_fails_compile;
    Alcotest.test_case "generated programs pass Register.check" `Quick
      test_generated_programs_check;
    Alcotest.test_case "mod-by-zero containment parity" `Quick
      test_mod_zero_containment_parity;
  ]
