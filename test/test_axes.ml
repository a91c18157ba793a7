(* The oracle axes as one abstraction: a behaviour pin over every axis's
   outcome, one golden replay line per axis, the replay selector round trip
   through the shared case selection, and the inputs that used to pass
   without testing anything. *)

open Check

let specs_dir = "../specs"

(* ----- behaviour pin ----- *)

let add b s =
  Buffer.add_string b s;
  Buffer.add_char b '|'

let addi b i = add b (string_of_int i)
let marshal b v = add b (Marshal.to_string v [ Marshal.No_sharing ])

(* Packet ids are process-global, so they stay out of the fold. *)
let fold_obs b (o : Oracle.observation) =
  add b o.Oracle.o_label;
  marshal b o.Oracle.o_run;
  List.iter
    (fun (e : Oracle.emit) ->
      marshal b (Oracle.emit_content e);
      addi b e.Oracle.e_clock)
    o.Oracle.o_emits;
  List.iter (fun (_, flow) -> addi b flow) o.Oracle.o_inputs;
  add b o.Oracle.o_state;
  addi b o.Oracle.o_mshr_pending;
  addi b o.Oracle.o_mshr_limit

let fold_pass b (p : Recovery.pass) =
  List.iter
    (fun (label, o) ->
      add b label;
      fold_obs b o)
    p.Recovery.p_obs;
  marshal b p.Recovery.p_streams;
  add b p.Recovery.p_digest;
  let pk, dr, fl, wb = Recovery.pass_totals p in
  List.iter (addi b) [ pk; dr; fl; wb ]

let fold_outcome b (oc : _ Recovery.outcome) =
  fold_pass b oc.Recovery.oc_reference;
  fold_pass b oc.Recovery.oc_variant;
  List.iter
    (fun (where, (v : Oracle.violation)) ->
      add b where;
      add b v.Oracle.v_rule)
    oc.Recovery.oc_violations;
  add b (Option.value ~default:"-" oc.Recovery.oc_divergence)

let decision_key (d : Adaptive.Driver.decision) =
  Printf.sprintf "w%d@%d %s -> %s" d.Adaptive.Driver.d_index d.Adaptive.Driver.d_cycles
    (match d.Adaptive.Driver.d_move with
    | Some m -> Adaptive.Policy.move_label m
    | None -> "hold")
    (Adaptive.Config.label d.Adaptive.Driver.d_to)

(* A recovery kill, an SCR case under a 15,000 ppm plan with batch-8 and
   a seeded spray, an adaptive case that hands off to 4 SCR replicas, and
   one oracle case's 28 observations under a fault plan: streams, state
   digests, totals, violation rules and every axis extra, folded into one
   MD5. The pinned value was captured before the axes shared a recorder,
   a fault arm and an outcome. *)
let axis_digest () =
  let b = Buffer.create 65536 in
  let rc = Recovery.gen_rcase ~seed:21 ~profile:"mix" ~packets:160 in
  let plan = Faultgen.create ~rate_ppm:10_000 ~seed:21 () in
  let oc = Recovery.check_case ~plan ~cores:4 rc in
  let k = oc.Recovery.oc_extra in
  (match k.Recovery.k_kill with
  | Some (v, g) ->
      addi b v;
      addi b g
  | None -> add b "nokill");
  addi b k.Recovery.k_replayed;
  addi b k.Recovery.k_checkpoints;
  fold_outcome b oc;
  add b "#scr";
  let rc = Recovery.gen_rcase ~seed:400 ~profile:"mix" ~packets:96 in
  let plan = Faultgen.create ~rate_ppm:15_000 ~seed:400 () in
  let oc =
    Scrcheck.check_rcase ~plan ~spray:(Scaleout.Spray.Seeded 99) ~engine:(`Batch 8)
      ~cores:4 rc
  in
  let x = oc.Recovery.oc_extra in
  add b x.Scrcheck.engine;
  marshal b x.Scrcheck.stats;
  add b (string_of_bool x.Scrcheck.converged);
  fold_outcome b oc;
  add b "#adapt";
  let rc = Recovery.gen_rcase ~seed:13 ~profile:"zipf" ~packets:1024 in
  let params =
    {
      Adaptive.Policy.default_params with
      Adaptive.Policy.hi_skew = 0.05;
      lo_skew = 0.01;
      hi_imb = 1.1;
      confirm = 1;
    }
  in
  let oc = Adaptcheck.check_rcase ~scr:4 ~params ~epoch:128 rc in
  let x = oc.Recovery.oc_extra in
  addi b x.Adaptcheck.epoch;
  addi b x.Adaptcheck.moves;
  add b (Adaptive.Config.label x.Adaptcheck.final);
  List.iter (fun d -> add b (decision_key d)) x.Adaptcheck.decisions;
  marshal b x.Adaptcheck.run;
  fold_outcome b oc;
  add b "#oracle";
  let case = Progen.case ~seed:42 ~profile:"mix" ~packets:96 in
  let plan = Faultgen.create ~rate_ppm:20_000 ~seed:42 () in
  List.iter
    (fun specialize ->
      List.iter
        (fun x ->
          fold_obs b (Oracle.observe ~specialize ~plan x (case.Oracle.c_build ~packets:96)))
        (Oracle.reference :: Oracle.executors))
    [ false; true ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_behaviour_pinned () =
  Alcotest.(check string) "axis behaviour digest" "341036b6f783808862705e93d4e5f84e"
    (axis_digest ())

(* ----- replay lines ----- *)

let kill_outcome () =
  let rc = Recovery.gen_rcase ~seed:5 ~profile:"zipf" ~packets:48 in
  Recovery.check_case ~plan:(Faultgen.create ~seed:5 ()) ~cores:3 rc

let scr_outcome () =
  let rc = Recovery.spec_rcase ~specs_dir ~name:"sfc4" ~seed:2 ~packets:32 in
  Scrcheck.check_rcase
    ~plan:(Faultgen.create ~rate_ppm:15_000 ~seed:2 ())
    ~spray:(Scaleout.Spray.Seeded 99) ~engine:(`Batch 8) ~cores:4 rc

let adapt_outcome () =
  let rc = Recovery.gen_rcase ~seed:3 ~profile:"uniform" ~packets:64 in
  Adaptcheck.check_rcase ~scr:2 ~epoch:32 ~initial:`Rtc rc

let test_golden_repros () =
  let case = Progen.case ~seed:7 ~profile:"mix" ~packets:8 in
  Alcotest.(check string) "check --specialize"
    "gunfu_cli check --programs 1 --profile mix --seed 7 --packets 8 --specialize"
    (Oracle.check_case ~specialize:true case).Oracle.sc_repro;
  let case = Progen.spec_case ~specs_dir ~name:"nat" ~seed:3 ~packets:8 () in
  Alcotest.(check string) "chaos"
    "gunfu_cli chaos --spec nat --seed 3 --packets 8 --rate-ppm 20000"
    (Oracle.check_case ~plan:(Faultgen.create ~rate_ppm:20_000 ~seed:3 ()) case)
      .Oracle.sc_repro;
  Alcotest.(check string) "chaos --kill-cores"
    "gunfu_cli chaos --kill-cores --programs 1 --profile zipf --seed 5 --packets 48 \
     --cores 3 --rate-ppm 10000 --epoch 32"
    (kill_outcome ()).Recovery.oc_repro;
  Alcotest.(check string) "scr"
    "gunfu_cli scr --spec sfc4 --seed 2 --packets 32 --cores 4 --rate-ppm 15000 \
     --spray-seed 99 --batch 8"
    (scr_outcome ()).Recovery.oc_repro;
  Alcotest.(check string) "adapt"
    "gunfu_cli adapt --programs 1 --profile uniform --seed 3 --packets 64 --epoch 32 \
     --scr 2 --initial rtc"
    (adapt_outcome ()).Recovery.oc_repro

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let test_failing_line_replays () =
  let oc = kill_outcome () in
  Alcotest.(check bool) "the kill case passes" true (Recovery.passed oc);
  let line oc = Fmt.str "%a" Recovery.pp_outcome oc in
  Alcotest.(check bool) "a passing line carries no replay" false
    (ends_with ~suffix:oc.Recovery.oc_repro (line oc));
  List.iter
    (fun (what, failed) ->
      Alcotest.(check bool)
        (what ^ " ends in its replay")
        true
        (ends_with ~suffix:("replay: " ^ oc.Recovery.oc_repro) (line failed)))
    [
      ("a divergence", { oc with Recovery.oc_divergence = Some "flow 1 differs" });
      ( "a violation",
        {
          oc with
          Recovery.oc_violations =
            [ ("core0", { Oracle.v_rule = "clock"; v_detail = "ran backwards" }) ];
        } );
    ]

(* ----- the shared case selection ----- *)

let flag args name =
  let rec go = function
    | a :: v :: _ when String.equal a name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

(* Select cases the way the command line of [repro] would. *)
let replay_select kind repro =
  let args = String.split_on_char ' ' repro in
  let int name = int_of_string (Option.get (flag args name)) in
  Recovery.select kind ~specs_dir
    ~programs:(Option.fold ~none:1 ~some:int_of_string (flag args "--programs"))
    ~seed:(int "--seed") ~packets:(int "--packets") ?profile:(flag args "--profile")
    ?spec:(flag args "--spec") ()

let test_selector_round_trip () =
  List.iter
    (fun (case : Oracle.case) ->
      let repro =
        Oracle.repro ~command:"check" ~selector:case.Oracle.c_selector
          ~seed:case.Oracle.c_seed ~packets:case.Oracle.c_packets []
      in
      match replay_select Recovery.Oracle_cases repro with
      | [ again ] ->
          Alcotest.(check (pair string int))
            repro
            (case.Oracle.c_name, case.Oracle.c_seed)
            (again.Oracle.c_name, again.Oracle.c_seed)
      | l -> Alcotest.failf "%s selected %d cases" repro (List.length l))
    (Progen.case ~seed:17 ~profile:"burst" ~packets:24
    :: Progen.spec_cases ~specs_dir ~seed:4 ~packets:24 ());
  List.iter
    (fun (rc : Recovery.rcase) ->
      let repro = Recovery.repro rc ~command:"scr" [ "--cores 2" ] in
      match replay_select Recovery.Platform_cases repro with
      | [ again ] ->
          Alcotest.(check (pair string int))
            repro
            (rc.Recovery.r_name, rc.Recovery.r_seed)
            (again.Recovery.r_name, again.Recovery.r_seed);
          Alcotest.(check int) "packets" rc.Recovery.r_packets again.Recovery.r_packets
      | l -> Alcotest.failf "%s selected %d cases" repro (List.length l))
    (Recovery.gen_rcase ~seed:31 ~profile:"zipf" ~packets:24
    :: List.map
         (fun name -> Recovery.spec_rcase ~specs_dir ~name ~seed:6 ~packets:24)
         Progen.spec_names)

let test_selection_order () =
  let oracle =
    Recovery.select Recovery.Oracle_cases ~specs_dir ~programs:2 ~seed:10 ~packets:8 ()
  in
  Alcotest.(check (list (pair int string)))
    "oracle cases sweep seed-major"
    (List.concat_map (fun s -> List.map (fun p -> (s, p)) Progen.profiles) [ 10; 11 ])
    (List.map (fun (c : Oracle.case) -> (c.Oracle.c_seed, c.Oracle.c_profile)) oracle);
  let platform =
    Recovery.select Recovery.Platform_cases ~specs_dir ~programs:2 ~seed:10 ~packets:8 ()
  in
  Alcotest.(check (list int))
    "platform cases sweep profile-major"
    (List.concat_map (fun _ -> [ 10; 11 ]) Progen.profiles)
    (List.map (fun (rc : Recovery.rcase) -> rc.Recovery.r_seed) platform)

let test_vacuous_inputs_rejected () =
  let rejects what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let select = Recovery.select Recovery.Platform_cases ~specs_dir in
  rejects "negative packets" "--packets must be positive" (fun () ->
      select ~programs:1 ~seed:1 ~packets:(-5) ());
  rejects "zero packets on a spec" "--packets must be positive" (fun () ->
      select ~programs:1 ~seed:1 ~packets:0 ~spec:"all" ());
  rejects "negative programs" "--programs must be positive" (fun () ->
      select ~programs:(-1) ~seed:1 ~packets:8 ());
  rejects "unknown profile" "unknown profile bogus (expected one of: uniform, zipf, burst, mix)"
    (fun () -> select ~programs:1 ~seed:1 ~packets:8 ~profile:"bogus" ())

let suite =
  [
    Alcotest.test_case "axis behaviour pinned" `Quick test_behaviour_pinned;
    Alcotest.test_case "golden replay lines" `Quick test_golden_repros;
    Alcotest.test_case "failing line ends in replay" `Quick test_failing_line_replays;
    Alcotest.test_case "replay selector round trip" `Quick test_selector_round_trip;
    Alcotest.test_case "selection order" `Quick test_selection_order;
    Alcotest.test_case "vacuous inputs rejected" `Quick test_vacuous_inputs_rejected;
  ]
