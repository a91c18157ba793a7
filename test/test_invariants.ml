(* Executor-independent invariants: real observations from every kind of
   generated program satisfy them, tampered observations are flagged rule
   by rule, and the memory hierarchy's MSHR introspection keeps its
   promises (pending fills bounded by the MSHR count, ready_at never in
   the past). The broad sweep lives in test_oracle.ml; here each rule is
   exercised in isolation. *)

open Gunfu
open Check

let observe ?(profile = "uniform") ?(seed = 11) ?(packets = 48)
    ?(exec = Oracle.reference) () =
  let case = Progen.case ~seed ~profile ~packets in
  Oracle.observe exec (case.Oracle.c_build ~packets)

let exec_named name =
  List.find (fun x -> Exec.label x = name) (Oracle.reference :: Oracle.executors)

let test_real_observations_clean () =
  List.iter
    (fun (seed, profile, exec) ->
      let obs = observe ~seed ~profile ~exec:(exec_named exec) () in
      match Invariants.check obs with
      | [] -> ()
      | viol :: _ ->
          Alcotest.failf "seed %d/%s under %s: %a" seed profile exec
            Invariants.pp_violation viol)
    [
      (11, "uniform", "rtc");
      (11, "burst", "il-rr-4-d1");
      (12, "zipf", "il-rf-8-d1");
      (13, "mix", "batch-32");
    ]

let test_check_case_clean () =
  (* The CLI entry point: all executors over a fresh small case. *)
  let case = Progen.case ~seed:21 ~profile:"mix" ~packets:24 in
  match Invariants.check_case case with
  | [] -> ()
  | (exec, viol) :: _ ->
      Alcotest.failf "%s under %s: %a" case.Oracle.c_name exec
        Invariants.pp_violation viol

(* ----- each rule flags a tampered observation ----- *)

let expect_rule name rule check obs =
  match check obs with
  | [] -> Alcotest.failf "%s: tampered observation passed" name
  | viol :: _ ->
      Alcotest.(check string) (name ^ ": rule name") rule viol.Invariants.v_rule

let test_conservation_flags () =
  let obs = observe () in
  expect_rule "inflated packet counter" "conservation" Invariants.check_conservation
    {
      obs with
      Oracle.o_run = { obs.Oracle.o_run with Metrics.packets = obs.Oracle.o_run.Metrics.packets + 1 };
    };
  expect_rule "lost input item" "conservation" Invariants.check_conservation
    { obs with Oracle.o_inputs = List.tl obs.Oracle.o_inputs };
  expect_rule "wrong drop counter" "conservation" Invariants.check_conservation
    {
      obs with
      Oracle.o_run = { obs.Oracle.o_run with Metrics.drops = obs.Oracle.o_run.Metrics.drops + 1 };
    }

let test_flow_order_flags () =
  (* Burst traffic guarantees back-to-back packets of one flow; reversing
     the completion stream must therefore break per-flow order. *)
  let obs = observe ~profile:"burst" () in
  let multi =
    List.exists
      (fun e ->
        e.Oracle.e_flow >= 0
        && List.length (List.filter (fun o -> o.Oracle.e_flow = e.Oracle.e_flow) obs.Oracle.o_emits) > 1)
      obs.Oracle.o_emits
  in
  Alcotest.(check bool) "burst produced a flow with several packets" true multi;
  expect_rule "reversed completions" "flow-order" Invariants.check_flow_order
    { obs with Oracle.o_emits = List.rev obs.Oracle.o_emits }

let test_clock_flags () =
  let obs = observe () in
  (match obs.Oracle.o_emits with
  | first :: rest when rest <> [] ->
      let max_clock =
        List.fold_left (fun acc e -> max acc e.Oracle.e_clock) 0 obs.Oracle.o_emits
      in
      expect_rule "backwards clock" "clock" Invariants.check_clock
        { obs with Oracle.o_emits = { first with Oracle.e_clock = max_clock + 1 } :: rest }
  | _ -> Alcotest.fail "observation too small for the clock test");
  expect_rule "negative cycles" "clock" Invariants.check_clock
    { obs with Oracle.o_run = { obs.Oracle.o_run with Metrics.cycles = -1 } }

let test_memstats_flags () =
  let obs = observe () in
  expect_rule "MSHR budget exceeded" "memsim" Invariants.check_memstats
    { obs with Oracle.o_mshr_pending = obs.Oracle.o_mshr_limit + 1 };
  let mem = obs.Oracle.o_run.Metrics.mem in
  expect_rule "serve sum broken" "memsim" Invariants.check_memstats
    {
      obs with
      Oracle.o_run =
        {
          obs.Oracle.o_run with
          Metrics.mem = { mem with Memsim.Memstats.l1_hits = mem.Memsim.Memstats.l1_hits + 1 };
        };
    };
  expect_rule "negative counter" "memsim" Invariants.check_memstats
    {
      obs with
      Oracle.o_run =
        {
          obs.Oracle.o_run with
          Metrics.mem = { mem with Memsim.Memstats.prefetch_issued = -1 };
        };
    }

(* ----- MSHR introspection on the hierarchy itself ----- *)

(* Under any access mix, the pending-fill introspection agrees with the
   configured budget: never more deadlines than MSHRs, every ready_at
   strictly in the future, and the pair list consistent with the count. *)
let qcheck_mshr_deadlines =
  QCheck.Test.make ~name:"hierarchy: pending fills bounded, deadlines in the future"
    ~count:60
    QCheck.(list_of_size (Gen.int_range 1 80) (pair (int_bound 511) (int_bound 9)))
    (fun ops ->
      let h = Memsim.Hierarchy.create () in
      let cfg = Memsim.Hierarchy.config h in
      let now = ref 0 in
      List.for_all
        (fun (blk, kind) ->
          let addr = blk * cfg.Memsim.Hierarchy.line_bytes in
          (match kind mod 3 with
          | 0 -> ignore (Memsim.Hierarchy.read h ~now:!now ~addr ~bytes:16)
          | 1 ->
              ignore
                (Memsim.Hierarchy.prefetch h ~now:!now ~addr
                   ~bytes:(cfg.Memsim.Hierarchy.line_bytes * ((kind mod 2) + 1)))
          | _ -> ignore (Memsim.Hierarchy.write h ~now:!now ~addr ~bytes:8));
          now := !now + (kind * 3);
          let deadlines = Memsim.Hierarchy.mshr_deadlines h ~now:!now in
          List.length deadlines <= cfg.Memsim.Hierarchy.mshr_count
          && List.for_all (fun (_, ready_at) -> ready_at > !now) deadlines
          && List.length deadlines = Memsim.Hierarchy.mshr_pending_count h ~now:!now)
        ops)

let suite =
  [
    Alcotest.test_case "real observations clean" `Quick test_real_observations_clean;
    Alcotest.test_case "check_case clean" `Quick test_check_case_clean;
    Alcotest.test_case "conservation flags tampering" `Quick test_conservation_flags;
    Alcotest.test_case "flow order flags tampering" `Quick test_flow_order_flags;
    Alcotest.test_case "clock flags tampering" `Quick test_clock_flags;
    Alcotest.test_case "memstats flags tampering" `Quick test_memstats_flags;
    Helpers.qcheck qcheck_mshr_deadlines;
  ]
