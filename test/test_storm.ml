(* Churn-storm plane: the Mgw session-churn source and the Check.Storm
   chaos scenarios (PFCP storm, NAT rebalance churn). *)

open Traffic

let event_tag = function
  | Mgw.Churn_teardown i -> Printf.sprintf "down:%d" i
  | Mgw.Churn_setup i -> Printf.sprintf "up:%d" i
  | Mgw.Churn_data (si, p) ->
      Printf.sprintf "data:%d.%d" si p.Netcore.Packet.flow.Netcore.Flow.src_port

let trace_churn ~seed ~rate_ppm ~steps =
  let mgw = Mgw.create ~seed:7 ~n_sessions:24 ~n_pdrs:4 () in
  let c = Mgw.churn ~seed ~rate_ppm mgw in
  let tags = List.init steps (fun _ -> event_tag (Mgw.churn_next c)) in
  (c, tags)

let test_churn_deterministic () =
  let _, a = trace_churn ~seed:3 ~rate_ppm:200_000 ~steps:256 in
  let _, b = trace_churn ~seed:3 ~rate_ppm:200_000 ~steps:256 in
  Alcotest.(check (list string)) "same seed, same event stream" a b;
  let _, d = trace_churn ~seed:4 ~rate_ppm:200_000 ~steps:256 in
  Alcotest.(check bool) "different seed diverges" false (a = d)

let test_churn_rate_zero () =
  let c, tags = trace_churn ~seed:5 ~rate_ppm:0 ~steps:128 in
  List.iter
    (fun tag ->
      if not (String.length tag > 5 && String.sub tag 0 5 = "data:") then
        Alcotest.failf "rate 0 produced a churn event: %s" tag)
    tags;
  Alcotest.(check int) "no churn events" 0 (Mgw.churn_events c);
  Alcotest.(check int) "nothing down" 0 (Mgw.churn_down_count c)

let test_churn_rate_full () =
  (* rate 1e6: every step flips a session, none emits data *)
  let c, tags = trace_churn ~seed:6 ~rate_ppm:1_000_000 ~steps:128 in
  List.iter
    (fun tag ->
      if String.length tag > 5 && String.sub tag 0 5 = "data:" then
        Alcotest.fail "rate 1e6 emitted a data packet")
    tags;
  Alcotest.(check int) "every step churned" 128 (Mgw.churn_events c)

let test_churn_bookkeeping () =
  (* replay the event stream against an independent down-set model *)
  let mgw = Mgw.create ~seed:7 ~n_sessions:16 ~n_pdrs:4 () in
  let c = Mgw.churn ~seed:9 ~rate_ppm:400_000 mgw in
  let down = Hashtbl.create 16 in
  for step = 1 to 512 do
    (match Mgw.churn_next c with
    | Mgw.Churn_teardown i ->
        if Hashtbl.mem down i then
          Alcotest.failf "step %d: teardown of already-down session %d" step i;
        Hashtbl.replace down i ()
    | Mgw.Churn_setup i ->
        if not (Hashtbl.mem down i) then
          Alcotest.failf "step %d: setup of live session %d" step i;
        Hashtbl.remove down i
    | Mgw.Churn_data _ -> ());
    if Mgw.churn_down_count c <> Hashtbl.length down then
      Alcotest.failf "step %d: down_count %d, model says %d" step
        (Mgw.churn_down_count c) (Hashtbl.length down)
  done;
  for i = 0 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "churn_live %d agrees" i)
      (not (Hashtbl.mem down i))
      (Mgw.churn_live c i)
  done;
  Alcotest.(check bool) "storm actually churned" true (Mgw.churn_events c > 0)

let check_report r =
  if not (Check.Storm.passed r) then
    Alcotest.failf "%s failed:@.%a" r.Check.Storm.st_name Check.Storm.pp_report r

let test_pfcp_storm () = check_report (Check.Storm.pfcp_storm ~seed:11 ())
let test_nat_storm () = check_report (Check.Storm.nat_rebalance_storm ~seed:11 ())

let test_storm_all () =
  let reports = Check.Storm.all ~seed:3 () in
  Alcotest.(check int) "two scenarios" 2 (List.length reports);
  List.iter check_report reports

let test_storm_deterministic () =
  (* metrics are a pure function of the seed *)
  let m r = r.Check.Storm.st_metrics in
  let a = Check.Storm.pfcp_storm ~seed:5 () and b = Check.Storm.pfcp_storm ~seed:5 () in
  Alcotest.(check (list (pair string int))) "pfcp metrics reproducible" (m a) (m b);
  let a = Check.Storm.nat_rebalance_storm ~seed:5 ()
  and b = Check.Storm.nat_rebalance_storm ~seed:5 () in
  Alcotest.(check (list (pair string int))) "nat metrics reproducible" (m a) (m b)

let suite =
  [
    Alcotest.test_case "churn: deterministic under seed" `Quick test_churn_deterministic;
    Alcotest.test_case "churn: rate 0 is pure data" `Quick test_churn_rate_zero;
    Alcotest.test_case "churn: rate 1e6 is pure control" `Quick test_churn_rate_full;
    Alcotest.test_case "churn: bookkeeping matches replay" `Quick test_churn_bookkeeping;
    Alcotest.test_case "pfcp session storm contained" `Quick test_pfcp_storm;
    Alcotest.test_case "nat rebalance storm contained" `Quick test_nat_storm;
    Alcotest.test_case "all scenarios pass" `Quick test_storm_all;
    Alcotest.test_case "storm metrics deterministic" `Quick test_storm_deterministic;
  ]
