(* The executor descriptor: canonical labels round-trip through the
   parser, the documented short forms parse, malformed labels are errors,
   and Exec.run is exactly the engine it names. *)

open Gunfu

let parses_to name s (e : Exec.t) =
  match Exec.of_string s with
  | Ok got -> Alcotest.(check string) name (Exec.label e) (Exec.label got)
  | Error msg -> Alcotest.failf "%s: %S rejected: %s" name s msg

(* Every configuration the adaptive policy can reach under its default
   bounds: rtc, its batch width, and both policies over every task count
   and distance within the bounds. *)
let adaptive_reachable =
  let p = Adaptive.Policy.default_params in
  let ils =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun n_tasks ->
            List.init p.Adaptive.Policy.max_distance (fun d ->
                `Il { Exec.policy; n_tasks; distance = d + 1 }))
          (List.init
             (p.Adaptive.Policy.max_tasks - p.Adaptive.Policy.min_tasks + 1)
             (fun i -> p.Adaptive.Policy.min_tasks + i)))
      [ Scheduler.Round_robin; Scheduler.Ready_first ]
  in
  `Rtc :: `Batch p.Adaptive.Policy.batch :: ils

let test_round_trip () =
  List.iter
    (fun e ->
      match Exec.of_string (Exec.label e) with
      | Ok got when got = e -> ()
      | Ok got -> Alcotest.failf "%s parsed back as %s" (Exec.label e) (Exec.label got)
      | Error msg -> Alcotest.failf "%s rejected: %s" (Exec.label e) msg)
    ((Check.Oracle.reference :: Check.Oracle.executors) @ adaptive_reachable)

let test_short_forms () =
  parses_to "ilN is round-robin at distance 1" "il16" (Exec.il 16);
  parses_to "canonical il16" "il-rr-16-d1" (Exec.il 16);
  parses_to "bare batch is the default width" "batch" (`Batch Batch_rtc.default_batch);
  Alcotest.(check string) "batch default is 32" "batch-32"
    (Exec.label (`Batch Batch_rtc.default_batch));
  parses_to "distance 0 is legal" "il-rf-4-d0"
    (`Il { Exec.policy = Scheduler.Ready_first; n_tasks = 4; distance = 0 })

let test_malformed () =
  List.iter
    (fun s ->
      match Exec.of_string s with
      | Error _ -> ()
      | Ok e -> Alcotest.failf "%S accepted as %s" s (Exec.label e)
      | exception ex -> Alcotest.failf "%S raised %s" s (Printexc.to_string ex))
    [
      ""; "bogus"; "RTC"; "rtc-1"; "il"; "il0"; "il-4"; "il+4"; "il16x"; "il 16";
      "batch-0"; "batch-"; "batch--3"; "batch-x"; "batch-0x10"; "batch-+4";
      "batch-99999999999999999999999"; "il-rr-0-d1"; "il-xx-4-d1"; "il-rr-4-d";
      "il-rr-4-dx"; "il-rr-4-d-1"; "il-rr-4"; "il-rr-4-d1-"; "il-rr--4-d1";
    ]

(* Exec.run must hand its policy, distance and batch width to the engine
   unchanged: the same arguments through the engine directly give an
   identical run. *)
let test_run_is_the_engine () =
  let same name (e : Exec.t) direct =
    let fresh () =
      let s = Helpers.nat_setup ~n_flows:2048 () in
      (s, Helpers.nat_source s ~count:600)
    in
    let s, src = fresh () in
    let via = Exec.run e s.Helpers.worker s.Helpers.program src in
    let s, src = fresh () in
    let r = direct s.Helpers.worker s.Helpers.program src in
    Alcotest.(check string) (name ^ ": label") r.Metrics.label via.Metrics.label;
    Alcotest.(check bool) (name ^ ": identical run") true (r = via)
  in
  same "rtc" `Rtc (fun w p s -> Rtc.run w p s);
  same "batch-8" (`Batch 8) (fun w p s -> Batch_rtc.run ~batch:8 w p s);
  same "il-rf-4-d2"
    (`Il { Exec.policy = Scheduler.Ready_first; n_tasks = 4; distance = 2 })
    (fun w p s ->
      Scheduler.run ~policy:Scheduler.Ready_first ~prefetch_distance:2 w p ~n_tasks:4 s)

let suite =
  [
    Alcotest.test_case "labels round-trip" `Quick test_round_trip;
    Alcotest.test_case "short forms" `Quick test_short_forms;
    Alcotest.test_case "malformed labels are errors" `Quick test_malformed;
    Alcotest.test_case "run is the named engine" `Quick test_run_is_the_engine;
  ]
