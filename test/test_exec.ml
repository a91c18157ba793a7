(* The executor descriptor: canonical labels round-trip through the
   parser, the documented short forms parse, malformed labels are errors,
   Exec.run is exactly the engine it names, and a session fed window by
   window is one Exec.run per window. Default labels and argument checks
   are pinned per executor. *)

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
   identical run. The batch-8 reference composes the engine session and
   the batch loop by hand. *)
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
  same "batch-8" (`Batch 8) (fun w p s ->
      let core = Engine.create ~name:"Batch_rtc" ~kind:"batch-rtc" w p in
      Batch_rtc.loop ~batch:8 core s;
      Engine.finish core);
  same "il-rf-4-d2"
    (`Il { Exec.policy = Scheduler.Ready_first; n_tasks = 4; distance = 2 })
    (fun w p s ->
      Scheduler.run ~policy:Scheduler.Ready_first ~prefetch_distance:2 w p ~n_tasks:4 s)

(* Each executor's default run label is "<program>/<kind>", for a run and
   for a session alike, and [~label] overrides it. *)
let test_default_labels () =
  let label_of ?label (e : Exec.t) =
    let s = Helpers.nat_setup ~n_flows:256 () in
    let source = Helpers.nat_source s ~count:8 in
    (Exec.run ?label e s.Helpers.worker s.Helpers.program source).Metrics.label
  in
  List.iter
    (fun (e, want) ->
      Alcotest.(check string) (Exec.label e ^ ": default") want (label_of e);
      Alcotest.(check string) (Exec.label e ^ ": override") "mine" (label_of ~label:"mine" e))
    [ (`Rtc, "nat/rtc"); (`Batch 8, "nat/batch-rtc"); (Exec.il 4, "nat/interleaved-4") ];
  let s = Helpers.nat_setup ~n_flows:256 () in
  let session = Exec.session (`Batch 8) s.Helpers.worker s.Helpers.program in
  Exec.feed session (Helpers.nat_source s ~count:8);
  Alcotest.(check string) "session: default" "nat/batch-rtc" (Exec.close session).Metrics.label

(* A non-positive batch width or task count and a negative prefetch
   distance are rejected before the source is pulled once. *)
let test_rejects_before_pulling () =
  let s = Helpers.nat_setup ~n_flows:256 () in
  let pulled = ref 0 in
  let source = Helpers.nat_source s ~count:8 in
  let counted () =
    incr pulled;
    source ()
  in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ ->
        Alcotest.(check int) (name ^ ": nothing pulled") 0 !pulled
  in
  let run e () = Exec.run e s.Helpers.worker s.Helpers.program counted in
  let il n_tasks distance = `Il { Exec.policy = Scheduler.Round_robin; n_tasks; distance } in
  rejects "run batch-0" (run (`Batch 0));
  rejects "session batch-0" (fun () ->
      Exec.session (`Batch 0) s.Helpers.worker s.Helpers.program);
  rejects "run il, 0 tasks" (run (il 0 1));
  rejects "run il, distance -1" (run (il 4 (-1)))

(* One session fed a stream in windows must behave exactly like one
   Exec.run per window on an identical worker with the same fault plane:
   the same completions in the same order, the same totals and the same
   memory-hierarchy traffic. Window sizes go past the batch width so a
   feed also spans several batches. *)
let test_session_is_runs () =
  let packets = 600 and max_window = 20 in
  let sizes =
    let rng = Random.State.make [| 14 |] in
    let rec go left acc =
      if left = 0 then List.rev acc
      else
        let k = min left (1 + Random.State.int rng max_window) in
        go (left - k) (k :: acc)
    in
    go packets []
  in
  (* A fresh NAT worker and program, its whole stream instrumented by one
     fault plan (armed at global pull indices), cut into [sizes]. *)
  let setup () =
    let s = Helpers.nat_setup ~n_flows:2048 () in
    let plane = Fault.create () in
    let plan = Check.Faultgen.create ~rate_ppm:50_000 ~seed:11 () in
    let stream = Check.Faultgen.instrument plan ~plane (Helpers.nat_source s ~count:packets) in
    let window k =
      let left = ref k in
      fun () ->
        if !left = 0 then None
        else begin
          decr left;
          stream ()
        end
    in
    let seen = ref [] in
    let tap (t : Nftask.t) = seen := (t.Nftask.flow_hint, Event.to_key t.Nftask.event) :: !seen in
    (s, plane, window, seen, tap)
  in
  let totals (r : Metrics.run) =
    [ r.Metrics.packets; r.Metrics.drops; r.Metrics.wire_bytes; r.Metrics.faulted; r.Metrics.cycles ]
  in
  let check name (e : Exec.flow_free) =
    let s, plane, window, seen, tap = setup () in
    let session = Exec.session ~fault:plane ~on_complete:tap e s.Helpers.worker s.Helpers.program in
    List.iter (fun k -> Exec.feed session (window k)) sizes;
    let fed = Exec.close session in
    let fed_seen = List.rev !seen in
    let fed_mem = Exec_ctx.counters (Worker.ctx s.Helpers.worker) in
    let s, plane, window, seen, tap = setup () in
    let runs =
      List.map
        (fun k -> Exec.run ~fault:plane ~on_complete:tap e s.Helpers.worker s.Helpers.program (window k))
        sizes
    in
    let summed =
      List.fold_left (List.map2 ( + )) [ 0; 0; 0; 0; 0 ] (List.map totals runs)
    in
    Alcotest.(check int) (name ^ ": every packet completed") packets fed.Metrics.packets;
    Alcotest.(check bool) (name ^ ": the plan injected faults") true (fed.Metrics.faulted > 0);
    Alcotest.(check (list (pair int string))) (name ^ ": completion stream") (List.rev !seen) fed_seen;
    Alcotest.(check (list int)) (name ^ ": packets, drops, wire bytes, faulted, cycles")
      summed (totals fed);
    Alcotest.(check bool) (name ^ ": memory-hierarchy counters") true
      (fed_mem = Exec_ctx.counters (Worker.ctx s.Helpers.worker))
  in
  check "rtc" `Rtc;
  check "batch-8" (`Batch 8)

let suite =
  [
    Alcotest.test_case "labels round-trip" `Quick test_round_trip;
    Alcotest.test_case "short forms" `Quick test_short_forms;
    Alcotest.test_case "malformed labels are errors" `Quick test_malformed;
    Alcotest.test_case "run is the named engine" `Quick test_run_is_the_engine;
    Alcotest.test_case "a session is one run per window" `Quick test_session_is_runs;
    Alcotest.test_case "default labels" `Quick test_default_labels;
    Alcotest.test_case "bad arguments are rejected before pulling" `Quick
      test_rejects_before_pulling;
  ]
