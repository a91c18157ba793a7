(* The compile-and-specialize tier: the fused hot path (dense FSM dispatch,
   fused action closures, zero-alloc packet arena) must be observationally
   byte-identical to the interpreter.

   Three layers of lockdown:
   - differential: every shipped composition and a 50+ generated-program
     sweep run 15-way (interpreted RTC reference vs all 14 executors
     specialized) through the oracle's full diff — inputs, counters,
     per-flow output streams, fault taxonomy, final state digests;
   - structural: the dense jump table agrees with [Program.step] on every
     (state, event) pair, including undefined transitions and their exact
     error text (QCheck over random programs, exhaustive over specs);
   - arena: recycling is physically in-place (the ring never grows) and
     resets to the exact state a fresh construction would produce, so
     arena-fed runs equal fresh-allocation runs field for field. *)

open Gunfu
open Check

let specs_dir = "../specs"

(* 13 seeds x 4 profiles = 52 generated programs. *)
let sweep_seeds = 13
let sweep_packets = 64

(* Interpreted reference vs every executor (reference included) under the
   specialized hot path. *)
let exercise (case : Oracle.case) =
  let fresh () = case.Oracle.c_build ~packets:case.Oracle.c_packets in
  let ref_obs = Oracle.observe Oracle.reference (fresh ()) in
  List.iter
    (fun exec ->
      let obs = Oracle.observe ~specialize:true exec (fresh ()) in
      match Oracle.diff_observations ~reference:ref_obs obs with
      | None -> ()
      | Some detail ->
          Alcotest.failf "%s: %s diverges from interpreted rtc: %s (replay: %s)"
            case.Oracle.c_name obs.Oracle.o_label detail
            (Oracle.repro ~command:"check" ~selector:case.Oracle.c_selector
               ~seed:case.Oracle.c_seed ~packets:case.Oracle.c_packets [ "--specialize" ]))
    (Oracle.reference :: Oracle.executors)

let test_sweep profile () =
  for i = 0 to sweep_seeds - 1 do
    exercise (Progen.case ~seed:(100 + i) ~profile ~packets:sweep_packets)
  done

let test_spec_compositions () =
  let cases = Progen.spec_cases ~specs_dir ~seed:5 ~packets:96 () in
  Alcotest.(check int) "all shipped compositions covered"
    (List.length Progen.spec_names) (List.length cases);
  List.iter exercise cases

(* The observe axis itself: +spec labelling, payload installation, and —
   crucially — payload stripping, so a shared program instance cannot leak
   the specialized path into an interpreted baseline. *)
let test_observe_axis () =
  let case = Progen.case ~seed:9 ~profile:"uniform" ~packets:32 in
  let inst = case.Oracle.c_build ~packets:32 in
  let obs = Oracle.observe ~specialize:true Oracle.reference inst in
  Alcotest.(check string) "specialized label" "rtc+spec" obs.Oracle.o_label;
  Alcotest.(check bool) "payload installed" true
    (Specialize.installed inst.Oracle.program);
  let inst2 = case.Oracle.c_build ~packets:32 in
  Specialize.install inst2.Oracle.program;
  let obs2 = Oracle.observe Oracle.reference inst2 in
  Alcotest.(check string) "interpreted label" "rtc" obs2.Oracle.o_label;
  Alcotest.(check bool) "payload stripped for the interpreted run" false
    (Specialize.installed inst2.Oracle.program);
  Alcotest.(check (option string)) "specialized ≡ interpreted" None
    (Oracle.diff_observations ~reference:obs2 obs)

(* ----- dense dispatch vs the interpreter ----- *)

let program_of_case (case : Oracle.case) =
  (case.Oracle.c_build ~packets:4).Oracle.program

(* Builtins, every user key on an FSM edge (both the interned string and a
   physically distinct copy, to hit the memo and the hashtable paths), a
   key no edge mentions, and a quarantine marker. *)
let event_universe (p : Program.t) =
  let copy s = String.sub (s ^ "!") 0 (String.length s) in
  let user_keys =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, key, _) ->
           match Event.of_key key with Event.User s -> Some s | _ -> None)
         (Fsm.edges p.Program.fsm))
  in
  [
    Event.Packet_arrival; Event.Match_success; Event.Match_fail; Event.Emit_packet;
    Event.Drop_packet; Event.User "spec-test-no-such-event";
    Event.Faulted "pkt_corrupt";
  ]
  @ List.concat_map (fun s -> [ Event.User s; Event.User (copy s) ]) user_keys

let outcome f = match f () with n -> Ok n | exception Invalid_argument m -> Error m

let check_total (label : string) (p : Program.t) =
  Specialize.install p;
  let t = Option.get (Specialize.get p) in
  let events = event_universe p in
  for cs = 0 to Program.n_states p - 1 do
    List.iter
      (fun ev ->
        let spec = outcome (fun () -> Specialize.step t cs ev) in
        let interp = outcome (fun () -> Program.step p cs ev) in
        if spec <> interp then
          Alcotest.failf "%s: state %d event %s: specialized %s, interpreted %s" label
            cs (Event.to_key ev)
            (match spec with Ok n -> string_of_int n | Error m -> "raises " ^ m)
            (match interp with Ok n -> string_of_int n | Error m -> "raises " ^ m))
      events
  done

let test_jump_table_totality_specs () =
  List.iter
    (fun name ->
      let case = Progen.spec_case ~specs_dir ~name ~seed:1 ~packets:4 () in
      check_total name (program_of_case case))
    Progen.spec_names

let qcheck_jump_table_totality =
  QCheck.Test.make ~name:"dense dispatch ≡ interpreter on random programs" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let case = Progen.case ~seed ~profile:"uniform" ~packets:4 in
      check_total (Printf.sprintf "gen seed %d" seed) (program_of_case case);
      true)

let test_table_shape () =
  let case = Progen.spec_case ~specs_dir ~name:"sfc4" ~seed:1 ~packets:4 () in
  let p = program_of_case case in
  Specialize.install p;
  (* install is idempotent: a second call must not rebuild. *)
  let t = Option.get (Specialize.get p) in
  Specialize.install p;
  Alcotest.(check bool) "idempotent install" true
    (Option.get (Specialize.get p) == t);
  Alcotest.(check bool) "5 builtin classes at minimum" true
    (Specialize.n_classes t >= 5);
  let users = Specialize.user_classes t in
  Alcotest.(check int) "table width = builtins + user keys" (5 + List.length users)
    (Specialize.n_classes t);
  List.iteri
    (fun i (key, cls) ->
      Alcotest.(check int) (key ^ " interned densely after the builtins") (5 + i) cls)
    users;
  Specialize.remove p;
  Alcotest.(check bool) "remove detaches" false (Specialize.installed p)

(* Fused runners on action-less pseudo states must preserve the executor's
   own error text. *)
let test_runner_pseudo_state_error () =
  let case = Progen.spec_case ~specs_dir ~name:"nat" ~seed:1 ~packets:4 () in
  let p = program_of_case case in
  Specialize.install p;
  let t = Option.get (Specialize.get p) in
  let r =
    Specialize.runners t (Fault.create ())
      ~err:(Printf.sprintf "Test: control state %s has no action")
  in
  let pseudo = ref (-1) in
  Array.iteri
    (fun i (ci : Program.cs_info) ->
      if ci.Program.action = None && !pseudo < 0 then pseudo := i)
    p.Program.info;
  if !pseudo < 0 then Alcotest.fail "no pseudo state in the nat composition";
  let qname = (Program.info p !pseudo).Program.qname in
  let ctx = Worker.ctx (Worker.create ~id:0 ()) in
  Alcotest.check_raises "executor-supplied message preserved"
    (Invalid_argument ("Test: control state " ^ qname ^ " has no action"))
    (fun () -> ignore (r.(!pseudo) ctx (Nftask.create 0)))

(* ----- packet arena ----- *)

let mk_flow () =
  let gen =
    Traffic.Flowgen.create ~seed:3 ~n_flows:64
      ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  (Traffic.Flowgen.flows gen).(0)

let test_arena_create () =
  Alcotest.(check int) "default size" Netcore.Packet.Arena.default_size
    (Netcore.Packet.Arena.size (Netcore.Packet.Arena.create ()));
  Alcotest.(check int) "explicit size" 8
    (Netcore.Packet.Arena.size (Netcore.Packet.Arena.create ~size:8 ()));
  List.iter
    (fun size ->
      match Netcore.Packet.Arena.create ~size () with
      | _ -> Alcotest.failf "size %d accepted" size
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

let test_arena_recycles_in_place () =
  let arena = Netcore.Packet.Arena.create ~size:2 () in
  let flow = mk_flow () in
  let mk () = Netcore.Packet.make ~arena ~flow ~wire_len:128 () in
  let p1 = mk () in
  let p2 = mk () in
  let id1 = p1.Netcore.Packet.id and id2 = p2.Netcore.Packet.id in
  p1.Netcore.Packet.sim_addr <- 4096;
  Bytes.fill p1.Netcore.Packet.buf 0 (Bytes.length p1.Netcore.Packet.buf) 'x';
  let p3 = mk () in
  let p4 = mk () in
  Alcotest.(check bool) "slot 0 recycled physically" true (p3 == p1);
  Alcotest.(check bool) "slot 1 recycled physically" true (p4 == p2);
  Alcotest.(check bool) "recycled ids keep the global sequence" true
    (p3.Netcore.Packet.id > id2 && p4.Netcore.Packet.id > p3.Netcore.Packet.id);
  Alcotest.(check bool) "ids re-stamped" true (p3.Netcore.Packet.id <> id1);
  (* A recycled record must equal a fresh construction field for field
     (modulo the global id sequence). *)
  let fresh = Netcore.Packet.make ~flow ~wire_len:128 () in
  Alcotest.(check bool) "buffer bytes reset" true
    (Bytes.equal p3.Netcore.Packet.buf fresh.Netcore.Packet.buf);
  Alcotest.(check int) "hdr_len" fresh.Netcore.Packet.hdr_len p3.Netcore.Packet.hdr_len;
  Alcotest.(check int) "l3_off" fresh.Netcore.Packet.l3_off p3.Netcore.Packet.l3_off;
  Alcotest.(check int) "l4_off" fresh.Netcore.Packet.l4_off p3.Netcore.Packet.l4_off;
  Alcotest.(check int) "wire_len" fresh.Netcore.Packet.wire_len
    p3.Netcore.Packet.wire_len;
  Alcotest.(check int) "sim_addr unassigned" (-1) p3.Netcore.Packet.sim_addr

let qcheck_arena_no_leak =
  QCheck.Test.make ~name:"arena never allocates beyond its ring" ~count:30
    QCheck.(pair (int_range 1 32) (int_range 1 200))
    (fun (size, count) ->
      let arena = Netcore.Packet.Arena.create ~size () in
      let flow = mk_flow () in
      let distinct = ref [] in
      for _ = 1 to count do
        let p = Netcore.Packet.make ~arena ~flow ~wire_len:96 () in
        if not (List.memq p !distinct) then distinct := p :: !distinct
      done;
      List.length !distinct = min size count)

(* Arena-fed runs equal fresh-allocation runs on every simulated metric —
   under RTC (one packet in flight, tiny ring) and under the interleaved
   scheduler (16 tasks + stash in flight, default ring). *)
let arena_nat_run ~use_arena ~scheduler =
  let s = Helpers.nat_setup ~seed:7 () in
  let arena =
    if not use_arena then None
    else if scheduler then Some (Netcore.Packet.Arena.create ())
    else Some (Netcore.Packet.Arena.create ~size:8 ())
  in
  let source =
    Workload.of_flowgen ?arena s.Helpers.gen ~pool:s.Helpers.pool ~count:2000
  in
  if scheduler then Scheduler.run s.Helpers.worker s.Helpers.program ~n_tasks:16 source
  else Rtc.run s.Helpers.worker s.Helpers.program source

let test_arena_run_identity () =
  List.iter
    (fun scheduler ->
      let fresh = arena_nat_run ~use_arena:false ~scheduler in
      let recycled = arena_nat_run ~use_arena:true ~scheduler in
      Alcotest.(check bool)
        (if scheduler then "scheduler run byte-identical" else "rtc run byte-identical")
        true
        (fresh = recycled))
    [ false; true ]

let suite =
  [
    Alcotest.test_case "observe specialize axis" `Quick test_observe_axis;
    Alcotest.test_case "spec compositions: specialized ≡ interpreted" `Quick
      test_spec_compositions;
    Alcotest.test_case "sweep: uniform" `Quick (test_sweep "uniform");
    Alcotest.test_case "sweep: zipf" `Quick (test_sweep "zipf");
    Alcotest.test_case "sweep: burst" `Quick (test_sweep "burst");
    Alcotest.test_case "sweep: mix" `Quick (test_sweep "mix");
    Alcotest.test_case "jump table totality: specs" `Quick
      test_jump_table_totality_specs;
    Helpers.qcheck qcheck_jump_table_totality;
    Alcotest.test_case "table shape + install/remove" `Quick test_table_shape;
    Alcotest.test_case "runner pseudo-state error" `Quick
      test_runner_pseudo_state_error;
    Alcotest.test_case "arena create" `Quick test_arena_create;
    Alcotest.test_case "arena recycles in place" `Quick test_arena_recycles_in_place;
    Helpers.qcheck qcheck_arena_no_leak;
    Alcotest.test_case "arena run identity" `Quick test_arena_run_identity;
  ]
