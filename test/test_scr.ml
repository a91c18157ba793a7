(* State-Compute Replication: the GUPD1 update wire format and applier,
   packet spraying, the SCR engine against its single-core reference
   (via the Scrcheck oracle axis), the stream-accounting invariant's
   tamper resistance, the imbalance metric, and the UPF session-install
   atomicity the update-apply surface depends on. *)

open Gunfu
open Scaleout

let specs_dir = "../specs"

(* ----- GUPD1 wire format ----- *)

let sample_record =
  {
    Update_log.u_flow = 12345;
    u_seq = 42;
    u_payload = [ ("nat", "\x00\x01binary\xffblob"); ("nm", "") ];
    u_consec = 3;
    u_poisoned = true;
  }

let qcheck_record =
  let open QCheck.Gen in
  let blob = string_size ~gen:(char_range '\x00' '\xff') (int_bound 64) in
  let name = string_size ~gen:printable (int_range 1 12) in
  let record =
    map
      (fun (flow, seq, payload, consec, poisoned) ->
        { Update_log.u_flow = flow; u_seq = seq; u_payload = payload; u_consec = consec; u_poisoned = poisoned })
      (tup5 (int_bound 1_000_000) (int_range 1 1_000_000)
         (list_size (int_bound 4) (pair name blob))
         (int_bound 1000) bool)
  in
  QCheck.make ~print:(fun r -> Printf.sprintf "flow=%d seq=%d blobs=%d" r.Update_log.u_flow r.Update_log.u_seq (List.length r.Update_log.u_payload)) record

let qcheck_roundtrip =
  QCheck.Test.make ~name:"GUPD1 encode/decode round-trip" ~count:500 qcheck_record
    (fun r -> Update_log.decode (Update_log.encode r) = r)

let test_encode_rejects_bad_fields () =
  Alcotest.check_raises "negative flow" (Invalid_argument "Update_log.encode: negative flow")
    (fun () -> ignore (Update_log.encode { sample_record with Update_log.u_flow = -1 }));
  Alcotest.check_raises "zero seq" (Invalid_argument "Update_log.encode: sequence must be positive")
    (fun () -> ignore (Update_log.encode { sample_record with Update_log.u_seq = 0 }))

let test_truncation_rejected () =
  let frame = Update_log.encode sample_record in
  for len = 0 to String.length frame - 1 do
    match Update_log.decode (String.sub frame 0 len) with
    | _ -> Alcotest.failf "truncation to %d bytes accepted" len
    | exception Update_log.Bad_update _ -> ()
  done

let test_bit_flips_rejected () =
  let frame = Update_log.encode sample_record in
  for byte = 0 to String.length frame - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string frame in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      match Update_log.decode (Bytes.to_string b) with
      | _ -> Alcotest.failf "flip of byte %d bit %d accepted" byte bit
      | exception Update_log.Bad_update _ -> ()
    done
  done;
  (* Trailing garbage is also framing corruption. *)
  match Update_log.decode (frame ^ "\x00") with
  | _ -> Alcotest.fail "trailing byte accepted"
  | exception Update_log.Bad_update _ -> ()

(* ----- applier semantics ----- *)

let record ~flow ~seq = { sample_record with Update_log.u_flow = flow; u_seq = seq }

let test_applier_monotone () =
  let applied = ref [] in
  let ap = Update_log.applier ~apply:(fun r -> applied := (r.Update_log.u_flow, r.Update_log.u_seq) :: !applied) in
  Alcotest.(check bool) "fresh record applies" true (Update_log.offer ap (record ~flow:1 ~seq:2));
  Alcotest.(check bool) "older is stale" false (Update_log.offer ap (record ~flow:1 ~seq:1));
  Alcotest.(check bool) "equal is stale" false (Update_log.offer ap (record ~flow:1 ~seq:2));
  Update_log.advance ap ~flow:1 ~seq:5;
  Alcotest.(check bool) "advance suppresses seq <= resident" false
    (Update_log.offer ap (record ~flow:1 ~seq:5));
  Alcotest.(check bool) "newer than advanced applies" true
    (Update_log.offer ap (record ~flow:1 ~seq:9));
  Alcotest.(check int) "resident tracks the max" 9 (Update_log.resident ap 1);
  Alcotest.(check int) "other flows independent" 0 (Update_log.resident ap 2);
  Alcotest.(check int) "applied count" 2 (Update_log.applied ap);
  Alcotest.(check int) "stale count" 3 (Update_log.stale ap);
  Alcotest.(check int) "max lag = 9 - 5" 4 (Update_log.max_lag ap);
  Alcotest.(check (list (pair int int))) "apply saw exactly the applied records"
    [ (1, 2); (1, 9) ] (List.rev !applied)

(* Absolute records + monotone application = order insensitivity: any
   permutation of an update set leaves every flow at its highest-seq
   payload. *)
let qcheck_order_insensitive =
  let open QCheck in
  Test.make ~name:"applier is permutation-insensitive" ~count:200
    (pair
       (list_of_size (Gen.int_range 1 40)
          (pair (int_bound 5) (make ~print:string_of_int (Gen.int_range 1 20))))
       (list_of_size (Gen.int_range 0 64) small_nat))
    (fun (pairs, shuffle_keys) ->
      let records = List.map (fun (flow, seq) -> record ~flow ~seq) pairs in
      let final rs =
        let state = Hashtbl.create 8 in
        let ap = Update_log.applier ~apply:(fun r -> Hashtbl.replace state r.Update_log.u_flow r.Update_log.u_seq) in
        List.iter (fun r -> ignore (Update_log.offer ap r : bool)) rs;
        List.sort compare (Hashtbl.fold (fun f s acc -> (f, s) :: acc) state [])
      in
      (* A deterministic pseudo-shuffle keyed by the generated ints. *)
      let shuffled =
        List.mapi (fun i r -> (i, r)) records
        |> List.sort (fun (i, _) (j, _) ->
               let k n = match List.nth_opt shuffle_keys (n mod max 1 (List.length shuffle_keys)) with Some v -> v | None -> n in
               compare (k i, i) (k j, j))
        |> List.map snd
      in
      let expected =
        List.fold_left
          (fun acc (flow, seq) ->
            let prev = Option.value ~default:0 (List.assoc_opt flow acc) in
            (flow, max prev seq) :: List.remove_assoc flow acc)
          [] pairs
        |> List.sort compare
      in
      final records = expected && final shuffled = expected)

(* ----- spray ----- *)

let items_of_hints hints =
  List.map (fun h -> { Workload.packet = None; aux = 0; flow_hint = h }) hints

let test_spray_dense_sequences () =
  let hints = [ 3; 1; 3; -1; 1; 3; 0; -1; 0 ] in
  let check policy =
    let slots = Spray.assign policy ~cores:4 (items_of_hints hints) in
    Alcotest.(check int) "one slot per item" (List.length hints) (Array.length slots);
    let seqs = Hashtbl.create 8 in
    List.iteri
      (fun g h ->
        let s = slots.(g) in
        Alcotest.(check bool) "core in range" true (s.Spray.s_core >= 0 && s.Spray.s_core < 4);
        if h < 0 then Alcotest.(check int) "hintless items carry seq 0" 0 s.Spray.s_seq
        else begin
          let expected = 1 + Option.value ~default:0 (Hashtbl.find_opt seqs h) in
          Alcotest.(check int) (Printf.sprintf "dense 1-based seq for flow %d" h)
            expected s.Spray.s_seq;
          Hashtbl.replace seqs h expected
        end)
      hints
  in
  check Spray.Round_robin;
  check (Spray.Seeded 5);
  let rr = Spray.assign Spray.Round_robin ~cores:4 (items_of_hints hints) in
  Array.iteri
    (fun g s -> Alcotest.(check int) "round-robin core = g mod cores" (g mod 4) s.Spray.s_core)
    rr;
  let a = Spray.assign (Spray.Seeded 5) ~cores:4 (items_of_hints hints) in
  let b = Spray.assign (Spray.Seeded 5) ~cores:4 (items_of_hints hints) in
  Alcotest.(check bool) "seeded spray is deterministic" true (a = b)

(* ----- SCR engine vs single-core reference (oracle pins) ----- *)

let check_passes name (oc : Check.Scrcheck.outcome) =
  if not (Check.Scrcheck.passed oc) then
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" Check.Scrcheck.pp_outcome oc);
  Alcotest.(check bool) (name ^ ": replicas converged") true oc.Check.Scrcheck.so_converged

let test_generated_reference_equality () =
  let rc = Check.Recovery.gen_rcase ~seed:7 ~profile:"mix" ~packets:96 in
  check_passes "rtc cores=4" (Check.Scrcheck.check_rcase ~cores:4 rc);
  check_passes "seeded spray cores=3"
    (Check.Scrcheck.check_rcase ~spray:(Spray.Seeded 13) ~cores:3 rc);
  check_passes "batch8 cores=4"
    (Check.Scrcheck.check_rcase ~engine:(`Batch 8) ~cores:4 rc)

let test_generated_under_faults () =
  let rc = Check.Recovery.gen_rcase ~seed:11 ~profile:"zipf" ~packets:96 in
  let plan = Check.Faultgen.create ~rate_ppm:20_000 ~seed:11 () in
  check_passes "faulted rtc cores=4" (Check.Scrcheck.check_rcase ~plan ~cores:4 rc)

let test_spec_reference_equality () =
  let rc = Check.Recovery.spec_rcase ~specs_dir ~name:"nat" ~seed:3 ~packets:96 in
  check_passes "spec nat cores=4" (Check.Scrcheck.check_rcase ~cores:4 rc)

(* ----- update-stream accounting + tamper resistance ----- *)

let scr_result ~cores =
  let rc = Check.Recovery.gen_rcase ~seed:9 ~profile:"uniform" ~packets:64 in
  let items = rc.Check.Recovery.r_trace () in
  let pass, res = Check.Scrcheck.scr_pass ~items ~cores rc in
  let completions =
    List.fold_left
      (fun a (_, (o : Check.Oracle.observation)) ->
        a + List.length (List.filter (fun (e : Check.Oracle.emit) -> e.Check.Oracle.e_flow >= 0) o.Check.Oracle.o_emits))
      0 pass.Check.Recovery.p_obs
  in
  (completions, res)

let test_stream_accounting () =
  let cores = 4 in
  let completions, res = scr_result ~cores in
  let s = res.Scr.sr_stats in
  Alcotest.(check int) "one record per stateful completion" completions s.Scr.st_records;
  Alcotest.(check int) "records x (cores-1) fully accounted"
    (s.Scr.st_records * (cores - 1))
    (s.Scr.st_applied + s.Scr.st_coalesced + s.Scr.st_stale);
  Alcotest.(check bool) "barrier applies within applied" true
    (s.Scr.st_barrier_applied <= s.Scr.st_applied);
  Alcotest.(check bool) "converged" true res.Scr.sr_converged;
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun (v : Check.Invariants.violation) -> v.Check.Invariants.v_rule)
       (Check.Invariants.check_scr ~completions ~cores res))

let test_check_scr_catches_tampering () =
  let cores = 4 in
  let completions, res = scr_result ~cores in
  let rules doctored =
    List.map (fun (v : Check.Invariants.violation) -> v.Check.Invariants.v_rule)
      (Check.Invariants.check_scr ~completions ~cores doctored)
  in
  let with_stats st = { res with Scr.sr_stats = st } in
  Alcotest.(check bool) "missing record caught" true
    (List.mem "scr-emission"
       (rules (with_stats { res.Scr.sr_stats with Scr.st_records = res.Scr.sr_stats.Scr.st_records - 1 })));
  Alcotest.(check bool) "lost update caught" true
    (List.mem "scr-conservation"
       (rules (with_stats { res.Scr.sr_stats with Scr.st_applied = res.Scr.sr_stats.Scr.st_applied - 1 })));
  Alcotest.(check bool) "diverged replica caught" true
    (List.mem "scr-convergence"
       (rules
          {
            res with
            Scr.sr_converged = false;
            sr_replica_digests =
              (let d = Array.copy res.Scr.sr_replica_digests in
               d.(1) <- "doctored";
               d);
          }))

(* ----- imbalance metric ----- *)

let mk_run ~label ~packets ~drops =
  {
    Metrics.label;
    packets;
    drops;
    cycles = 1000;
    instrs = 800;
    wire_bytes = packets * 64;
    switches = 0;
    mem = Memsim.Memstats.zero;
    freq_ghz = 3.2;
    state_cycles = Array.make Exec_ctx.n_classes 0;
    latency = None;
    faulted = 0;
    faults = [];
    degraded = false;
    imbalance = None;
  }

let test_load_imbalance () =
  let runs = [ mk_run ~label:"a" ~packets:300 ~drops:100; mk_run ~label:"b" ~packets:100 ~drops:0 ] in
  let offered, served = Metrics.load_imbalance runs in
  Alcotest.(check (float 1e-9)) "offered max/mean" 1.5 offered;
  Alcotest.(check (float 1e-9)) "served max/mean" (200. /. 150.) served;
  let merged = Metrics.merge_parallel runs in
  (match merged.Metrics.imbalance with
  | Some (o, s) ->
      Alcotest.(check (float 1e-9)) "merged carries offered" 1.5 o;
      Alcotest.(check (float 1e-9)) "merged carries served" (200. /. 150.) s
  | None -> Alcotest.fail "merge_parallel dropped the imbalance ratios");
  (match (Metrics.merge_parallel [ mk_run ~label:"solo" ~packets:10 ~drops:0 ]).Metrics.imbalance with
  | None -> ()
  | Some _ -> Alcotest.fail "single-run merge must not fabricate imbalance");
  let balanced, _ = Metrics.load_imbalance [ mk_run ~label:"a" ~packets:5 ~drops:0; mk_run ~label:"b" ~packets:5 ~drops:0 ] in
  Alcotest.(check (float 1e-9)) "perfect balance is 1.0" 1.0 balanced

(* ----- UPF install_session atomicity (SCR apply depends on it) ----- *)

let test_install_session_atomic () =
  let worker = Worker.create ~id:0 () in
  let upf =
    Nfs.Upf.create_empty (Worker.layout worker) ~name:"upf" ~capacity:64 ~n_pdrs:4 ()
  in
  let up = Nfs.Classifier.table upf.Nfs.Upf.uplink_classifier in
  (* Saturate the uplink table with filler keys so its insert path fails. *)
  let filler = ref [] in
  (try
     for i = 0 to 10_000 do
       let key = Int64.of_int (0x10_000 + i) in
       if Structures.Cuckoo.insert up ~key ~value:0 then filler := key :: !filler
       else raise Exit
     done
   with Exit -> ());
  let ue_ip = Traffic.Mgw.ue_ip_of_index 7 in
  let teid = Traffic.Mgw.teid_of_index 7 in
  let down_key = Int64.logand (Int64.of_int32 ue_ip) 0xFFFFFFFFL in
  (match Nfs.Upf.install_session upf ~ue_ip ~teid with
  | Ok _ -> Alcotest.fail "install into a saturated uplink table succeeded"
  | Error cause -> Alcotest.(check int) "rejected as no-resources" Netcore.Pfcp.cause_no_resources cause);
  Alcotest.(check bool) "no downlink trace of the failed install" true
    (Structures.Cuckoo.lookup (Nfs.Classifier.table upf.Nfs.Upf.classifier) down_key = None);
  Alcotest.(check int) "n_active untouched" 0 upf.Nfs.Upf.n_active;
  (* Free space: the retry must succeed cleanly. *)
  List.iteri (fun i k -> if i < 32 then ignore (Structures.Cuckoo.delete up k : bool)) !filler;
  (match Nfs.Upf.install_session upf ~ue_ip ~teid with
  | Ok idx -> Alcotest.(check int) "retry lands in slot 0" 0 idx
  | Error c -> Alcotest.failf "retry rejected with cause %d" c);
  Alcotest.(check bool) "downlink route installed" true
    (Structures.Cuckoo.lookup (Nfs.Classifier.table upf.Nfs.Upf.classifier) down_key <> None)

let test_install_session_rejects_duplicate_teid () =
  let worker = Worker.create ~id:0 () in
  let upf =
    Nfs.Upf.create_empty (Worker.layout worker) ~name:"upf" ~capacity:64 ~n_pdrs:4 ()
  in
  let teid = Traffic.Mgw.teid_of_index 3 in
  (match Nfs.Upf.install_session upf ~ue_ip:(Traffic.Mgw.ue_ip_of_index 1) ~teid with
  | Ok _ -> ()
  | Error c -> Alcotest.failf "first install rejected with cause %d" c);
  (match Nfs.Upf.install_session upf ~ue_ip:(Traffic.Mgw.ue_ip_of_index 2) ~teid with
  | Ok _ -> Alcotest.fail "duplicate TEID accepted: uplink route silently stolen"
  | Error cause ->
      Alcotest.(check int) "rejected" Netcore.Pfcp.cause_request_rejected cause);
  Alcotest.(check int) "second session not installed" 1 upf.Nfs.Upf.n_active;
  let upkey = Int64.logand (Int64.of_int32 teid) 0xFFFFFFFFL in
  Alcotest.(check (option int)) "uplink route still owned by session 0" (Some 0)
    (Structures.Cuckoo.lookup (Nfs.Classifier.table upf.Nfs.Upf.uplink_classifier) upkey)

let suite =
  [
    Alcotest.test_case "GUPD1: encode rejects bad fields" `Quick test_encode_rejects_bad_fields;
    Alcotest.test_case "GUPD1: every truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "GUPD1: every single-bit flip rejected" `Quick test_bit_flips_rejected;
    Helpers.qcheck qcheck_roundtrip;
    Alcotest.test_case "applier: sequence-monotone application" `Quick test_applier_monotone;
    Helpers.qcheck qcheck_order_insensitive;
    Alcotest.test_case "spray: dense per-flow sequences" `Quick test_spray_dense_sequences;
    Alcotest.test_case "scr: generated programs match the reference" `Quick test_generated_reference_equality;
    Alcotest.test_case "scr: reference equality under faults" `Quick test_generated_under_faults;
    Alcotest.test_case "scr: spec composition matches the reference" `Quick test_spec_reference_equality;
    Alcotest.test_case "scr: update-stream accounting closes" `Quick test_stream_accounting;
    Alcotest.test_case "scr: invariant catches doctored results" `Quick test_check_scr_catches_tampering;
    Alcotest.test_case "metrics: load imbalance ratios" `Quick test_load_imbalance;
    Alcotest.test_case "upf: install_session is all-or-nothing" `Quick test_install_session_atomic;
    Alcotest.test_case "upf: duplicate TEID rejected" `Quick test_install_session_rejects_duplicate_teid;
  ]
