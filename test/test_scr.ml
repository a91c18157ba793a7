(* State-Compute Replication: the GUPD1 update wire format, its in-place
   check and the applier, packet spraying, the SCR engine against its
   single-core reference (via the Scrcheck oracle axis), the delivery
   ring's slot reuse, the stream-accounting invariant's
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
    (fun () -> ignore (Update_log.encode { sample_record with Update_log.u_seq = 0 }));
  (* Fields the frame cannot hold must be refused, not truncated into
     another flow's or sequence's value. *)
  let u32 = 1 lsl 32 in
  let rejects name r =
    match Update_log.encode r with
    | _ -> Alcotest.failf "%s encoded" name
    | exception Invalid_argument _ -> ()
  in
  rejects "flow 2^32" { sample_record with Update_log.u_flow = u32 };
  rejects "seq 2^32+7" { sample_record with Update_log.u_seq = u32 + 7 };
  rejects "negative consec" { sample_record with Update_log.u_consec = -1 };
  rejects "consec 2^32" { sample_record with Update_log.u_consec = u32 };
  rejects "65536 blobs"
    { sample_record with Update_log.u_payload = List.init 0x10000 (fun _ -> ("n", "")) };
  rejects "NF name of 65536 bytes"
    { sample_record with Update_log.u_payload = [ (String.make 0x10000 'n', "") ] };
  (* The largest values the frame holds still round-trip. *)
  let widest =
    {
      sample_record with
      Update_log.u_flow = u32 - 1;
      u_seq = u32 - 1;
      u_consec = u32 - 1;
      u_payload = List.init 0xFFFF (fun i -> ((if i = 0 then String.make 0xFFFF 'n' else "n"), ""));
    }
  in
  Alcotest.(check bool) "widest fields round-trip" true
    (Update_log.decode (Update_log.encode widest) = widest)

(* The GUPD1 bytes of [sample_record], pinned: any change to the field
   order, widths, endianness or checksum shows here. Split as magic, flow,
   seq, consec, poisoned, blob count, then name length, name, blob length
   and blob per blob, then the checksum. *)
let test_golden_frame () =
  let hex s =
    String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  in
  Alcotest.(check string) "sample record frame"
    ("4755504431" ^ "39300000" ^ "2a000000" ^ "03000000" ^ "01" ^ "0200"
   ^ "0300" ^ "6e6174" ^ "0d000000" ^ "000162696e617279ff626c6f62"
   ^ "0200" ^ "6e6d" ^ "00000000" ^ "675a2df9")
    (hex (Update_log.encode sample_record))

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

(* The in-place check behind every shipped record: the frame must be
   exactly its record's, so a well-formed frame of a different record is
   refused like a corrupt one, field by field and blob by blob. *)
let test_verify_rejects_mismatch () =
  let frame = Update_log.encode sample_record in
  Update_log.verify frame sample_record;
  let refused name frame r =
    match Update_log.verify frame r with
    | () -> Alcotest.failf "%s accepted" name
    | exception Update_log.Bad_update _ -> ()
  in
  List.iter
    (fun (name, r) -> refused name frame r)
    [
      ("flow", { sample_record with Update_log.u_flow = 12346 });
      ("sequence", { sample_record with Update_log.u_seq = 41 });
      ("fault count", { sample_record with Update_log.u_consec = 0 });
      ("poisoned flag", { sample_record with Update_log.u_poisoned = false });
      ("NF name", { sample_record with Update_log.u_payload = [ ("nas", "\x00\x01binary\xffblob"); ("nm", "") ] });
      ("blob byte", { sample_record with Update_log.u_payload = [ ("nat", "\x00\x01binary\xffblob"); ("nm", "!") ] });
      ("blob order", { sample_record with Update_log.u_payload = [ ("nm", ""); ("nat", "\x00\x01binary\xffblob") ] });
      ("a blob fewer", { sample_record with Update_log.u_payload = [ ("nat", "\x00\x01binary\xffblob") ] });
      ("a blob more", { sample_record with Update_log.u_payload = sample_record.Update_log.u_payload @ [ ("nm", "") ] });
    ];
  refused "trailing byte" (frame ^ "\x00") sample_record;
  refused "truncated frame" (String.sub frame 0 (String.length frame - 1)) sample_record;
  let flipped = Bytes.of_string frame in
  Bytes.set flipped 30 (Char.chr (Char.code (Bytes.get flipped 30) lxor 1));
  refused "bit flip" (Bytes.to_string flipped) sample_record

(* One log's frame carries records of every size in turn: it grows to
   fit and every record still checks against its own frame; a frame is
   accepted for another record exactly when the two are equal. *)
let qcheck_ship =
  let log = Update_log.create () in
  QCheck.Test.make ~name:"GUPD1 frames check against their records" ~count:500
    (QCheck.pair qcheck_record qcheck_record)
    (fun (r, r') ->
      let before = Update_log.length log in
      Update_log.ship log r;
      Update_log.length log = before + 1
      &&
      match Update_log.verify (Update_log.encode r) r' with
      | () -> r = r'
      | exception Update_log.Bad_update _ -> r <> r')

(* ----- applier semantics ----- *)

let record ~flow ~seq = { sample_record with Update_log.u_flow = flow; u_seq = seq }

let test_applier_monotone () =
  let applied = ref [] in
  let ap = Update_log.applier ~slots:4 ~cores:1 ~apply:(fun _ r -> applied := (r.Update_log.u_flow, r.Update_log.u_seq) :: !applied) in
  let offer r = Update_log.offer ap ~core:0 ~slot:r.Update_log.u_flow r in
  Alcotest.(check bool) "fresh record applies" true (offer (record ~flow:1 ~seq:2));
  Alcotest.(check bool) "older is stale" false (offer (record ~flow:1 ~seq:1));
  Alcotest.(check bool) "equal is stale" false (offer (record ~flow:1 ~seq:2));
  Update_log.advance ap ~core:0 ~slot:1 ~seq:5;
  Alcotest.(check bool) "advance suppresses seq <= resident" false
    (offer (record ~flow:1 ~seq:5));
  Alcotest.(check bool) "newer than advanced applies" true
    (offer (record ~flow:1 ~seq:9));
  Alcotest.(check int) "resident tracks the max" 9 (Update_log.resident ap ~core:0 1);
  Alcotest.(check int) "other flows independent" 0 (Update_log.resident ap ~core:0 2);
  Alcotest.(check int) "applied count" 2 (Update_log.applied ap);
  Alcotest.(check int) "stale count" 3 (Update_log.stale ap);
  Alcotest.(check int) "max lag = 9 - 5" 4 (Update_log.max_lag ap);
  Alcotest.(check (list (pair int int))) "apply saw exactly the applied records"
    [ (1, 2); (1, 9) ] (List.rev !applied)

(* The u32 store refuses what it cannot hold, before applying anything,
   rather than wrapping it into another flow's or sequence's slot. *)
let test_applier_rejects_out_of_range () =
  let applied = ref 0 in
  let ap = Update_log.applier ~slots:4 ~cores:1 ~apply:(fun _ _ -> incr applied) in
  let offer r = Update_log.offer ap ~core:0 ~slot:r.Update_log.u_flow r in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "offer flow -1" (fun () -> offer (record ~flow:(-1) ~seq:1));
  rejects "offer flow = universe" (fun () -> offer (record ~flow:4 ~seq:1));
  rejects "offer seq 2^32" (fun () -> offer (record ~flow:1 ~seq:(1 lsl 32)));
  rejects "advance flow = universe" (fun () -> Update_log.advance ap ~core:0 ~slot:4 ~seq:1);
  rejects "advance seq 2^32" (fun () -> Update_log.advance ap ~core:0 ~slot:1 ~seq:(1 lsl 32));
  rejects "resident flow = universe" (fun () -> Update_log.resident ap ~core:0 4);
  Alcotest.(check int) "nothing applied" 0 !applied;
  Alcotest.(check int) "flow 1 untouched" 0 (Update_log.resident ap ~core:0 1);
  (* The widest values the store holds round-trip. *)
  Alcotest.(check bool) "seq 2^32-1 applies" true
    (offer (record ~flow:3 ~seq:((1 lsl 32) - 1)));
  Alcotest.(check int) "resident 2^32-1" ((1 lsl 32) - 1) (Update_log.resident ap ~core:0 3);
  Alcotest.(check int) "neighbour untouched" 0 (Update_log.resident ap ~core:0 2)

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
        let ap = Update_log.applier ~slots:6 ~cores:1 ~apply:(fun _ r -> Hashtbl.replace state r.Update_log.u_flow r.Update_log.u_seq) in
        List.iter (fun r -> ignore (Update_log.offer ap ~core:0 ~slot:r.Update_log.u_flow r : bool)) rs;
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

let check_passes name (oc : Check.Scrcheck.extra Check.Recovery.outcome) =
  if not (Check.Recovery.passed oc) then
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" Check.Recovery.pp_outcome oc);
  Alcotest.(check bool) (name ^ ": replicas converged") true
    oc.Check.Recovery.oc_extra.Check.Scrcheck.converged

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

(* ----- argument checks and universe invariance ----- *)

(* Fresh full-universe replicas of [rc] on [cores] cores: a run mutates
   its replicas, so every run gets its own. *)
let fresh_replicas (rc : Check.Recovery.rcase) ~cores =
  let full = Array.init rc.Check.Recovery.r_universe Fun.id in
  Array.map Check.Recovery.replica
    (Check.Recovery.instances rc ~cores ~owned:(fun _ -> full))

let test_run_rejects () =
  let rc = Check.Recovery.gen_rcase ~seed:9 ~profile:"uniform" ~packets:16 in
  let replicas = fresh_replicas rc ~cores:2 in
  let run ?(engine = `Rtc) ?(replicas = replicas) ~universe hints =
    let items = items_of_hints hints in
    let slots = Spray.assign Spray.Round_robin ~cores:2 items in
    ignore (Scr.run ~engine ~replicas ~slots ~universe items : Scr.result)
  in
  List.iter
    (fun (name, msg, f) -> Alcotest.check_raises name (Invalid_argument msg) f)
    [
      ("no replicas", "Scr.run: no replicas", fun () -> run ~replicas:[||] ~universe:4 [ 0 ]);
      ( "batch 0",
        "Scr.run: batch must be positive",
        fun () -> run ~engine:(`Batch 0) ~universe:4 [ 0 ] );
      ("flow = universe", "Scr.run: flow 4 outside [0, 4)", fun () -> run ~universe:4 [ 0; 4 ]);
      ("flow 0 of universe 0", "Scr.run: flow 0 outside [0, 0)", fun () -> run ~universe:0 [ -1; 0 ]);
    ]

(* Per-run tables are sized by the flows a run touches, so the universe
   bound changes nothing but the range check: the same items under the
   tightest universe and under 2^20 give the same stats and runs. *)
let test_universe_invariance () =
  let rc = Check.Recovery.gen_rcase ~seed:7 ~profile:"mix" ~packets:256 in
  let items = rc.Check.Recovery.r_trace () in
  let max_flow =
    List.fold_left (fun a (it : Workload.item) -> max a it.Workload.flow_hint) (-1) items
  in
  List.iter
    (fun engine ->
      let run universe =
        let cores = 4 in
        let slots = Spray.assign (Spray.Seeded 3) ~cores items in
        let res =
          Scr.run ~digest:false ~engine ~replicas:(fresh_replicas rc ~cores) ~slots ~universe
            items
        in
        (res.Scr.sr_stats, Marshal.to_string res.Scr.sr_runs [ Marshal.No_sharing ])
      in
      let tight_stats, tight_runs = run (max_flow + 1) in
      let wide_stats, wide_runs = run (1 lsl 20) in
      Alcotest.(check bool) "identical stats" true (tight_stats = wide_stats);
      Alcotest.(check bool) "identical runs" true (String.equal tight_runs wide_runs);
      Alcotest.(check bool) "records emitted" true (tight_stats.Scr.st_records > 0))
    [ `Rtc; `Batch 8 ]

(* ----- behaviour pin ----- *)

(* Every SCR observable over the shipped specs and two generated
   programs, on 2, 4 and 8 cores, under rtc and batch-8, with and without
   a 15,000 ppm fault plan: each pass's stats, every core's run, the
   replica digests and the state digest, folded into one MD5. The pinned
   value was captured before the update stream lost its hash tables; a
   change to scheduling, coalescing, apply order or charging shows here. *)
let scr_behaviour_digest () =
  let cases =
    List.map
      (fun name -> Check.Recovery.spec_rcase ~specs_dir ~name ~seed:5 ~packets:256)
      Check.Progen.spec_names
    @ [
        Check.Recovery.gen_rcase ~seed:7 ~profile:"mix" ~packets:256;
        Check.Recovery.gen_rcase ~seed:11 ~profile:"zipf" ~packets:256;
      ]
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun (rc : Check.Recovery.rcase) ->
      let items = rc.Check.Recovery.r_trace () in
      List.iter
        (fun cores ->
          List.iter
            (fun engine ->
              List.iter
                (fun plan ->
                  let _, res = Check.Scrcheck.scr_pass ?plan ~engine ~items ~cores rc in
                  let s = res.Scr.sr_stats in
                  List.iter
                    (fun v -> Buffer.add_string b (string_of_int v ^ " "))
                    [
                      s.Scr.st_records; s.Scr.st_applied; s.Scr.st_coalesced; s.Scr.st_stale;
                      s.Scr.st_max_lag; s.Scr.st_barrier_applied; s.Scr.st_windows;
                    ];
                  (* Runs are plain data: marshalling covers every field. *)
                  Array.iter
                    (fun (r : Metrics.run) ->
                      Buffer.add_string b (Marshal.to_string r [ Marshal.No_sharing ]))
                    res.Scr.sr_runs;
                  Array.iter (Buffer.add_string b) res.Scr.sr_replica_digests;
                  Buffer.add_string b res.Scr.sr_state_digest)
                [ None; Some (Check.Faultgen.create ~rate_ppm:15_000 ~seed:11 ()) ])
            [ `Rtc; `Batch 8 ])
        [ 2; 4; 8 ])
    cases;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_behaviour_pinned () =
  Alcotest.(check string) "scr behaviour digest" "c2d7b99724557706b94a5082cdaa0c0e"
    (scr_behaviour_digest ())

(* ----- the delivery ring ----- *)

(* Each replica copies its deliveries into a ring of [cap] packet records
   that every window reuses: 4 under batch-4. A UPF downlink delivery
   whose buffer encapsulation grew, or that a Corrupt_packet injection
   mangled, must leave nothing behind for the next delivery into its
   slot. The pristine buffers are cut to their headers, as a capture
   holds them, so encapsulation has to grow the copy. Every emitted
   packet's core, global index, buffer length and fingerprint are pinned
   as a digest captured while each delivery was a fresh clone, and the
   run must match the single-core reference, which still clones. *)
let test_ring_reuse () =
  let rc = Check.Recovery.spec_rcase ~specs_dir ~name:"upf_downlink" ~seed:5 ~packets:256 in
  let items = rc.Check.Recovery.r_trace () in
  List.iter
    (fun (it : Workload.item) ->
      Option.iter
        (fun (p : Netcore.Packet.t) ->
          p.Netcore.Packet.buf <- Bytes.sub p.Netcore.Packet.buf 0 p.Netcore.Packet.hdr_len)
        it.Workload.packet)
    items;
  let pristine = Array.of_list items in
  let cores = 3 and cap = 4 in
  let engine = `Batch cap in
  let plan = Check.Faultgen.create ~rate_ppm:100_000 ~seed:11 () in
  let corrupted = Hashtbl.create 16 in
  let arm ~plane ~g p =
    match Check.Faultgen.arm plan ~plane ~index:g p with
    | Some Fault.Corrupt_packet -> Hashtbl.replace corrupted g ()
    | Some _ | None -> ()
  in
  (* Completions arrive in delivery order, so a core's completion count
     is its ring position. *)
  let delivered = Array.make cores 0 in
  let grown = ref [] and mangled = ref [] in
  let b = Buffer.create 65536 in
  let on_complete ~core ~g ~seq:_ (task : Nftask.t) =
    let d = delivered.(core) in
    delivered.(core) <- d + 1;
    match (task.Nftask.packet, pristine.(g).Workload.packet) with
    | Some p, Some orig ->
        let len = Bytes.length p.Netcore.Packet.buf in
        if len > Bytes.length orig.Netcore.Packet.buf then grown := (core, d) :: !grown;
        if Hashtbl.mem corrupted g then mangled := (core, d) :: !mangled;
        Buffer.add_string b
          (Printf.sprintf "%d %d %d %s\n" core g len (Check.Oracle.packet_fingerprint p))
    | _ -> Alcotest.fail "a downlink item without a packet"
  in
  let slots = Spray.assign Spray.Round_robin ~cores items in
  let (_ : Scr.result) =
    Scr.run ~arm ~on_complete ~engine ~replicas:(fresh_replicas rc ~cores) ~slots
      ~universe:rc.Check.Recovery.r_universe items
  in
  let reused = List.exists (fun (c, d) -> d + cap < delivered.(c)) in
  Alcotest.(check bool) "a grown buffer's slot is reused" true (reused !grown);
  Alcotest.(check bool) "a mangled packet's slot is reused" true (reused !mangled);
  Alcotest.(check string) "emitted packets as clones emitted them" "bb81b220814fb39a4a9b47d967783048"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  check_passes "ring vs cloning reference"
    (Check.Scrcheck.check_rcase ~plan ~engine ~cores
       { rc with Check.Recovery.r_trace = (fun () -> items) })

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
    (List.map (fun (v : Check.Oracle.violation) -> v.Check.Oracle.v_rule)
       (Check.Invariants.check_scr ~completions ~cores res))

let test_check_scr_catches_tampering () =
  let cores = 4 in
  let completions, res = scr_result ~cores in
  let rules doctored =
    List.map (fun (v : Check.Oracle.violation) -> v.Check.Oracle.v_rule)
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
    Alcotest.test_case "GUPD1: golden frame" `Quick test_golden_frame;
    Alcotest.test_case "GUPD1: every truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "GUPD1: every single-bit flip rejected" `Quick test_bit_flips_rejected;
    Helpers.qcheck qcheck_roundtrip;
    Alcotest.test_case "GUPD1: a frame differing from its record is refused" `Quick
      test_verify_rejects_mismatch;
    Helpers.qcheck qcheck_ship;
    Alcotest.test_case "applier: sequence-monotone application" `Quick test_applier_monotone;
    Alcotest.test_case "applier: out-of-range flow or sequence rejected" `Quick test_applier_rejects_out_of_range;
    Helpers.qcheck qcheck_order_insensitive;
    Alcotest.test_case "spray: dense per-flow sequences" `Quick test_spray_dense_sequences;
    Alcotest.test_case "scr: generated programs match the reference" `Quick test_generated_reference_equality;
    Alcotest.test_case "scr: reference equality under faults" `Quick test_generated_under_faults;
    Alcotest.test_case "scr: spec composition matches the reference" `Quick test_spec_reference_equality;
    Alcotest.test_case "scr: run rejects bad arguments" `Quick test_run_rejects;
    Alcotest.test_case "scr: stats and runs independent of universe" `Quick test_universe_invariance;
    Alcotest.test_case "scr: behaviour digest pinned" `Quick test_behaviour_pinned;
    Alcotest.test_case "scr: ring slots reused after growth and corruption" `Quick test_ring_reuse;
    Alcotest.test_case "scr: update-stream accounting closes" `Quick test_stream_accounting;
    Alcotest.test_case "scr: invariant catches doctored results" `Quick test_check_scr_catches_tampering;
    Alcotest.test_case "metrics: load imbalance ratios" `Quick test_load_imbalance;
    Alcotest.test_case "upf: install_session is all-or-nothing" `Quick test_install_session_atomic;
    Alcotest.test_case "upf: duplicate TEID rejected" `Quick test_install_session_rejects_duplicate_teid;
  ]
