(* Cuckoo hash, MDI tree, state arenas, data packing. *)

open Structures

let layout () = Memsim.Layout.create ()

(* A key as the Cuckoo probes read it: 8 little-endian bytes. *)
let kb key =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 key;
  b

(* ----- cuckoo ----- *)

let test_cuckoo_insert_lookup () =
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:100 () in
  for i = 0 to 99 do
    Alcotest.(check bool) "insert ok" true (Cuckoo.insert t ~key:(Int64.of_int (i * 7)) ~value:i)
  done;
  for i = 0 to 99 do
    Alcotest.(check (option int)) "lookup" (Some i) (Cuckoo.lookup t (Int64.of_int (i * 7)))
  done;
  Alcotest.(check (option int)) "absent key" None (Cuckoo.lookup t 999999L)

let test_cuckoo_update () =
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:10 () in
  ignore (Cuckoo.insert t ~key:5L ~value:1);
  ignore (Cuckoo.insert t ~key:5L ~value:2);
  Alcotest.(check (option int)) "updated in place" (Some 2) (Cuckoo.lookup t 5L);
  Alcotest.(check int) "population unchanged" 1 (Cuckoo.population t)

let test_cuckoo_delete () =
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:10 () in
  ignore (Cuckoo.insert t ~key:5L ~value:1);
  Alcotest.(check bool) "delete present" true (Cuckoo.delete t 5L);
  Alcotest.(check (option int)) "gone" None (Cuckoo.lookup t 5L);
  Alcotest.(check bool) "delete absent" false (Cuckoo.delete t 5L);
  Alcotest.(check int) "population zero" 0 (Cuckoo.population t)

let test_cuckoo_displacement () =
  (* Fill to ~high load: displacement (kick) paths must engage and all
     entries remain findable. *)
  let n = 10_000 in
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:n () in
  for i = 0 to n - 1 do
    let ok = Cuckoo.insert t ~key:(Int64.of_int (0x9E3779B9 * (i + 1))) ~value:i in
    Alcotest.(check bool) "insert under load" true ok
  done;
  Alcotest.(check bool) "load factor reasonable" true (Cuckoo.load_factor t > 0.5);
  for i = 0 to n - 1 do
    Alcotest.(check (option int)) "find after kicks" (Some i)
      (Cuckoo.lookup t (Int64.of_int (0x9E3779B9 * (i + 1))))
  done

let test_cuckoo_addrs_distinct_regions () =
  let l = layout () in
  let t = Cuckoo.create l ~label:"c" ~capacity:100 () in
  let b0 = Cuckoo.bucket_addr t 0 in
  let k0 = Cuckoo.key_addr t 0 in
  Alcotest.(check bool) "bucket and key lines differ" true (b0 / 64 <> k0 / 64);
  Alcotest.(check (option string)) "bucket region" (Some "c") (Memsim.Layout.region_of l b0);
  Alcotest.(check (option string)) "key region" (Some "c.keys") (Memsim.Layout.region_of l k0)

let test_cuckoo_candidates_superset () =
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:1000 () in
  for i = 0 to 999 do
    ignore (Cuckoo.insert t ~key:(Int64.of_int (i + 1)) ~value:i)
  done;
  for i = 0 to 999 do
    let key = Int64.of_int (i + 1) in
    let b1 = Cuckoo.hash1 t (kb key) 0 and b2 = Cuckoo.hash2 t (kb key) 0 in
    let in_b1 = Cuckoo.find_in_bucket t ~bucket:b1 (kb key) 0 in
    let in_b2 = Cuckoo.find_in_bucket t ~bucket:b2 (kb key) 0 in
    let bucket = if in_b1 >= 0 then b1 else b2 in
    Alcotest.(check bool) "stored in one of its two buckets" true
      (in_b1 >= 0 || in_b2 >= 0);
    (* The fingerprint scan must flag the bucket holding the key. *)
    Alcotest.(check bool) "candidates include the match" true
      (Cuckoo.candidates t ~bucket (kb key) 0 <> []);
    Alcotest.(check int) "find over a frame" i
      (Cuckoo.find_string t (Bytes.to_string (kb key)) 0)
  done

(* A slot word packs [value lsl 16 lor fingerprint], so a value must lie
   in [0, 2^46). One outside used to be accepted: [insert ~value:(-1)]
   returned true and counted the key, which then read as absent, and a
   second insert counted it again. Now both insert paths refuse it and
   leave the table as it was. *)
let test_cuckoo_value_range () =
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:16 () in
  let refused = Invalid_argument "Cuckoo.insert: value must be in [0, 2^46)" in
  List.iter
    (fun value ->
      Alcotest.check_raises (Printf.sprintf "insert %d" value) refused (fun () ->
          ignore (Cuckoo.insert t ~key:42L ~value));
      Alcotest.check_raises (Printf.sprintf "insert_policy %d" value) refused (fun () ->
          ignore (Cuckoo.insert_policy t ~policy:Cuckoo.Evict_lru ~key:42L ~value)))
    [ -1; min_int; 1 lsl 46; max_int ];
  Alcotest.(check int) "nothing counted" 0 (Cuckoo.population t);
  Alcotest.(check (option int)) "key absent" None (Cuckoo.lookup t 42L);
  let top = (1 lsl 46) - 1 in
  Alcotest.(check bool) "largest value accepted" true (Cuckoo.insert t ~key:42L ~value:top);
  Alcotest.(check (option int)) "largest value round-trips" (Some top) (Cuckoo.lookup t 42L);
  Alcotest.(check bool) "zero accepted" true (Cuckoo.insert t ~key:42L ~value:0);
  Alcotest.(check (option int)) "updated to zero" (Some 0) (Cuckoo.lookup t 42L);
  Alcotest.(check int) "one key" 1 (Cuckoo.population t)

let test_cuckoo_full_table () =
  (* A tiny table eventually refuses inserts instead of looping forever. *)
  let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:4 () in
  let ok = ref 0 in
  for i = 1 to 64 do
    if Cuckoo.insert t ~key:(Int64.of_int i) ~value:i then incr ok
  done;
  Alcotest.(check bool) "some inserts rejected at saturation" true (!ok < 64);
  (* Every accepted key must still be present. *)
  Alcotest.(check int) "population equals accepted" !ok (Cuckoo.population t)

let qcheck_cuckoo_model =
  QCheck.Test.make ~name:"cuckoo agrees with Hashtbl model" ~count:60
    QCheck.(list_of_size (Gen.return 300) (pair (int_range 1 500) (int_bound 1000)))
    (fun ops ->
      let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:600 () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          let key = Int64.of_int k in
          if v mod 5 = 0 then begin
            ignore (Cuckoo.delete t key);
            Hashtbl.remove model key
          end
          else if Cuckoo.insert t ~key ~value:v then Hashtbl.replace model key v)
        ops;
      Hashtbl.fold (fun k v acc -> acc && Cuckoo.lookup t k = Some v) model true)

(* Stepwise model agreement: after EVERY operation the table answers like
   the Hashtbl reference — present keys, never-inserted keys (misses),
   delete's return value, and the population count. *)
let qcheck_cuckoo_model_stepwise =
  QCheck.Test.make ~name:"cuckoo agrees with Hashtbl after every op" ~count:40
    QCheck.(list_of_size (Gen.return 200) (pair (int_range 1 400) (int_bound 1000)))
    (fun ops ->
      let t = Cuckoo.create (layout ()) ~label:"c" ~capacity:600 () in
      let model = Hashtbl.create 64 in
      List.for_all
        (fun (k, v) ->
          let key = Int64.of_int k in
          let op_ok =
            if v mod 5 = 0 then begin
              let in_model = Hashtbl.mem model key in
              let deleted = Cuckoo.delete t key in
              Hashtbl.remove model key;
              deleted = in_model
            end
            else begin
              if Cuckoo.insert t ~key ~value:v then Hashtbl.replace model key v;
              true
            end
          in
          op_ok
          && Cuckoo.lookup t key = Hashtbl.find_opt model key
          && Cuckoo.lookup t (Int64.of_int (k + 1000)) = None
          && Cuckoo.population t = Hashtbl.length model)
        ops)

(* One seeded drive over every public probe: insert, insert_policy (each
   policy, on tables small enough to fill to rejection), delete and
   lookup, checked against a Hashtbl model after every op; then
   find_in_bucket and has_candidate over the whole key space, the latter
   against a list scan of the resident keys' fingerprints. A rejected
   insert must leave every key where it was. The outcome of every op and
   the final placement are folded into one MD5, captured before the key
   store was unboxed: slot choice, displacement walks, LRU victims and
   unwinds are all bit-identical to that table. *)
let test_cuckoo_seeded_drive () =
  let b = Buffer.create 65536 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b ';'
  in
  let opt = function None -> "-" | Some v -> string_of_int v in
  let found v = if v < 0 then None else Some v in
  List.iter
    (fun (seed, capacity, policy) ->
      let name = Printf.sprintf "seed %d capacity %d" seed capacity in
      let rng = Random.State.make [| seed |] in
      let t = Cuckoo.create (layout ()) ~label:"c" ~capacity () in
      let model = Hashtbl.create 64 in
      let keyspace = 4 * capacity in
      let keys = List.init keyspace (fun i -> Int64.of_int (i + 1)) in
      let placement () =
        List.map
          (fun key ->
            ( Cuckoo.find_in_bucket t ~bucket:(Cuckoo.hash1 t (kb key) 0) (kb key) 0,
              Cuckoo.find_in_bucket t ~bucket:(Cuckoo.hash2 t (kb key) 0) (kb key) 0 ))
          keys
      in
      let check_unchanged what before =
        Alcotest.(check bool) (name ^ ": " ^ what ^ " left the table untouched") true
          (placement () = before)
      in
      let rejected = ref 0 and evicted = ref 0 in
      for _ = 1 to 20 * capacity do
        let key = Int64.of_int (1 + Random.State.int rng keyspace) in
        let present = Hashtbl.mem model key in
        (match Random.State.int rng 10 with
        | 0 | 1 ->
            let deleted = Cuckoo.delete t key in
            Alcotest.(check bool) (name ^ ": delete result") present deleted;
            Hashtbl.remove model key;
            add (string_of_bool deleted)
        | 2 | 3 | 4 ->
            let value = Random.State.int rng 1000 in
            let before = placement () in
            let ok = Cuckoo.insert t ~key ~value in
            if ok then Hashtbl.replace model key value
            else begin
              incr rejected;
              Alcotest.(check bool) (name ^ ": only a fresh key is rejected") false present;
              check_unchanged "failed insert" before
            end;
            add (string_of_bool ok)
        | 5 | 6 | 7 -> (
            let value = Random.State.int rng 1000 in
            let before = placement () in
            match Cuckoo.insert_policy t ~policy ~key ~value with
            | Cuckoo.Inserted ->
                Alcotest.(check bool) (name ^ ": inserted was absent") false present;
                Hashtbl.replace model key value;
                add "I"
            | Cuckoo.Updated ->
                Alcotest.(check bool) (name ^ ": updated was present") true present;
                Hashtbl.replace model key value;
                add "U"
            | Cuckoo.Rejected ->
                incr rejected;
                Alcotest.(check bool) (name ^ ": evict-lru never rejects") true
                  (policy <> Cuckoo.Evict_lru);
                check_unchanged "rejected insert_policy" before;
                add "R"
            | Cuckoo.Evicted { victim_key; victim_value } ->
                incr evicted;
                Alcotest.(check (option int)) (name ^ ": victim was resident")
                  (Some victim_value) (Hashtbl.find_opt model victim_key);
                Hashtbl.remove model victim_key;
                Hashtbl.replace model key value;
                add (Printf.sprintf "E%Ld/%d" victim_key victim_value))
        | _ -> add (opt (Cuckoo.lookup t key)));
        Alcotest.(check (option int)) (name ^ ": lookup") (Hashtbl.find_opt model key)
          (Cuckoo.lookup t key);
        Alcotest.(check int) (name ^ ": population") (Hashtbl.length model) (Cuckoo.population t)
      done;
      Alcotest.(check bool) (name ^ ": table filled to overflow") true
        (!rejected + !evicted > 0);
      add (string_of_int (Cuckoo.population t));
      (* Resident keys by the bucket holding them. *)
      let resident = Hashtbl.create 64 in
      List.iter
        (fun key ->
          let b1 = Cuckoo.hash1 t (kb key) 0 and b2 = Cuckoo.hash2 t (kb key) 0 in
          let v1 = Cuckoo.find_in_bucket t ~bucket:b1 (kb key) 0
          and v2 = Cuckoo.find_in_bucket t ~bucket:b2 (kb key) 0 in
          Alcotest.(check (option int)) (name ^ ": find_in_bucket")
            (Hashtbl.find_opt model key)
            (found (if v1 >= 0 then v1 else v2));
          if v1 >= 0 then Hashtbl.add resident b1 key
          else if v2 >= 0 then Hashtbl.add resident b2 key)
        keys;
      List.iter
        (fun key ->
          let b1 = Cuckoo.hash1 t (kb key) 0 and b2 = Cuckoo.hash2 t (kb key) 0 in
          let fp = Cuckoo.fingerprint key in
          List.iter
            (fun bucket ->
              let cands = Cuckoo.candidates t ~bucket (kb key) 0 in
              let scan =
                List.exists (fun k -> Cuckoo.fingerprint k = fp) (Hashtbl.find_all resident bucket)
              in
              Alcotest.(check bool) (name ^ ": has_candidate = fingerprint scan") scan
                (Cuckoo.has_candidate t ~bucket (kb key) 0);
              Alcotest.(check bool) (name ^ ": has_candidate = candidates <> []") (cands <> [])
                (Cuckoo.has_candidate t ~bucket (kb key) 0);
              add (opt (found (Cuckoo.find_in_bucket t ~bucket (kb key) 0))))
            [ b1; b2 ];
          let cands bucket = Cuckoo.candidates t ~bucket (kb key) 0 in
          add (String.concat "," (List.map string_of_int (cands b1)));
          add (String.concat "," (List.map string_of_int (cands b2))))
        keys)
    [
      (1, 64, Cuckoo.Drop_new);
      (2, 64, Cuckoo.Evict_lru);
      (3, 64, Cuckoo.Shed_flow);
      (4, 500, Cuckoo.Evict_lru);
    ];
  Alcotest.(check string) "cuckoo trace digest" "ceb5a43857fb97eaf36bdbe80052d86f"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ----- Migration monitor frame ----- *)

(* The GNMC1 bytes of a three-flow export (one untracked, skipped),
   pinned: magic, u32 count, then key, packets and bytes as u64 per flow,
   counters beyond 32 bits included. *)
let test_monitor_frame_pinned () =
  let flows =
    Array.init 4 (fun i ->
        Netcore.Flow.make ~src_ip:(Int32.of_int (0x0A000001 + i)) ~dst_ip:0x0A0000FEl
          ~src_port:(1000 + i) ~dst_port:80 ~proto:6)
  in
  let nm = Nfs.Monitor.create (layout ()) ~name:"nm" ~n_flows:8 () in
  Nfs.Monitor.populate nm (Array.sub flows 0 3);
  nm.Nfs.Monitor.pkt_count.(0) <- 7;
  nm.Nfs.Monitor.byte_count.(0) <- 0x1_2345_6789;
  nm.Nfs.Monitor.pkt_count.(2) <- 0xFF_FFFF_FFFF;
  nm.Nfs.Monitor.byte_count.(2) <- 64;
  let frame = Nfs.Migration.export_monitor nm [ flows.(2); flows.(3); flows.(0) ] in
  let hex s =
    String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  in
  Alcotest.(check string) "monitor frame"
    ("474e4d4331" ^ "02000000"
   ^ "e0bf786e5cd423ed" ^ "ffffffffff000000" ^ "4000000000000000"
   ^ "76e71b714f5df8dc" ^ "0700000000000000" ^ "8967452301000000")
    (hex frame);
  (* Applying the frame restores the totals on a fresh replica. *)
  let peer = Nfs.Monitor.create (layout ()) ~name:"nm" ~n_flows:8 () in
  Nfs.Monitor.populate peer (Array.sub flows 0 3);
  Alcotest.(check int) "entries applied" 2 (Nfs.Migration.apply_monitor peer frame);
  Alcotest.(check (pair int int)) "flow 2 totals" (0xFF_FFFF_FFFF, 64) (Nfs.Monitor.stats peer 2);
  Alcotest.(check (pair int int)) "flow 0 totals" (7, 0x1_2345_6789) (Nfs.Monitor.stats peer 0)

(* ----- FSM transition function ----- *)

(* Δ as a scan of the edge list, the definition [Fsm.step] must agree
   with: for every state of every shipped program, on every event key any
   program uses plus keys none does. Out-of-range states have no edges. *)
let test_fsm_step_matches_edges () =
  let specs_dir = "../specs" in
  let programs =
    List.map
      (fun name ->
        let rc = Check.Recovery.spec_rcase ~specs_dir ~name ~seed:1 ~packets:8 in
        (rc.Check.Recovery.r_build (Gunfu.Worker.create ~id:0 ()) ~owned:[||])
          .Check.Recovery.ci_program)
      Check.Progen.spec_names
    @ [
        Nfs.Nat.program (Nfs.Nat.create (layout ()) ~name:"nat" ~n_flows:64 ());
        Nfs.Nat.dynamic_program (Nfs.Nat.create (layout ()) ~name:"nat" ~n_flows:64 ());
        Nfs.Monitor.program (Nfs.Monitor.create (layout ()) ~name:"nm" ~n_flows:64 ());
        Nfs.Firewall.program (Nfs.Firewall.create (layout ()) ~name:"fw" ~n_flows:64 ());
        Nfs.Lb.program (Nfs.Lb.create (layout ()) ~name:"lb" ~n_flows:64 ());
        Nfs.Amf.program (Nfs.Amf.create (layout ()) ~name:"amf" ~n_ues:64 ());
        Nfs.Upf.program (Nfs.Upf.create_empty (layout ()) ~name:"upf" ~capacity:64 ~n_pdrs:4 ());
        Nfs.Sfc.program (Nfs.Sfc.create (layout ()) ~length:4 ~packed:false ~n_flows:64 ());
      ]
  in
  let fsms = List.map (fun (p : Gunfu.Program.t) -> p.Gunfu.Program.fsm) programs in
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun fsm -> List.map (fun (_, e, _) -> e) (Gunfu.Fsm.edges fsm)) fsms
      @ [ "packet"; "EMIT"; "DROP"; "MATCH_SUCCESS"; "MATCH_FAIL"; "FAULT[action]"; "no_such_event"; "" ])
  in
  List.iter
    (fun fsm ->
      let edges = Gunfu.Fsm.edges fsm in
      for cs = -1 to Gunfu.Fsm.n_states fsm do
        List.iter
          (fun key ->
            let scan = List.find_map (fun (s, e, d) -> if s = cs && e = key then Some d else None) edges in
            Alcotest.(check (option int)) (Printf.sprintf "step %d on %S" cs key) scan
              (Gunfu.Fsm.step fsm cs (Gunfu.Event.of_key key)))
          keys
      done)
    fsms

(* ----- MDI tree ----- *)

let mk_rules n =
  List.init n (fun j ->
      {
        Mdi_tree.src_ip = Mdi_tree.full_range;
        src_port = Mdi_tree.range ~lo:(j * 100) ~hi:((j * 100) + 99);
        dst_port = Mdi_tree.full_range;
        proto = Mdi_tree.range ~lo:17 ~hi:17;
        value = j;
      })

let key ?(proto = 17) port =
  { Mdi_tree.k_src_ip = 1; k_src_port = port; k_dst_port = 80; k_proto = proto }

let test_mdi_lookup_all () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 16) () in
  for j = 0 to 15 do
    Alcotest.(check (option int)) "lo edge" (Some j) (Mdi_tree.lookup t (key (j * 100)));
    Alcotest.(check (option int)) "hi edge" (Some j) (Mdi_tree.lookup t (key ((j * 100) + 99)))
  done

let test_mdi_miss () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 4) () in
  Alcotest.(check (option int)) "above all ranges" None (Mdi_tree.lookup t (key 5000));
  Alcotest.(check (option int)) "wrong proto" None (Mdi_tree.lookup t (key ~proto:6 50))

let test_mdi_overlap_rejected () =
  let overlapping =
    [
      { Mdi_tree.src_ip = Mdi_tree.full_range; src_port = Mdi_tree.range ~lo:0 ~hi:10;
        dst_port = Mdi_tree.full_range; proto = Mdi_tree.full_range; value = 0 };
      { Mdi_tree.src_ip = Mdi_tree.full_range; src_port = Mdi_tree.range ~lo:5 ~hi:15;
        dst_port = Mdi_tree.full_range; proto = Mdi_tree.full_range; value = 1 };
    ]
  in
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Mdi_tree.create: rules overlap on the discriminating dimension")
    (fun () -> ignore (Mdi_tree.create (layout ()) ~label:"m" ~rules:overlapping ()))

(* [step] returns a rule's value in the same int as a miss or a descent,
   so values must be non-negative. *)
let test_mdi_negative_value_rejected () =
  let rule = { (List.hd (mk_rules 1)) with Mdi_tree.value = -1 } in
  Alcotest.check_raises "negative value rejected"
    (Invalid_argument "Mdi_tree.create: rule values must be non-negative")
    (fun () -> ignore (Mdi_tree.create (layout ()) ~label:"m" ~rules:[ rule ] ()))

let test_mdi_depth_logarithmic () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 128) () in
  Alcotest.(check bool) "balanced depth" true (Mdi_tree.depth t <= 8);
  Alcotest.(check int) "size" 128 (Mdi_tree.size t)

let test_mdi_path_is_pointer_chase () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 64) () in
  let v, path = Mdi_tree.lookup_path t (key 3210) in
  Alcotest.(check (option int)) "found" (Some 32) v;
  Alcotest.(check bool) "path no longer than depth" true
    (List.length path <= Mdi_tree.depth t);
  (* Node addresses along the path are distinct cache lines. *)
  let lines = List.map (fun idx -> Mdi_tree.node_addr t idx / 64) path in
  Alcotest.(check int) "distinct lines" (List.length lines)
    (List.length (List.sort_uniq compare lines))

let test_mdi_step_semantics () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:(mk_rules 8) () in
  let root = Mdi_tree.root t in
  if root < 0 then Alcotest.fail "non-empty tree has a root";
  let rec walk node steps =
    Alcotest.(check bool) "bounded walk" true (steps < 10);
    let r = Mdi_tree.step t ~node ~src_ip:1 ~src_port:701 ~dst_port:80 ~proto:17 in
    if r >= 0 then r
    else if r = Mdi_tree.miss then Alcotest.fail "unexpected miss"
    else walk (Mdi_tree.descend_to r) (steps + 1)
  in
  Alcotest.(check int) "step walk finds rule 7" 7 (walk root 0)

let test_mdi_empty () =
  let t = Mdi_tree.create (layout ()) ~label:"m" ~rules:[] () in
  Alcotest.(check int) "no root" (-1) (Mdi_tree.root t);
  Alcotest.(check (option int)) "lookup misses" None (Mdi_tree.lookup t (key 5))

let test_mdi_forest_distinct_members () =
  let f = Mdi_tree.Forest.create (layout ()) ~label:"f" ~rules:(mk_rules 4) ~members:10 () in
  let shape = Mdi_tree.Forest.shape f in
  let root = Mdi_tree.root shape in
  if root < 0 then Alcotest.fail "root expected";
  let addrs = List.init 10 (fun m -> Mdi_tree.Forest.node_addr f ~member:m root) in
  Alcotest.(check int) "per-member root lines distinct" 10
    (List.length (List.sort_uniq compare (List.map (fun a -> a / 64) addrs)));
  Alcotest.(check int) "members" 10 (Mdi_tree.Forest.members f)

let qcheck_mdi_vs_linear_scan =
  QCheck.Test.make ~name:"MDI lookup == linear rule scan" ~count:200
    QCheck.(pair (int_range 1 64) (int_bound 8000))
    (fun (n_rules, port) ->
      let rules = mk_rules n_rules in
      let t = Mdi_tree.create (layout ()) ~label:"m" ~rules () in
      let linear =
        List.find_opt
          (fun r ->
            port >= r.Mdi_tree.src_port.Mdi_tree.lo && port <= r.Mdi_tree.src_port.Mdi_tree.hi)
          rules
        |> Option.map (fun r -> r.Mdi_tree.value)
      in
      Mdi_tree.lookup t (key port) = linear)

(* ----- state arena ----- *)

let test_arena_addr_stride () =
  let a = State_arena.create (layout ()) ~label:"a" ~entry_bytes:8 ~count:10 () in
  Alcotest.(check int) "stride rounded to line" 64 (State_arena.stride a);
  Alcotest.(check int) "entry addresses stride apart" 64
    (State_arena.addr a 1 - State_arena.addr a 0);
  Alcotest.(check int) "one line per entry" 1 (State_arena.lines_per_entry a)

let test_arena_bounds () =
  let a = State_arena.create (layout ()) ~label:"a" ~entry_bytes:8 ~count:10 () in
  Alcotest.check_raises "negative index"
    (Invalid_argument "State_arena.addr: index out of range") (fun () ->
      ignore (State_arena.addr a (-1)));
  Alcotest.check_raises "index = count"
    (Invalid_argument "State_arena.addr: index out of range") (fun () ->
      ignore (State_arena.addr a 10))

let test_arena_record_fields () =
  let a =
    State_arena.create_record (layout ()) ~label:"r"
      ~field_offsets:[ ("x", 0); ("y", 16) ] ~record_bytes:32 ~count:4 ()
  in
  Alcotest.(check int) "field offset applied" 16
    (State_arena.field_addr a 0 "y" - State_arena.addr a 0);
  Alcotest.check_raises "unknown field"
    (Invalid_argument "State_arena.field_addr: unknown field z") (fun () ->
      ignore (State_arena.field_addr a 0 "z"))

let test_group_packing () =
  let g =
    State_arena.create_group (layout ()) ~label:"g"
      ~members:[ ("nat", 8); ("lb", 8); ("fw", 16); ("nm", 16) ] ~count:100 ()
  in
  let arena = State_arena.group_arena g in
  (* 48 bytes of state pack into one line per flow. *)
  Alcotest.(check int) "one line per flow" 64 (State_arena.stride arena);
  (* All members of flow 7 share that flow's line. *)
  let lines =
    List.map (fun m -> State_arena.group_addr g 7 m / 64) [ "nat"; "lb"; "fw"; "nm" ]
  in
  Alcotest.(check int) "single line" 1 (List.length (List.sort_uniq compare lines));
  Alcotest.(check int) "member size" 16 (State_arena.group_member_bytes g "fw")

let test_group_views () =
  let g =
    State_arena.create_group (layout ()) ~label:"g" ~members:[ ("a", 8); ("b", 8) ]
      ~count:10 ()
  in
  let va = State_arena.view g ~member:"a" in
  let vb = State_arena.view g ~member:"b" in
  Alcotest.(check int) "view addr = group addr" (State_arena.group_addr g 3 "a")
    (State_arena.addr va 3);
  Alcotest.(check int) "views offset by member" 8 (State_arena.addr vb 0 - State_arena.addr va 0);
  Alcotest.(check int) "view entry bytes" 8 (State_arena.entry_bytes vb);
  Alcotest.(check string) "view label derived" "g.a" (State_arena.label va)

(* ----- packing ----- *)

let fields =
  [
    { Packing.name = "a"; bytes = 16 };
    { Packing.name = "b"; bytes = 16 };
    { Packing.name = "c"; bytes = 16 };
    { Packing.name = "d"; bytes = 16 };
    { Packing.name = "e"; bytes = 16 };
    { Packing.name = "f"; bytes = 16 };
  ]

(* Two actions with disjoint field sets, interleaved in declaration
   order: sequential layout spreads each access over two lines; packing
   should give one line each. *)
let accesses =
  [
    { Packing.fields = [ "a"; "c"; "e" ]; weight = 1.0 };
    { Packing.fields = [ "b"; "d"; "f" ]; weight = 1.0 };
  ]

let no_overlap offsets sized =
  let spans =
    List.map (fun (n, off) -> (off, off + List.assoc n sized)) offsets
    |> List.sort compare
  in
  let rec ok = function
    | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && ok rest
    | _ -> true
  in
  ok spans

let sized = List.map (fun f -> (f.Packing.name, f.Packing.bytes)) fields

let test_sequential_layout () =
  let offsets, total = Packing.sequential fields in
  Alcotest.(check int) "all fields placed" 6 (List.length offsets);
  Alcotest.(check int) "dense total" 96 total;
  Alcotest.(check bool) "no overlap" true (no_overlap offsets sized)

let test_pack_reduces_lines () =
  let seq_offsets, _ = Packing.sequential fields in
  let packed_offsets, _ = Packing.pack ~line_bytes:64 fields accesses in
  Alcotest.(check bool) "packed has no overlap" true (no_overlap packed_offsets sized);
  Alcotest.(check int) "all fields placed" 6 (List.length packed_offsets);
  let cost layout =
    List.fold_left
      (fun acc a ->
        acc +. (a.Packing.weight *. float_of_int (Packing.lines_touched ~line_bytes:64 fields layout a)))
      0.0 accesses
  in
  Alcotest.(check bool) "packing lowers expected lines" true
    (cost packed_offsets < cost seq_offsets);
  (* Each access fits in one 64-byte line after packing (3 x 16 = 48). *)
  List.iter
    (fun a ->
      Alcotest.(check int) "one line per access" 1
        (Packing.lines_touched ~line_bytes:64 fields packed_offsets a))
    accesses

let test_lines_touched () =
  let offsets = [ ("a", 0); ("b", 60) ] in
  let fs = [ { Packing.name = "a"; bytes = 8 }; { Packing.name = "b"; bytes = 8 } ] in
  (* a occupies line 0; b straddles lines 0 and 1 -> union {0, 1}. *)
  Alcotest.(check int) "field straddling a boundary counts both lines" 2
    (Packing.lines_touched ~line_bytes:64 fs offsets
       { Packing.fields = [ "a"; "b" ]; weight = 1.0 });
  Alcotest.(check int) "single in-line field is one line" 1
    (Packing.lines_touched ~line_bytes:64 fs offsets
       { Packing.fields = [ "a" ]; weight = 1.0 })

let qcheck_pack_no_overlap =
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 12) (int_range 1 64) >>= fun sizes ->
        return (List.mapi (fun i b -> { Packing.name = Printf.sprintf "f%d" i; bytes = b }) sizes))
  in
  QCheck.Test.make ~name:"pack never overlaps fields and keeps them all" ~count:200 gen
    (fun fs ->
      let accesses =
        [ { Packing.fields = List.filteri (fun i _ -> i mod 2 = 0) (List.map (fun f -> f.Packing.name) fs); weight = 1.0 } ]
      in
      let offsets, total = Packing.pack ~line_bytes:64 fs accesses in
      let sized = List.map (fun f -> (f.Packing.name, f.Packing.bytes)) fs in
      List.length offsets = List.length fs
      && no_overlap offsets sized
      && List.for_all (fun (n, off) -> off + List.assoc n sized <= total) offsets)

let suite =
  [
    Alcotest.test_case "cuckoo insert/lookup" `Quick test_cuckoo_insert_lookup;
    Alcotest.test_case "cuckoo update" `Quick test_cuckoo_update;
    Alcotest.test_case "cuckoo delete" `Quick test_cuckoo_delete;
    Alcotest.test_case "cuckoo displacement" `Quick test_cuckoo_displacement;
    Alcotest.test_case "cuckoo address regions" `Quick test_cuckoo_addrs_distinct_regions;
    Alcotest.test_case "cuckoo candidates" `Quick test_cuckoo_candidates_superset;
    Alcotest.test_case "cuckoo full table" `Quick test_cuckoo_full_table;
    Alcotest.test_case "cuckoo value range" `Quick test_cuckoo_value_range;
    Helpers.qcheck qcheck_cuckoo_model;
    Helpers.qcheck qcheck_cuckoo_model_stepwise;
    Alcotest.test_case "cuckoo seeded drive" `Quick test_cuckoo_seeded_drive;
    Alcotest.test_case "migration monitor frame pinned" `Quick test_monitor_frame_pinned;
    Alcotest.test_case "fsm step matches edges" `Quick test_fsm_step_matches_edges;
    Alcotest.test_case "mdi lookup all" `Quick test_mdi_lookup_all;
    Alcotest.test_case "mdi miss" `Quick test_mdi_miss;
    Alcotest.test_case "mdi overlap rejected" `Quick test_mdi_overlap_rejected;
    Alcotest.test_case "mdi negative value rejected" `Quick test_mdi_negative_value_rejected;
    Alcotest.test_case "mdi depth" `Quick test_mdi_depth_logarithmic;
    Alcotest.test_case "mdi path pointer chase" `Quick test_mdi_path_is_pointer_chase;
    Alcotest.test_case "mdi step semantics" `Quick test_mdi_step_semantics;
    Alcotest.test_case "mdi empty" `Quick test_mdi_empty;
    Alcotest.test_case "mdi forest members" `Quick test_mdi_forest_distinct_members;
    Helpers.qcheck qcheck_mdi_vs_linear_scan;
    Alcotest.test_case "arena addr/stride" `Quick test_arena_addr_stride;
    Alcotest.test_case "arena bounds" `Quick test_arena_bounds;
    Alcotest.test_case "arena record fields" `Quick test_arena_record_fields;
    Alcotest.test_case "group packing" `Quick test_group_packing;
    Alcotest.test_case "group views" `Quick test_group_views;
    Alcotest.test_case "sequential layout" `Quick test_sequential_layout;
    Alcotest.test_case "pack reduces lines" `Quick test_pack_reduces_lines;
    Alcotest.test_case "lines_touched" `Quick test_lines_touched;
    Helpers.qcheck qcheck_pack_no_overlap;
  ]
