(* Elastic scaling of stateful NFs (§VIII "Separation of Data and Code"):
   per-flow state is decoupled from code, so flows can be exported from one
   instance and imported into another (scale-out, or failover from a state
   snapshot) without breaking connections — for a NAT that means the
   external (ip, port) mapping must survive the move.

   Snapshots use an explicit little-endian wire format (not OCaml
   marshalling): a real system would ship these across machines. *)

exception Bad_snapshot of string

let nat_magic = "GNAT1"

let put_u16 buf v = Buffer.add_uint16_le buf (v land 0xFFFF)
let put_u32 = Buffer.add_int32_le
let put_u64 = Buffer.add_int64_le
let get_u16 = String.get_uint16_le
let get_u32 = String.get_int32_le
let get_u64 = String.get_int64_le

(* Shared header check: 5-byte magic then a u32 entry count; entries are
   fixed-size from offset 9. Returns the validated count. *)
let parse_header ~magic ~entry_bytes snapshot =
  let n = String.length snapshot in
  if n < 9 || String.sub snapshot 0 5 <> magic then
    raise (Bad_snapshot "bad magic");
  let count = Int32.to_int (get_u32 snapshot 5) in
  if count < 0 || 9 + (count * entry_bytes) > n then
    raise (Bad_snapshot "truncated");
  count

(* One NAT mapping on the wire: flow key (the lookup identity) plus the
   external endpoint that must be preserved. *)
type nat_entry = { key : int64; ext_ip : Netcore.Ipv4.addr; ext_port : int }

(* Export the mappings of the given flows from a NAT. Flows without an
   installed mapping are skipped. *)
let export_nat (nat : Nat.t) flows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf nat_magic;
  let entries =
    List.filter_map
      (fun flow ->
        let key = Netcore.Flow.key64 flow in
        Option.map
          (fun idx -> { key; ext_ip = nat.Nat.map_ip.(idx); ext_port = nat.Nat.map_port.(idx) })
          (Structures.Cuckoo.lookup (Classifier.table nat.Nat.classifier) key))
      flows
  in
  put_u32 buf (Int32.of_int (List.length entries));
  List.iter
    (fun e ->
      put_u64 buf e.key;
      put_u32 buf e.ext_ip;
      put_u16 buf e.ext_port)
    entries;
  Buffer.contents buf

let parse_nat snapshot =
  let count = parse_header ~magic:nat_magic ~entry_bytes:14 snapshot in
  List.init count (fun i ->
      let off = 9 + (i * 14) in
      {
        key = get_u64 snapshot off;
        ext_ip = get_u32 snapshot (off + 8);
        ext_port = get_u16 snapshot (off + 12);
      })

(* Remove the flows from the source NAT (after export): subsequent packets
   of these flows MATCH_FAIL there. Freed mapping slots are zeroed and
   recycled onto the free list (like {!Nat.expire}), so a NAT that handed
   flows away can later adopt flows back — rebalancing ping-pong. *)
let evict_nat (nat : Nat.t) flows =
  List.iter
    (fun flow ->
      let key = Netcore.Flow.key64 flow in
      match Structures.Cuckoo.lookup (Classifier.table nat.Nat.classifier) key with
      | None -> ()
      | Some idx ->
          ignore (Structures.Cuckoo.delete (Classifier.table nat.Nat.classifier) key);
          nat.Nat.map_ip.(idx) <- 0l;
          nat.Nat.map_port.(idx) <- 0;
          nat.Nat.keys.(idx) <- 0L;
          nat.Nat.free_slots <- nat.Nat.free_slots @ [ idx ])
    flows

(* Install a snapshot into a target NAT, preserving external mappings.
   Returns the number of entries imported. All-or-nothing: the snapshot is
   fully parsed and capacity-checked before the first mutation, and a
   mid-import cuckoo rejection rolls every already-installed entry back —
   on ANY failure the target is exactly as it was.
   @raise Bad_snapshot on malformed input or when the target is full. *)
let import_nat (nat : Nat.t) snapshot =
  let entries = parse_nat snapshot in
  let table = Classifier.table nat.Nat.classifier in
  let headroom =
    Array.length nat.Nat.map_ip - nat.Nat.next_free
    + List.length nat.Nat.free_slots
  in
  if List.length entries > headroom then
    raise (Bad_snapshot "target NAT mapping table full");
  let saved_next = nat.Nat.next_free in
  let saved_free = nat.Nat.free_slots in
  (* (key, slot, overwritten mapping bytes) — enough to restore the target
     exactly, whether the slot came off the free list or the bump region *)
  let installed = ref [] in
  let rollback () =
    List.iter
      (fun (key, idx, ip, port, k) ->
        ignore (Structures.Cuckoo.delete table key);
        nat.Nat.map_ip.(idx) <- ip;
        nat.Nat.map_port.(idx) <- port;
        nat.Nat.keys.(idx) <- k)
      !installed;
    nat.Nat.next_free <- saved_next;
    nat.Nat.free_slots <- saved_free
  in
  (try
     List.iter
       (fun e ->
         let idx =
           match nat.Nat.free_slots with
           | idx :: rest ->
               nat.Nat.free_slots <- rest;
               idx
           | [] ->
               let idx = nat.Nat.next_free in
               nat.Nat.next_free <- idx + 1;
               idx
         in
         installed :=
           (e.key, idx, nat.Nat.map_ip.(idx), nat.Nat.map_port.(idx), nat.Nat.keys.(idx))
           :: !installed;
         nat.Nat.map_ip.(idx) <- e.ext_ip;
         nat.Nat.map_port.(idx) <- e.ext_port;
         nat.Nat.keys.(idx) <- e.key;
         if not (Structures.Cuckoo.insert table ~key:e.key ~value:idx) then
           raise (Bad_snapshot "target NAT match table full"))
       entries
   with exn ->
     rollback ();
     raise exn);
  List.length entries

(* Upsert a snapshot into a target NAT: entries whose flow is already
   resident get their mapping overwritten in place; absent flows are
   admitted (free list first, then the bump region). This is the SCR
   update-apply surface — an update record is an *absolute* per-flow state
   snapshot, so applying only the latest pending record for a flow is
   equivalent to applying all of them in sequence order, and re-applying is
   idempotent. The frame is fully parsed before the first mutation.
   @raise Bad_snapshot on malformed input or a full target. *)
let apply_nat (nat : Nat.t) snapshot =
  let entries = parse_nat snapshot in
  let table = Classifier.table nat.Nat.classifier in
  List.iter
    (fun e ->
      match Structures.Cuckoo.lookup table e.key with
      | Some idx ->
          nat.Nat.map_ip.(idx) <- e.ext_ip;
          nat.Nat.map_port.(idx) <- e.ext_port
      | None ->
          let idx =
            match nat.Nat.free_slots with
            | idx :: rest ->
                nat.Nat.free_slots <- rest;
                idx
            | [] ->
                if nat.Nat.next_free >= Array.length nat.Nat.map_ip then
                  raise (Bad_snapshot "target NAT mapping table full");
                let idx = nat.Nat.next_free in
                nat.Nat.next_free <- idx + 1;
                idx
          in
          nat.Nat.map_ip.(idx) <- e.ext_ip;
          nat.Nat.map_port.(idx) <- e.ext_port;
          nat.Nat.keys.(idx) <- e.key;
          if not (Structures.Cuckoo.insert table ~key:e.key ~value:idx) then
            raise (Bad_snapshot "target NAT match table full"))
    entries;
  List.length entries

(* ----- monitor counters (accounting survives scale events) ----- *)

let nm_magic = "GNMC1"

(* One exact-size frame: magic, u32 count, then (key, packets, bytes)
   as three u64 per tracked flow. *)
let export_monitor (nm : Monitor.t) flows =
  let table = Classifier.table nm.Monitor.classifier in
  let entries =
    List.filter_map
      (fun flow ->
        let key = Netcore.Flow.key64 flow in
        Option.map (fun idx -> (key, idx)) (Structures.Cuckoo.lookup table key))
      flows
  in
  let n = List.length entries in
  let b = Bytes.create (9 + (24 * n)) in
  Bytes.blit_string nm_magic 0 b 0 5;
  Bytes.set_int32_le b 5 (Int32.of_int n);
  List.iteri
    (fun i (key, idx) ->
      let off = 9 + (24 * i) in
      Bytes.set_int64_le b off key;
      Bytes.set_int64_le b (off + 8) (Int64.of_int nm.Monitor.pkt_count.(idx));
      Bytes.set_int64_le b (off + 16) (Int64.of_int nm.Monitor.byte_count.(idx)))
    entries;
  Bytes.unsafe_to_string b

let import_monitor (nm : Monitor.t) ~flows snapshot =
  let count = parse_header ~magic:nm_magic ~entry_bytes:24 snapshot in
  let by_key = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace by_key (Netcore.Flow.key64 f) i) flows;
  let imported = ref 0 in
  for i = 0 to count - 1 do
    let off = 9 + (i * 24) in
    let key = get_u64 snapshot off in
    match Hashtbl.find_opt by_key key with
    | None -> ()
    | Some idx ->
        nm.Monitor.pkt_count.(idx) <-
          nm.Monitor.pkt_count.(idx) + Int64.to_int (get_u64 snapshot (off + 8));
        nm.Monitor.byte_count.(idx) <-
          nm.Monitor.byte_count.(idx) + Int64.to_int (get_u64 snapshot (off + 16));
        incr imported
  done;
  !imported

(* Remove the flows from a monitor (post-export): later packets of these
   flows MATCH_FAIL. Counter slots are not recycled (bump allocator). *)
let evict_monitor (nm : Monitor.t) flows =
  List.iter
    (fun flow ->
      ignore
        (Structures.Cuckoo.delete
           (Classifier.table nm.Monitor.classifier)
           (Netcore.Flow.key64 flow)))
    flows

(* Install monitor accounting as *fresh* flows (failover/adoption), unlike
   {!import_monitor} which merges into flows the target already tracks:
   each entry gets a new counter slot holding the exported totals, and the
   flow key is admitted into the classifier. All-or-nothing like
   {!import_nat}. *)
let adopt_monitor (nm : Monitor.t) snapshot =
  let count = parse_header ~magic:nm_magic ~entry_bytes:24 snapshot in
  let table = Classifier.table nm.Monitor.classifier in
  if nm.Monitor.next_free + count > Array.length nm.Monitor.pkt_count then
    raise (Bad_snapshot "target monitor counter table full");
  let saved_next = nm.Monitor.next_free in
  let installed = ref [] in
  let rollback () =
    List.iter (fun key -> ignore (Structures.Cuckoo.delete table key)) !installed;
    for idx = saved_next to nm.Monitor.next_free - 1 do
      nm.Monitor.pkt_count.(idx) <- 0;
      nm.Monitor.byte_count.(idx) <- 0
    done;
    nm.Monitor.next_free <- saved_next
  in
  (try
     for i = 0 to count - 1 do
       let off = 9 + (i * 24) in
       let key = get_u64 snapshot off in
       let idx = nm.Monitor.next_free in
       nm.Monitor.next_free <- idx + 1;
       nm.Monitor.pkt_count.(idx) <- Int64.to_int (get_u64 snapshot (off + 8));
       nm.Monitor.byte_count.(idx) <- Int64.to_int (get_u64 snapshot (off + 16));
       if not (Structures.Cuckoo.insert table ~key ~value:idx) then
         raise (Bad_snapshot "target monitor match table full");
       installed := key :: !installed
     done
   with exn ->
     rollback ();
     raise exn);
  count

(* Upsert monitor accounting as *absolute* totals: a resident flow's
   counters are overwritten (NOT merged like {!import_monitor} — an SCR
   update record carries the flow's authoritative running totals), an
   absent flow is admitted with them. See {!apply_nat} for the contract. *)
let apply_monitor (nm : Monitor.t) snapshot =
  let count = parse_header ~magic:nm_magic ~entry_bytes:24 snapshot in
  let table = Classifier.table nm.Monitor.classifier in
  for i = 0 to count - 1 do
    let off = 9 + (i * 24) in
    let key = get_u64 snapshot off in
    let pkts = Int64.to_int (get_u64 snapshot (off + 8)) in
    let bytes = Int64.to_int (get_u64 snapshot (off + 16)) in
    match Structures.Cuckoo.lookup table key with
    | Some idx ->
        nm.Monitor.pkt_count.(idx) <- pkts;
        nm.Monitor.byte_count.(idx) <- bytes
    | None ->
        if nm.Monitor.next_free >= Array.length nm.Monitor.pkt_count then
          raise (Bad_snapshot "target monitor counter table full");
        let idx = nm.Monitor.next_free in
        nm.Monitor.next_free <- idx + 1;
        nm.Monitor.pkt_count.(idx) <- pkts;
        nm.Monitor.byte_count.(idx) <- bytes;
        if not (Structures.Cuckoo.insert table ~key ~value:idx) then
          raise (Bad_snapshot "target monitor match table full")
  done;
  count

(* ----- load balancer (backend pinning survives the move) ----- *)

let lb_magic = "GNLB1"

(* (key u64, backend u16): what must survive is the flow's backend pin —
   re-running Maglev on the target could re-balance it elsewhere and break
   the connection. *)
let export_lb (lb : Lb.t) flows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf lb_magic;
  let entries =
    List.filter_map
      (fun flow ->
        let key = Netcore.Flow.key64 flow in
        Option.map
          (fun idx -> (key, lb.Lb.assignment.(idx)))
          (Structures.Cuckoo.lookup (Classifier.table lb.Lb.classifier) key))
      flows
  in
  put_u32 buf (Int32.of_int (List.length entries));
  List.iter
    (fun (key, backend) ->
      put_u64 buf key;
      put_u16 buf backend)
    entries;
  Buffer.contents buf

let evict_lb (lb : Lb.t) flows =
  List.iter
    (fun flow ->
      ignore
        (Structures.Cuckoo.delete (Classifier.table lb.Lb.classifier)
           (Netcore.Flow.key64 flow)))
    flows

let import_lb (lb : Lb.t) snapshot =
  let count = parse_header ~magic:lb_magic ~entry_bytes:10 snapshot in
  let table = Classifier.table lb.Lb.classifier in
  if lb.Lb.next_free + count > Array.length lb.Lb.assignment then
    raise (Bad_snapshot "target LB assignment table full");
  (* Validate every entry before the first mutation. *)
  for i = 0 to count - 1 do
    let backend = get_u16 snapshot (9 + (i * 10) + 8) in
    if backend >= Array.length lb.Lb.backends then
      raise (Bad_snapshot "LB backend index out of range")
  done;
  let saved_next = lb.Lb.next_free in
  let installed = ref [] in
  let rollback () =
    List.iter (fun key -> ignore (Structures.Cuckoo.delete table key)) !installed;
    for idx = saved_next to lb.Lb.next_free - 1 do
      lb.Lb.assignment.(idx) <- 0
    done;
    lb.Lb.next_free <- saved_next
  in
  (try
     for i = 0 to count - 1 do
       let off = 9 + (i * 10) in
       let key = get_u64 snapshot off in
       let idx = lb.Lb.next_free in
       lb.Lb.next_free <- idx + 1;
       lb.Lb.assignment.(idx) <- get_u16 snapshot (off + 8);
       if not (Structures.Cuckoo.insert table ~key ~value:idx) then
         raise (Bad_snapshot "target LB match table full");
       installed := key :: !installed
     done
   with exn ->
     rollback ();
     raise exn);
  count

(* Upsert backend pins (see {!apply_nat} for the SCR update contract).
   Backend indices are validated before the first mutation. *)
let apply_lb (lb : Lb.t) snapshot =
  let count = parse_header ~magic:lb_magic ~entry_bytes:10 snapshot in
  let table = Classifier.table lb.Lb.classifier in
  for i = 0 to count - 1 do
    let backend = get_u16 snapshot (9 + (i * 10) + 8) in
    if backend >= Array.length lb.Lb.backends then
      raise (Bad_snapshot "LB backend index out of range")
  done;
  for i = 0 to count - 1 do
    let off = 9 + (i * 10) in
    let key = get_u64 snapshot off in
    let backend = get_u16 snapshot (off + 8) in
    match Structures.Cuckoo.lookup table key with
    | Some idx -> lb.Lb.assignment.(idx) <- backend
    | None ->
        if lb.Lb.next_free >= Array.length lb.Lb.assignment then
          raise (Bad_snapshot "target LB assignment table full");
        let idx = lb.Lb.next_free in
        lb.Lb.next_free <- idx + 1;
        lb.Lb.assignment.(idx) <- backend;
        if not (Structures.Cuckoo.insert table ~key ~value:idx) then
          raise (Bad_snapshot "target LB match table full")
  done;
  count

(* ----- firewall (admission verdicts survive the move) ----- *)

let fw_magic = "GNFW1"

(* (key u64, verdict u8): the verdict was decided at admission against the
   *source* instance's policy; re-evaluating on the target (which may run a
   different policy) could flip it mid-connection. *)
let export_firewall (fw : Firewall.t) flows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf fw_magic;
  let entries =
    List.filter_map
      (fun flow ->
        let key = Netcore.Flow.key64 flow in
        Option.map
          (fun idx -> (key, fw.Firewall.verdicts.(idx)))
          (Structures.Cuckoo.lookup (Classifier.table fw.Firewall.classifier) key))
      flows
  in
  put_u32 buf (Int32.of_int (List.length entries));
  List.iter
    (fun (key, accept) ->
      put_u64 buf key;
      Buffer.add_char buf (if accept then '\001' else '\000'))
    entries;
  Buffer.contents buf

let evict_firewall (fw : Firewall.t) flows =
  List.iter
    (fun flow ->
      ignore
        (Structures.Cuckoo.delete
           (Classifier.table fw.Firewall.classifier)
           (Netcore.Flow.key64 flow)))
    flows

let import_firewall (fw : Firewall.t) snapshot =
  let count = parse_header ~magic:fw_magic ~entry_bytes:9 snapshot in
  let table = Classifier.table fw.Firewall.classifier in
  if fw.Firewall.next_free + count > Array.length fw.Firewall.verdicts then
    raise (Bad_snapshot "target firewall verdict table full");
  for i = 0 to count - 1 do
    let v = Char.code snapshot.[9 + (i * 9) + 8] in
    if v > 1 then raise (Bad_snapshot "firewall verdict out of range")
  done;
  let saved_next = fw.Firewall.next_free in
  let installed = ref [] in
  let rollback () =
    List.iter (fun key -> ignore (Structures.Cuckoo.delete table key)) !installed;
    for idx = saved_next to fw.Firewall.next_free - 1 do
      fw.Firewall.verdicts.(idx) <- true
    done;
    fw.Firewall.next_free <- saved_next
  in
  (try
     for i = 0 to count - 1 do
       let off = 9 + (i * 9) in
       let key = get_u64 snapshot off in
       let idx = fw.Firewall.next_free in
       fw.Firewall.next_free <- idx + 1;
       fw.Firewall.verdicts.(idx) <- Char.code snapshot.[off + 8] = 1;
       if not (Structures.Cuckoo.insert table ~key ~value:idx) then
         raise (Bad_snapshot "target firewall match table full");
       installed := key :: !installed
     done
   with exn ->
     rollback ();
     raise exn);
  count

(* Upsert admission verdicts (see {!apply_nat} for the SCR update
   contract). Verdict bytes are validated before the first mutation. *)
let apply_firewall (fw : Firewall.t) snapshot =
  let count = parse_header ~magic:fw_magic ~entry_bytes:9 snapshot in
  let table = Classifier.table fw.Firewall.classifier in
  for i = 0 to count - 1 do
    let v = Char.code snapshot.[9 + (i * 9) + 8] in
    if v > 1 then raise (Bad_snapshot "firewall verdict out of range")
  done;
  for i = 0 to count - 1 do
    let off = 9 + (i * 9) in
    let key = get_u64 snapshot off in
    let accept = Char.code snapshot.[off + 8] = 1 in
    match Structures.Cuckoo.lookup table key with
    | Some idx -> fw.Firewall.verdicts.(idx) <- accept
    | None ->
        if fw.Firewall.next_free >= Array.length fw.Firewall.verdicts then
          raise (Bad_snapshot "target firewall verdict table full");
        let idx = fw.Firewall.next_free in
        fw.Firewall.next_free <- idx + 1;
        fw.Firewall.verdicts.(idx) <- accept;
        if not (Structures.Cuckoo.insert table ~key ~value:idx) then
          raise (Bad_snapshot "target firewall match table full")
  done;
  count

(* ----- bare classifier (match table as the unit of state) ----- *)

let cls_magic = "GCLS1"

(* (key u64, value u32) pairs, exactly as resident in the cuckoo table.
   Values are slot indices into whatever data structure sits behind the
   classifier, so cross-instance imports usually pass [remap] to translate
   them into the target's slot space. *)
let export_classifier (cls : Classifier.t) keys =
  let buf = Buffer.create 256 in
  Buffer.add_string buf cls_magic;
  let entries =
    List.filter_map
      (fun key ->
        Option.map
          (fun v -> (key, v))
          (Structures.Cuckoo.lookup (Classifier.table cls) key))
      keys
  in
  put_u32 buf (Int32.of_int (List.length entries));
  List.iter
    (fun (key, v) ->
      put_u64 buf key;
      put_u32 buf (Int32.of_int v))
    entries;
  Buffer.contents buf

let evict_classifier (cls : Classifier.t) keys =
  List.iter
    (fun key -> ignore (Structures.Cuckoo.delete (Classifier.table cls) key))
    keys

let import_classifier ?(remap = fun v -> v) (cls : Classifier.t) snapshot =
  let count = parse_header ~magic:cls_magic ~entry_bytes:12 snapshot in
  let table = Classifier.table cls in
  if
    Structures.Cuckoo.population table + count
    > Structures.Cuckoo.nbuckets table * Structures.Cuckoo.slots_per_bucket
  then raise (Bad_snapshot "target classifier table full");
  let installed = ref [] in
  let rollback () =
    List.iter (fun key -> ignore (Structures.Cuckoo.delete table key)) !installed
  in
  (try
     for i = 0 to count - 1 do
       let off = 9 + (i * 12) in
       let key = get_u64 snapshot off in
       let value = remap (Int32.to_int (get_u32 snapshot (off + 8)) land 0xFFFFFFFF) in
       if not (Structures.Cuckoo.insert table ~key ~value) then
         raise (Bad_snapshot "target classifier match table full");
       installed := key :: !installed
     done
   with exn ->
     rollback ();
     raise exn);
  count

(* ----- UPF (PFCP sessions re-homed with their tunnel identity) ----- *)

let upf_magic = "GUPF1"

(* (ue_ip u32, teid u32): a PFCP session's identity. Everything else about
   the session (PDR shapes, FAR) is derived from the UPF's fixed per-session
   geometry, so re-homing reinstalls through the normal
   {!Upf.install_session} admission path. *)
let export_upf (upf : Upf.t) ue_ips =
  let buf = Buffer.create 256 in
  Buffer.add_string buf upf_magic;
  let entries =
    List.filter_map
      (fun ue_ip ->
        let key = Int64.logand (Int64.of_int32 ue_ip) 0xFFFFFFFFL in
        Option.map
          (fun idx -> upf.Upf.sessions.(idx))
          (Structures.Cuckoo.lookup (Classifier.table upf.Upf.classifier) key))
      ue_ips
  in
  put_u32 buf (Int32.of_int (List.length entries));
  List.iter
    (fun (s : Traffic.Mgw.session) ->
      put_u32 buf s.Traffic.Mgw.ue_ip;
      put_u32 buf s.Traffic.Mgw.teid)
    entries;
  Buffer.contents buf

let evict_upf (upf : Upf.t) ue_ips =
  List.iter (fun ue_ip -> ignore (Upf.remove_session upf ~ue_ip)) ue_ips

(* All-or-nothing over the admission path: on any rejection the installed
   prefix is torn back out (classifier keys deleted, session slots restored
   to their previous contents, [n_active] rewound). *)
let import_upf (upf : Upf.t) snapshot =
  let count = parse_header ~magic:upf_magic ~entry_bytes:8 snapshot in
  if upf.Upf.n_active + count > Array.length upf.Upf.sessions then
    raise (Bad_snapshot "target UPF session table full");
  let saved_active = upf.Upf.n_active in
  let installed = ref [] in
  let rollback () =
    List.iter
      (fun (ue_ip, idx, old_session) ->
        ignore (Upf.remove_session upf ~ue_ip);
        upf.Upf.sessions.(idx) <- old_session)
      !installed;
    upf.Upf.n_active <- saved_active
  in
  (try
     for i = 0 to count - 1 do
       let off = 9 + (i * 8) in
       let ue_ip = get_u32 snapshot off in
       let teid = get_u32 snapshot (off + 4) in
       let idx = upf.Upf.n_active in
       let old_session = upf.Upf.sessions.(idx) in
       match Upf.install_session upf ~ue_ip ~teid with
       | Ok _ -> installed := (ue_ip, idx, old_session) :: !installed
       | Error _ -> raise (Bad_snapshot "target UPF rejected session")
     done
   with exn ->
     rollback ();
     raise exn);
  count

(* Upsert PFCP sessions: a session already resident under its UE IP is
   left alone (session identity — TEID, PDR shape — is immutable, so the
   update carries nothing new for it); absent sessions are admitted through
   the normal {!Upf.install_session} path. See {!apply_nat}. *)
let apply_upf (upf : Upf.t) snapshot =
  let count = parse_header ~magic:upf_magic ~entry_bytes:8 snapshot in
  for i = 0 to count - 1 do
    let off = 9 + (i * 8) in
    let ue_ip = get_u32 snapshot off in
    let teid = get_u32 snapshot (off + 4) in
    let key = Int64.logand (Int64.of_int32 ue_ip) 0xFFFFFFFFL in
    match Structures.Cuckoo.lookup (Classifier.table upf.Upf.classifier) key with
    | Some _ -> ()
    | None -> (
        match Upf.install_session upf ~ue_ip ~teid with
        | Ok _ -> ()
        | Error _ -> raise (Bad_snapshot "target UPF rejected session"))
  done;
  count
