(* Elastic scaling of stateful NFs (§VIII "Separation of Data and Code"):
   per-flow state is decoupled from code, so flows can be exported from one
   instance and imported into another (scale-out, or failover from a state
   snapshot) without breaking connections — for a NAT that means the
   external (ip, port) mapping must survive the move.

   Snapshots use an explicit little-endian wire format (not OCaml
   marshalling): a real system would ship these across machines. Every
   classifier-keyed format is one {!codec}; export, evict, import and apply
   are written once over it. *)

open Gunfu

exception Bad_snapshot of string

(* 5-byte magic, then a u32 entry count; entries are fixed-size from
   offset 9. *)
let header_bytes = 9

let rec has_prefix s p i =
  i = String.length p || (s.[i] = p.[i] && has_prefix s p (i + 1))

(* The validated entry count. *)
let parse_header ~magic ~entry_bytes frame =
  let n = String.length frame in
  if n < header_bytes || not (has_prefix frame magic 0) then
    raise (Bad_snapshot "bad magic");
  let count = Int32.to_int (String.get_int32_le frame 5) in
  if count < 0 || header_bytes + (count * entry_bytes) > n then
    raise (Bad_snapshot "truncated");
  count

type 'nf codec = {
  magic : string;
  entry_bytes : int;
  label : string;
  arena : string;
  classifier : 'nf -> Classifier.t;
  encode : 'nf -> Bytes.t -> int -> int -> unit;
  validate : ('nf -> string -> int -> unit) option;
  decode : 'nf -> string -> int -> int -> unit;
  capacity : 'nf -> int;
  next_free : 'nf -> int;
  set_next_free : 'nf -> int -> unit;
  recycling : 'nf recycling option;
  feed : 'nf -> Fingerprint.t -> int -> unit;
}

and 'nf recycling = {
  free_slots : 'nf -> int list;
  set_free_slots : 'nf -> int list -> unit;
}

let full c = Bad_snapshot (Printf.sprintf "target %s %s full" c.label c.arena)
let table_full c = Bad_snapshot (Printf.sprintf "target %s match table full" c.label)
let table c nf = Classifier.table (c.classifier nf)
let entry c e = header_bytes + (e * c.entry_bytes)

(* ----- the slot allocator: recycled slots first, then the bump region ----- *)

let recycled c nf = match c.recycling with Some r -> r.free_slots nf | None -> []
let headroom c nf = c.capacity nf - c.next_free nf + List.length (recycled c nf)

(* A free slot, or -1. *)
let take c nf =
  match (recycled c nf, c.recycling) with
  | slot :: rest, Some r ->
      r.set_free_slots nf rest;
      slot
  | _ ->
      let slot = c.next_free nf in
      if slot >= c.capacity nf then -1
      else begin
        c.set_next_free nf (slot + 1);
        slot
      end

(* Undo a [take] made since the allocator stood at [mark]; most recent
   first, a recycled slot (below [mark]) goes back to the head of the free
   list it came from. *)
let release c nf ~mark slot =
  (match c.recycling with
  | Some r when slot < mark -> r.set_free_slots nf (slot :: r.free_slots nf)
  | _ -> ());
  c.set_next_free nf mark

(* An evicted key's slot: a recycling NF scrubs it — an all-zero entry
   decodes to an unused slot — and queues it behind the free list. *)
let free c nf slot =
  match c.recycling with
  | Some r ->
      c.decode nf (String.make c.entry_bytes '\000') 0 slot;
      r.set_free_slots nf (r.free_slots nf @ [ slot ])
  | None -> ()

(* ----- the four operations, once ----- *)

let rec put_entries c nf table frame off = function
  | [] -> off
  | flow :: rest ->
      let key = Netcore.Flow.key64 flow in
      let slot = Structures.Cuckoo.find table key in
      if slot < 0 then put_entries c nf table frame off rest
      else begin
        Bytes.set_int64_le frame off key;
        c.encode nf frame off slot;
        put_entries c nf table frame (off + c.entry_bytes) rest
      end

(* One exact-size frame; flows without resident state are skipped. *)
let export c nf flows =
  let frame = Bytes.create (entry c (List.length flows)) in
  Bytes.blit_string c.magic 0 frame 0 5;
  let len = put_entries c nf (table c nf) frame header_bytes flows in
  Bytes.set_int32_le frame 5 (Int32.of_int ((len - header_bytes) / c.entry_bytes));
  if len = Bytes.length frame then Bytes.unsafe_to_string frame
  else Bytes.sub_string frame 0 len

let evict c nf flows =
  let table = table c nf in
  List.iter
    (fun flow ->
      let key = Netcore.Flow.key64 flow in
      let slot = Structures.Cuckoo.find table key in
      if slot >= 0 then begin
        ignore (Structures.Cuckoo.delete table key);
        free c nf slot
      end)
    flows

(* Undo phase one for entries [last] down to 0: each re-pointed key gets
   its prior value back (or leaves), each taken slot is released. Slots
   are released most recent first, which is what lets a free list be
   restored exactly. *)
let rollback c nf table frame slots ~mark last =
  for e = last downto 0 do
    let slot = slots.(2 * e) and prior = slots.((2 * e) + 1) in
    if slot >= 0 && slot <> prior then begin
      let key = String.get_int64_le frame (entry c e) in
      if prior < 0 then ignore (Structures.Cuckoo.delete table key)
      else ignore (Structures.Cuckoo.insert table ~key ~value:prior);
      release c nf ~mark slot
    end
  done

(* Phase one's record, entry e at 2e: the slot it took (-1: none) and the
   value its key held before (-1: absent). One buffer serves every call,
   so the per-record SCR apply allocates none; [install] never re-enters. *)
let phase_one = ref (Array.make 64 (-1))

(* Phase one points every key at its slot, remembering what the key held
   before; phase two writes the payloads. Only phase one can fail, and it
   has touched nothing but the table and the allocator, so a failure
   restores those two and the target is as it was. [upsert] keeps a
   resident key on its slot; otherwise every entry takes a fresh slot. *)
let install ~upsert c nf frame =
  let count = parse_header ~magic:c.magic ~entry_bytes:c.entry_bytes frame in
  if (not upsert) && count > headroom c nf then raise (full c);
  (match c.validate with
  | None -> ()
  | Some validate ->
      for e = 0 to count - 1 do
        validate nf frame (entry c e)
      done);
  let table = table c nf in
  let mark = c.next_free nf in
  if Array.length !phase_one < 2 * count then phase_one := Array.make (2 * count) (-1);
  let slots = !phase_one in
  let e = ref 0 in
  (try
     while !e < count do
       (* The key is read where it lies in the frame, so a steady-state
          apply (every key resident) boxes none. *)
       let off = entry c !e in
       let prior = Structures.Cuckoo.find_string table frame off in
       slots.(2 * !e) <- -1;
       slots.((2 * !e) + 1) <- prior;
       if upsert && prior >= 0 then slots.(2 * !e) <- prior
       else begin
         let slot = take c nf in
         if slot < 0 then raise (full c);
         slots.(2 * !e) <- slot;
         let key = String.get_int64_le frame off in
         if not (Structures.Cuckoo.insert table ~key ~value:slot) then raise (table_full c)
       end;
       incr e
     done
   with exn ->
     rollback c nf table frame slots ~mark !e;
     raise exn);
  for e = 0 to count - 1 do
    c.decode nf frame (entry c e) slots.(2 * e)
  done;
  count

let import c nf frame = install ~upsert:false c nf frame
let apply c nf frame = install ~upsert:true c nf frame

let flow_digest c nf fp flow =
  match Structures.Cuckoo.find (table c nf) (Netcore.Flow.key64 flow) with
  | -1 -> Fingerprint.feed_bool fp false
  | slot ->
      Fingerprint.feed_bool fp true;
      c.feed nf fp slot

(* ----- the formats ----- *)

(* (key u64, external ip u32, external port u16): the mapping that must
   survive the move. Evicted slots are zeroed and recycled onto the free
   list (like {!Nat.expire}), so a NAT that handed flows away can adopt
   flows back later — rebalancing ping-pong. The others bump. *)
let nat : Nat.t codec =
  {
    magic = "GNAT1";
    entry_bytes = 14;
    label = "NAT";
    arena = "mapping table";
    classifier = (fun n -> n.Nat.classifier);
    encode =
      (fun n b off slot ->
        Bytes.set_int32_le b (off + 8) n.Nat.map_ip.(slot);
        Bytes.set_uint16_le b (off + 12) (n.Nat.map_port.(slot) land 0xFFFF));
    validate = None;
    decode =
      (fun n s off slot ->
        n.Nat.map_ip.(slot) <- String.get_int32_le s (off + 8);
        n.Nat.map_port.(slot) <- String.get_uint16_le s (off + 12);
        n.Nat.keys.(slot) <- String.get_int64_le s off);
    capacity = (fun n -> Array.length n.Nat.map_ip);
    next_free = (fun n -> n.Nat.next_free);
    set_next_free = (fun n v -> n.Nat.next_free <- v);
    recycling =
      Some
        {
          free_slots = (fun n -> n.Nat.free_slots);
          set_free_slots = (fun n l -> n.Nat.free_slots <- l);
        };
    feed =
      (fun n fp slot ->
        Fingerprint.feed_int64 fp (Int64.of_int32 n.Nat.map_ip.(slot));
        Fingerprint.feed_int fp n.Nat.map_port.(slot));
  }

(* (key u64, packets u64, bytes u64): a flow's absolute running totals. *)
let monitor : Monitor.t codec =
  {
    magic = "GNMC1";
    entry_bytes = 24;
    label = "monitor";
    arena = "counter table";
    classifier = (fun m -> m.Monitor.classifier);
    encode =
      (fun m b off slot ->
        Bytes.set_int64_le b (off + 8) (Int64.of_int m.Monitor.pkt_count.(slot));
        Bytes.set_int64_le b (off + 16) (Int64.of_int m.Monitor.byte_count.(slot)));
    validate = None;
    decode =
      (fun m s off slot ->
        m.Monitor.pkt_count.(slot) <- Int64.to_int (String.get_int64_le s (off + 8));
        m.Monitor.byte_count.(slot) <- Int64.to_int (String.get_int64_le s (off + 16)));
    capacity = (fun m -> Array.length m.Monitor.pkt_count);
    next_free = (fun m -> m.Monitor.next_free);
    set_next_free = (fun m v -> m.Monitor.next_free <- v);
    recycling = None;
    feed =
      (fun m fp slot ->
        Fingerprint.feed_int fp m.Monitor.pkt_count.(slot);
        Fingerprint.feed_int fp m.Monitor.byte_count.(slot));
  }

let export_monitor nm flows = export monitor nm flows
let apply_monitor nm frame = apply monitor nm frame

(* (key u64, backend u16): the flow's backend pin — re-running Maglev on
   the target could re-balance it elsewhere and break the connection. *)
let lb : Lb.t codec =
  {
    magic = "GNLB1";
    entry_bytes = 10;
    label = "LB";
    arena = "assignment table";
    classifier = (fun l -> l.Lb.classifier);
    encode =
      (fun l b off slot -> Bytes.set_uint16_le b (off + 8) (l.Lb.assignment.(slot) land 0xFFFF));
    validate =
      Some
        (fun l s off ->
          if String.get_uint16_le s (off + 8) >= Array.length l.Lb.backends then
            raise (Bad_snapshot "LB backend index out of range"));
    decode = (fun l s off slot -> l.Lb.assignment.(slot) <- String.get_uint16_le s (off + 8));
    capacity = (fun l -> Array.length l.Lb.assignment);
    next_free = (fun l -> l.Lb.next_free);
    set_next_free = (fun l v -> l.Lb.next_free <- v);
    recycling = None;
    feed = (fun l fp slot -> Fingerprint.feed_int fp l.Lb.assignment.(slot));
  }

(* (key u64, verdict u8): the verdict was decided at admission against the
   *source* instance's policy; re-evaluating on the target (which may run
   a different policy) could flip it mid-connection. *)
let firewall : Firewall.t codec =
  {
    magic = "GNFW1";
    entry_bytes = 9;
    label = "firewall";
    arena = "verdict table";
    classifier = (fun f -> f.Firewall.classifier);
    encode =
      (fun f b off slot -> Bytes.set_uint8 b (off + 8) (Bool.to_int f.Firewall.verdicts.(slot)));
    validate =
      Some
        (fun _ s off ->
          if String.get_uint8 s (off + 8) > 1 then
            raise (Bad_snapshot "firewall verdict out of range"));
    decode = (fun f s off slot -> f.Firewall.verdicts.(slot) <- String.get_uint8 s (off + 8) = 1);
    capacity = (fun f -> Array.length f.Firewall.verdicts);
    next_free = (fun f -> f.Firewall.next_free);
    set_next_free = (fun f v -> f.Firewall.next_free <- v);
    recycling = None;
    feed = (fun f fp slot -> Fingerprint.feed_bool fp f.Firewall.verdicts.(slot));
  }

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
  Buffer.add_int32_le buf (Int32.of_int (List.length entries));
  List.iter
    (fun (s : Traffic.Mgw.session) ->
      Buffer.add_int32_le buf s.Traffic.Mgw.ue_ip;
      Buffer.add_int32_le buf s.Traffic.Mgw.teid)
    entries;
  Buffer.contents buf

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
       let ue_ip = String.get_int32_le snapshot off in
       let teid = String.get_int32_le snapshot (off + 4) in
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
   the normal {!Upf.install_session} path. *)
let apply_upf (upf : Upf.t) snapshot =
  let count = parse_header ~magic:upf_magic ~entry_bytes:8 snapshot in
  for i = 0 to count - 1 do
    let off = 9 + (i * 8) in
    let ue_ip = String.get_int32_le snapshot off in
    let teid = String.get_int32_le snapshot (off + 4) in
    let key = Int64.logand (Int64.of_int32 ue_ip) 0xFFFFFFFFL in
    match Structures.Cuckoo.lookup (Classifier.table upf.Upf.classifier) key with
    | Some _ -> ()
    | None -> (
        match Upf.install_session upf ~ue_ip ~teid with
        | Ok _ -> ()
        | Error _ -> raise (Bad_snapshot "target UPF rejected session"))
  done;
  count
