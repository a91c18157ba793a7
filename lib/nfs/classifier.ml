(* The stateful flow classifier module (Listing 1, Fig 6(b)): a cuckoo-hash
   match module decomposed into get_key / hash_1 / bucket_check_1 /
   key_check_1 / hash_2 / bucket_check_2 / key_check_2 NFActions, exactly
   as in the paper's specification. Bucket lines hold fingerprints and
   value indices; full keys live in a separate key-store line, so each
   probe is two dependent cache-line reads — each its own action whose line
   address is resolved (and hence prefetchable) one step ahead. *)

open Gunfu
open Structures

let spec_text =
  {|
module: flow_classifier
category: StatefulClassifier
parameters:
- header_type
- capacity
transitions:
- Start,packet->get_key
- get_key,get_key_done->hash_1
- hash_1,hash_done->bucket_check_1
- bucket_check_1,bucket_hit->key_check_1
- bucket_check_1,check_failure->hash_2
- key_check_1,MATCH_SUCCESS->End
- key_check_1,check_failure->hash_2
- hash_2,sec_hash_done->bucket_check_2
- bucket_check_2,bucket_hit->key_check_2
- bucket_check_2,MATCH_FAIL->End
- key_check_2,MATCH_SUCCESS->End
- key_check_2,MATCH_FAIL->End
fetching:
  get_key:
  - header
  bucket_check_1:
  - bucket
  key_check_1:
  - key_store
  bucket_check_2:
  - bucket
  key_check_2:
  - key_store
states:
  header: packet
  bucket: match
  key_store: match
|}

let spec = lazy (Spec.module_spec_of_string spec_text)

type t = {
  name : string;
  table : Cuckoo.t;
  key_kind : string;
  key_fn : Nftask.t -> unit;
  header_bytes : int;
}

(* Key extractors: each writes the key into the task's 8-byte key slot,
   where the table probes read it, so no key is boxed. The canonical flow
   identity is used (rewrites earlier in an SFC do not change a flow's
   identity), which is also what makes redundant-matching removal sound:
   every classifier with the same [key_kind] computes the same index for a
   given flow. *)
let five_tuple_key (task : Nftask.t) =
  Netcore.Flow.write_key64 (Nftask.packet_exn task).Netcore.Packet.flow
    task.Nftask.temps.Nftask.key 0

let dst_ip_key (task : Nftask.t) =
  Bytes.set_int64_le task.Nftask.temps.Nftask.key 0
    (Int64.logand
       (Int64.of_int32 (Nftask.packet_exn task).Netcore.Packet.flow.Netcore.Flow.dst_ip)
       0xFFFFFFFFL)

let create layout ~name ~key_kind ~key_fn ~capacity () =
  {
    name;
    table = Cuckoo.create layout ~label:(name ^ ".match") ~capacity ();
    key_kind;
    key_fn;
    header_bytes = 64;
  }

let table t = t.table

(* [shed], plus one when inserting [key -> idx] leaves an entry out. *)
let insert_counting ~policy t shed key idx =
  match Cuckoo.insert_policy t.table ~policy ~key ~value:idx with
  | Cuckoo.Inserted | Cuckoo.Updated -> shed
  | Cuckoo.Evicted _ | Cuckoo.Rejected -> shed + 1

(* Insert [key -> index] pairs. Overflow is a typed, policy-resolved
   condition rather than a crash: the returned count is the number of
   entries that did not survive (rejected new entries under [Drop_new] /
   [Shed_flow], displaced victims under [Evict_lru]) — 0 means every entry
   is resident, as the pre-policy code guaranteed by raising. *)
let populate ?(policy = Cuckoo.Drop_new) t entries =
  List.fold_left (fun shed (key, idx) -> insert_counting ~policy t shed key idx) 0 entries

(* All keys first, into an unboxed buffer, then the inserts: interleaving
   the flow-record reads with the table's scattered probes made a
   131,072-flow populate about 1.5x slower. *)
let populate_flows t flows =
  let n = Array.length flows in
  let keys = Bytes.create (8 * n) in
  Array.iteri (fun i f -> Bytes.set_int64_ne keys (8 * i) (Netcore.Flow.key64 f)) flows;
  let shed = ref 0 in
  for i = 0 to n - 1 do
    shed := insert_counting ~policy:Cuckoo.Drop_new t !shed (Bytes.get_int64_ne keys (8 * i)) i
  done;
  !shed

(* ----- NFActions ----- *)

let get_key_action t =
  Action.make ~kind:Action.Match_action ~base_cycles:12 ~base_instrs:14
    ~name:(t.name ^ ".get_key")
    (fun ctx task ->
      Nf_common.packet_read ctx task ~bytes:t.header_bytes;
      t.key_fn task;
      Event.User "get_key_done")

let hash_action t ~primary =
  let name = if primary then ".hash_1" else ".hash_2" in
  (* Built once: [User] of a non-literal string is a fresh block per call. *)
  let event = Event.User (if primary then "hash_done" else "sec_hash_done") in
  Action.make ~kind:Action.Match_action ~base_cycles:22 ~base_instrs:20
    ~invalidates:[ `Match_addrs ] ~name:(t.name ^ name)
    (fun _ctx task ->
      let key = task.Nftask.temps.Nftask.key in
      let bucket =
        if primary then Cuckoo.hash1 t.table key 0 else Cuckoo.hash2 t.table key 0
      in
      if primary then task.Nftask.temps.Nftask.h1 <- bucket
      else task.Nftask.temps.Nftask.h2 <- bucket;
      Nftask.set_match task ~addr:(Cuckoo.bucket_addr t.table bucket) ~bytes:Cuckoo.bucket_bytes;
      event)

(* Fingerprint scan over the bucket line; on a hit, resolves the key-store
   line for the key_check step. *)
let bucket_check_action t ~primary =
  let name = if primary then ".bucket_check_1" else ".bucket_check_2" in
  Action.make ~kind:Action.Match_action ~base_cycles:10 ~base_instrs:12
    ~invalidates:[ `Match_addrs ] ~name:(t.name ^ name)
    (fun ctx task ->
      Nf_common.match_read ctx task;
      let bucket =
        if primary then task.Nftask.temps.Nftask.h1 else task.Nftask.temps.Nftask.h2
      in
      if Cuckoo.has_candidate t.table ~bucket task.Nftask.temps.Nftask.key 0 then begin
        Nftask.set_match task ~addr:(Cuckoo.key_addr t.table bucket) ~bytes:Cuckoo.bucket_bytes;
        Event.User "bucket_hit"
      end
      else if primary then Event.User "check_failure"
      else Event.Match_fail)

(* Full-key comparison against the key-store line. *)
let key_check_action t ~primary =
  let name = if primary then ".key_check_1" else ".key_check_2" in
  Action.make ~kind:Action.Match_action ~base_cycles:10 ~base_instrs:12
    ~invalidates:[ `Per_flow; `Sub_flow; `Match_addrs ] ~name:(t.name ^ name)
    (fun ctx task ->
      Nf_common.match_read ctx task;
      let bucket =
        if primary then task.Nftask.temps.Nftask.h1 else task.Nftask.temps.Nftask.h2
      in
      let idx = Cuckoo.find_in_bucket t.table ~bucket task.Nftask.temps.Nftask.key 0 in
      if idx >= 0 then begin
        task.Nftask.matched <- idx;
        Event.Match_success
      end
      else if primary then Event.User "check_failure"
      else Event.Match_fail)

let instance t : Compiler.instance =
  {
    Compiler.i_name = t.name;
    i_spec = Lazy.force spec;
    i_actions =
      [
        ("get_key", get_key_action t);
        ("hash_1", hash_action t ~primary:true);
        ("bucket_check_1", bucket_check_action t ~primary:true);
        ("key_check_1", key_check_action t ~primary:true);
        ("hash_2", hash_action t ~primary:false);
        ("bucket_check_2", bucket_check_action t ~primary:false);
        ("key_check_2", key_check_action t ~primary:false);
      ];
    i_bindings =
      [
        ("header", Prefetch.Packet_header t.header_bytes);
        ("bucket", Prefetch.Match_addrs);
        ("key_store", Prefetch.Match_addrs);
      ];
    i_key_kind = Some t.key_kind;
  }
