(* Compact per-flow state-update records — the unit of state the SCR model
   ships between replicas (Xu et al., arXiv 2309.14647) instead of packets.

   A record is an *absolute* snapshot of one flow's observable NF state at
   one per-flow sequence number: the named single-flow export blobs the
   Migration layer already defines (one per stateful NF of the chain), plus
   the fault plane's per-flow containment state, which must follow the flow
   across cores exactly like NF state does. Absoluteness is what buys
   coalescing — applying only the latest pending record for a flow is
   equivalent to applying all of them in sequence order, and re-application
   is idempotent.

   Records are framed on an explicit little-endian wire format ("GUPD1"):
   a real system would ship these across cores via shared rings or across
   machines. Unlike the Migration snapshot formats (fixed-size entries,
   length-checked only), update frames carry variable-length payloads and
   end in an FNV-1a checksum, so both truncation AND in-flight bit flips
   are rejected at decode. *)

exception Bad_update of string

type record = {
  u_flow : int;  (* universe flow id *)
  u_seq : int;  (* per-flow sequence number, 1-based, dense *)
  u_payload : (string * string) list;  (* NF name -> single-flow state blob *)
  u_consec : int;  (* containment: consecutive faults on this flow *)
  u_poisoned : bool;
}

let magic = "GUPD1"

(* ----- little-endian primitives (Migration's framing conventions) ----- *)

let u32_max = 0xFFFF_FFFF

let put_u16 = Bytes.set_uint16_le
let put_u32 b off v =
  put_u16 b off (v land 0xFFFF);
  put_u16 b (off + 2) ((v lsr 16) land 0xFFFF)

let get_u16 = Bytes.get_uint16_le
let get_u32 b off = get_u16 b off lor (get_u16 b (off + 2) lsl 16)

(* FNV-1a over bytes [i, len), folded to 32 bits. *)
let rec fnv b i len h =
  if i = len then h
  else fnv b (i + 1) len ((h lxor Char.code (Bytes.get b i)) * 0x01000193 land 0xFFFFFFFF)

let checksum b len = fnv b 0 len 0x811c9dc5

(* magic(5) u32 flow/seq/consec + poisoned(1) + u16 count, then per blob
   u16 name length + name + u32 blob length + blob, then u32 checksum. *)
let header_len = 5 + 4 + 4 + 4 + 1 + 2

let check_u32 what v =
  if v < 0 || v > u32_max then
    invalid_arg (Printf.sprintf "Update_log.encode: %s outside the u32 range" what)

(* The frame length of [payload] after the header and before the
   checksum, refusing a blob the frame cannot hold. *)
let rec payload_len acc = function
  | [] -> acc
  | (name, blob) :: rest ->
      if String.length name > 0xFFFF then invalid_arg "Update_log.encode: NF name too long";
      check_u32 "blob length" (String.length blob);
      payload_len (acc + 2 + String.length name + 4 + String.length blob) rest

let rec put_payload b off = function
  | [] -> off
  | (name, blob) :: rest ->
      let nl = String.length name and bl = String.length blob in
      put_u16 b off nl;
      Bytes.blit_string name 0 b (off + 2) nl;
      put_u32 b (off + 2 + nl) bl;
      Bytes.blit_string blob 0 b (off + 6 + nl) bl;
      put_payload b (off + 6 + nl + bl) rest

(* The frame length of [r], refusing a field the frame cannot hold. *)
let frame_len (r : record) =
  if r.u_flow < 0 then invalid_arg "Update_log.encode: negative flow";
  if r.u_seq <= 0 then invalid_arg "Update_log.encode: sequence must be positive";
  check_u32 "flow" r.u_flow;
  check_u32 "sequence" r.u_seq;
  check_u32 "fault count" r.u_consec;
  if List.length r.u_payload > 0xFFFF then
    invalid_arg "Update_log.encode: too many payload blobs";
  payload_len (header_len + 4) r.u_payload

(* Write [r]'s frame at the front of [b], which holds [frame_len r]
   bytes or more. *)
let write b (r : record) =
  Bytes.blit_string magic 0 b 0 5;
  put_u32 b 5 r.u_flow;
  put_u32 b 9 r.u_seq;
  put_u32 b 13 r.u_consec;
  Bytes.set b 17 (if r.u_poisoned then '\001' else '\000');
  put_u16 b 18 (List.length r.u_payload);
  let off = put_payload b header_len r.u_payload in
  put_u32 b off (checksum b off)

let encode (r : record) =
  let b = Bytes.create (frame_len r) in
  write b r;
  Bytes.unsafe_to_string b

(* ----- the frame walker, shared by [decode] and the in-place check ----- *)

(* Does [b] hold [s]'s first [len] bytes at [off], from byte [i] on? *)
let rec same_bytes b off s len i =
  i = len || (Bytes.get b (off + i) = String.get s i && same_bytes b off s len (i + 1))

(* Walk the [count] blobs of the frame's first [body_len] bytes from
   [off] on, which must end exactly at [body_len], folding
   [f acc b ~name_off ~name_len ~blob_off ~blob_len] over them in frame
   order. *)
let rec fold_blobs f acc b ~body_len off count =
  if count = 0 then begin
    if off <> body_len then raise (Bad_update "trailing bytes");
    acc
  end
  else begin
    if off + 2 > body_len then raise (Bad_update "truncated");
    let name_len = get_u16 b off in
    if off + 2 + name_len + 4 > body_len then raise (Bad_update "truncated");
    let blob_len = get_u32 b (off + 2 + name_len) in
    let blob_off = off + 6 + name_len in
    if blob_off + blob_len > body_len then raise (Bad_update "truncated");
    let acc = f acc b ~name_off:(off + 2) ~name_len ~blob_off ~blob_len in
    fold_blobs f acc b ~body_len (blob_off + blob_len) (count - 1)
  end

(* Check the framing of [b]'s first [n] bytes — length, magic, checksum,
   poisoned flag and sequence — then fold [f] over its blobs. *)
let walk f acc b n =
  if n < header_len + 4 then raise (Bad_update "truncated");
  if not (same_bytes b 0 magic 5 0) then raise (Bad_update "bad magic");
  let body_len = n - 4 in
  if get_u32 b body_len <> checksum b body_len then raise (Bad_update "checksum mismatch");
  if Bytes.get b 17 > '\001' then raise (Bad_update "bad poisoned flag");
  let acc = fold_blobs f acc b ~body_len header_len (get_u16 b 18) in
  if get_u32 b 9 <= 0 then raise (Bad_update "bad sequence number");
  acc

let cons_blob acc b ~name_off ~name_len ~blob_off ~blob_len =
  (Bytes.sub_string b name_off name_len, Bytes.sub_string b blob_off blob_len) :: acc

let decode s =
  let b = Bytes.unsafe_of_string s in
  let payload = List.rev (walk cons_blob [] b (String.length s)) in
  {
    u_flow = get_u32 b 5;
    u_seq = get_u32 b 9;
    u_payload = payload;
    u_consec = get_u32 b 13;
    u_poisoned = Bytes.get b 17 = '\001';
  }

let mismatch () = raise (Bad_update "frame differs from its record")

(* The record's blobs still to match, after matching the frame's next
   blob against the first of them. *)
let match_blob rest b ~name_off ~name_len ~blob_off ~blob_len =
  match rest with
  | [] -> mismatch ()
  | (name, blob) :: rest ->
      if
        String.length name = name_len
        && same_bytes b name_off name name_len 0
        && String.length blob = blob_len
        && same_bytes b blob_off blob blob_len 0
      then rest
      else mismatch ()

(* Check [b]'s first [n] bytes as a frame, then as [r]'s frame, field by
   field and blob by blob, without building the decoded record. *)
let check_frame b n (r : record) =
  (match walk match_blob r.u_payload b n with [] -> () | _ :: _ -> mismatch ());
  if
    get_u32 b 5 <> r.u_flow
    || get_u32 b 9 <> r.u_seq
    || get_u32 b 13 <> r.u_consec
    || (Bytes.get b 17 = '\001') <> r.u_poisoned
  then mismatch ()

let verify s r = check_frame (Bytes.unsafe_of_string s) (String.length s) r

(* ----- per-core emitted-record count and reused frame ----- *)

(* Only the count and one frame are kept: the records themselves are
   dead once broadcast, and a run of 16,384 items would otherwise hold
   every record. The frame grows to the largest record shipped. *)
type t = { mutable n : int; mutable frame : Bytes.t }

let create () = { n = 0; frame = Bytes.create 64 }

let ship t r =
  let n = frame_len r in
  if Bytes.length t.frame < n then t.frame <- Bytes.create (max n (2 * Bytes.length t.frame));
  write t.frame r;
  check_frame t.frame n r;
  t.n <- t.n + 1

let length t = t.n

(* ----- sequence-monotonic application ----- *)

(* An applier tracks each (flow slot, core) high-water sequence number
   and hands only strictly newer records to [apply] — stale records
   (already superseded by a local completion or a later update) are
   skipped. Because records are absolute, this makes application
   deterministic and order-insensitive across every interleaving that
   respects per-flow sequence order: each flow's state ends at its highest
   offered sequence number regardless of how flows interleave.

   A slot is a dense per-run flow index, not a universe flow id, so the
   store is sized by the flows a run touches. It is one flat u32 store,
   slot-major: a slot's [cores] marks are adjacent, so a broadcast's
   check of every peer, a peer's freshen and the sender's advance read
   one host line. A [Bytes] is neither scanned by the GC nor hashed per
   access, and sequence numbers already fit the u32 the GUPD1 frame gives
   them. Slots, cores and sequence numbers the store cannot hold are
   refused, never truncated. *)

type applier = {
  ap_apply : int -> record -> unit;  (* core, record *)
  ap_slots : int;
  ap_cores : int;
  ap_hwm : Bytes.t;  (* 4 bytes per (slot, core): its resident sequence number *)
  mutable ap_applied : int;
  mutable ap_stale : int;
  mutable ap_max_lag : int;  (* largest sequence gap bridged by one apply *)
}

let applier ~slots ~cores ~apply =
  if slots < 0 then invalid_arg "Update_log.applier: negative slot count";
  if cores <= 0 then invalid_arg "Update_log.applier: cores must be positive";
  {
    ap_apply = apply;
    ap_slots = slots;
    ap_cores = cores;
    ap_hwm = Bytes.make (4 * slots * cores) '\000';
    ap_applied = 0;
    ap_stale = 0;
    ap_max_lag = 0;
  }

(* Byte offset of ([slot], [core])'s mark. *)
let offset ap ~core slot =
  if slot < 0 || slot >= ap.ap_slots then
    invalid_arg (Printf.sprintf "Update_log.applier: slot %d outside [0, %d)" slot ap.ap_slots);
  if core < 0 || core >= ap.ap_cores then
    invalid_arg (Printf.sprintf "Update_log.applier: core %d outside [0, %d)" core ap.ap_cores);
  4 * ((slot * ap.ap_cores) + core)

let check_seq seq =
  if seq > u32_max then
    invalid_arg (Printf.sprintf "Update_log.applier: sequence %d outside the u32 range" seq)

let get_hwm ap off = Int32.to_int (Bytes.get_int32_ne ap.ap_hwm off) land u32_max
let set_hwm ap off seq = Bytes.set_int32_ne ap.ap_hwm off (Int32.of_int seq)
let resident ap ~core slot = get_hwm ap (offset ap ~core slot)

(* A local completion advances the slot's resident sequence without an
   apply (the state was produced in place). *)
let advance ap ~core ~slot ~seq =
  let off = offset ap ~core slot in
  check_seq seq;
  if seq > get_hwm ap off then set_hwm ap off seq

let offer ap ~core ~slot (r : record) =
  let off = offset ap ~core slot in
  check_seq r.u_seq;
  let have = get_hwm ap off in
  if r.u_seq <= have then begin
    ap.ap_stale <- ap.ap_stale + 1;
    false
  end
  else begin
    ap.ap_apply core r;
    set_hwm ap off r.u_seq;
    ap.ap_applied <- ap.ap_applied + 1;
    ap.ap_max_lag <- max ap.ap_max_lag (r.u_seq - have);
    true
  end

let applied ap = ap.ap_applied
let stale ap = ap.ap_stale
let max_lag ap = ap.ap_max_lag
