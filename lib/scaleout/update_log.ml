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

let get_u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)
let get_u32 s off = get_u16 s off lor (get_u16 s (off + 2) lsl 16)

(* FNV-1a over a byte prefix, folded to 32 bits. *)
let checksum b len =
  let rec go h i =
    if i = len then h
    else go ((h lxor Char.code (Bytes.get b i)) * 0x01000193 land 0xFFFFFFFF) (i + 1)
  in
  go 0x811c9dc5 0

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

let encode (r : record) =
  if r.u_flow < 0 then invalid_arg "Update_log.encode: negative flow";
  if r.u_seq <= 0 then invalid_arg "Update_log.encode: sequence must be positive";
  check_u32 "flow" r.u_flow;
  check_u32 "sequence" r.u_seq;
  check_u32 "fault count" r.u_consec;
  let count = List.length r.u_payload in
  if count > 0xFFFF then invalid_arg "Update_log.encode: too many payload blobs";
  let b = Bytes.create (payload_len (header_len + 4) r.u_payload) in
  Bytes.blit_string magic 0 b 0 5;
  put_u32 b 5 r.u_flow;
  put_u32 b 9 r.u_seq;
  put_u32 b 13 r.u_consec;
  Bytes.set b 17 (if r.u_poisoned then '\001' else '\000');
  put_u16 b 18 count;
  let off = put_payload b header_len r.u_payload in
  put_u32 b off (checksum b off);
  Bytes.unsafe_to_string b

(* The [count] blobs from [off] on, which must end exactly at
   [body_len]. *)
let rec get_payload s ~body_len off count =
  if count = 0 then begin
    if off <> body_len then raise (Bad_update "trailing bytes");
    []
  end
  else begin
    if off + 2 > body_len then raise (Bad_update "truncated");
    let name_len = get_u16 s off in
    if off + 2 + name_len + 4 > body_len then raise (Bad_update "truncated");
    let name = String.sub s (off + 2) name_len in
    let blob_len = get_u32 s (off + 2 + name_len) in
    let blob_off = off + 6 + name_len in
    if blob_off + blob_len > body_len then raise (Bad_update "truncated");
    let blob = String.sub s blob_off blob_len in
    (name, blob) :: get_payload s ~body_len (blob_off + blob_len) (count - 1)
  end

let decode s =
  let n = String.length s in
  if n < header_len + 4 then raise (Bad_update "truncated");
  if not (String.starts_with ~prefix:magic s) then raise (Bad_update "bad magic");
  let body_len = n - 4 in
  if get_u32 s body_len <> checksum (Bytes.unsafe_of_string s) body_len then
    raise (Bad_update "checksum mismatch");
  let flow = get_u32 s 5 in
  let seq = get_u32 s 9 in
  let consec = get_u32 s 13 in
  let poisoned =
    match s.[17] with
    | '\000' -> false
    | '\001' -> true
    | _ -> raise (Bad_update "bad poisoned flag")
  in
  let payload = get_payload s ~body_len header_len (get_u16 s 18) in
  if seq <= 0 then raise (Bad_update "bad sequence number");
  { u_flow = flow; u_seq = seq; u_payload = payload; u_consec = consec; u_poisoned = poisoned }

(* ----- per-core emitted-record count ----- *)

(* Only the count is kept: the records themselves are dead once broadcast,
   and a run of 16,384 items would otherwise hold every decoded record. *)
type t = { mutable n : int }

let create () = { n = 0 }
let append t (_ : record) = t.n <- t.n + 1
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
