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
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.get b i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

(* magic(5) u32 flow/seq/consec + poisoned(1) + u16 count, then per blob
   u16 name length + name + u32 blob length + blob, then u32 checksum. *)
let header_len = 5 + 4 + 4 + 4 + 1 + 2

let encode (r : record) =
  let u32 what v =
    if v < 0 || v > u32_max then
      invalid_arg (Printf.sprintf "Update_log.encode: %s outside the u32 range" what)
  in
  if r.u_flow < 0 then invalid_arg "Update_log.encode: negative flow";
  if r.u_seq <= 0 then invalid_arg "Update_log.encode: sequence must be positive";
  u32 "flow" r.u_flow;
  u32 "sequence" r.u_seq;
  u32 "fault count" r.u_consec;
  let count = List.length r.u_payload in
  if count > 0xFFFF then invalid_arg "Update_log.encode: too many payload blobs";
  let len =
    List.fold_left
      (fun acc (name, blob) ->
        if String.length name > 0xFFFF then invalid_arg "Update_log.encode: NF name too long";
        u32 "blob length" (String.length blob);
        acc + 2 + String.length name + 4 + String.length blob)
      (header_len + 4) r.u_payload
  in
  let b = Bytes.create len in
  Bytes.blit_string magic 0 b 0 5;
  put_u32 b 5 r.u_flow;
  put_u32 b 9 r.u_seq;
  put_u32 b 13 r.u_consec;
  Bytes.set b 17 (if r.u_poisoned then '\001' else '\000');
  put_u16 b 18 count;
  let off =
    List.fold_left
      (fun off (name, blob) ->
        let nl = String.length name and bl = String.length blob in
        put_u16 b off nl;
        Bytes.blit_string name 0 b (off + 2) nl;
        put_u32 b (off + 2 + nl) bl;
        Bytes.blit_string blob 0 b (off + 6 + nl) bl;
        off + 6 + nl + bl)
      header_len r.u_payload
  in
  put_u32 b off (checksum b off);
  Bytes.unsafe_to_string b

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
  let count = get_u16 s 18 in
  let off = ref header_len in
  let payload =
    List.init count (fun _ ->
        if !off + 2 > body_len then raise (Bad_update "truncated");
        let name_len = get_u16 s !off in
        off := !off + 2;
        if !off + name_len + 4 > body_len then raise (Bad_update "truncated");
        let name = String.sub s !off name_len in
        off := !off + name_len;
        let blob_len = get_u32 s !off in
        off := !off + 4;
        if !off + blob_len > body_len then raise (Bad_update "truncated");
        let blob = String.sub s !off blob_len in
        off := !off + blob_len;
        (name, blob))
  in
  if !off <> body_len then raise (Bad_update "trailing bytes");
  if seq <= 0 then raise (Bad_update "bad sequence number");
  { u_flow = flow; u_seq = seq; u_payload = payload; u_consec = consec; u_poisoned = poisoned }

(* ----- per-core append log ----- *)

type t = { mutable entries : record list; mutable n : int }

let create () = { entries = []; n = 0 }

let append t r =
  t.entries <- r :: t.entries;
  t.n <- t.n + 1

let length t = t.n

(* ----- sequence-monotonic application ----- *)

(* An applier tracks each flow's high-water sequence number and hands only
   strictly newer records to [apply] — stale records (already superseded
   by a local completion or a later update) are skipped. Because records
   are absolute, this makes application deterministic and order-insensitive
   across every interleaving that respects per-flow sequence order: each
   flow's state ends at its highest offered sequence number regardless of
   how flows interleave.

   The high-water marks are a flat u32 store with one slot per universe
   flow: a [Bytes] is neither scanned by the GC nor hashed per access, and
   sequence numbers already fit the u32 the GUPD1 frame gives them. Flows
   and sequence numbers the store cannot hold are refused, never
   truncated. *)

type applier = {
  ap_apply : record -> unit;
  ap_universe : int;
  ap_hwm : Bytes.t;  (* 4 bytes per flow: its resident sequence number *)
  mutable ap_applied : int;
  mutable ap_stale : int;
  mutable ap_max_lag : int;  (* largest sequence gap bridged by one apply *)
}

let applier ~universe ~apply =
  if universe < 0 then invalid_arg "Update_log.applier: negative universe";
  {
    ap_apply = apply;
    ap_universe = universe;
    ap_hwm = Bytes.make (4 * universe) '\000';
    ap_applied = 0;
    ap_stale = 0;
    ap_max_lag = 0;
  }

(* Byte offset of [flow]'s slot. *)
let slot ap flow =
  if flow < 0 || flow >= ap.ap_universe then
    invalid_arg (Printf.sprintf "Update_log.applier: flow %d outside [0, %d)" flow ap.ap_universe);
  4 * flow

let check_seq seq =
  if seq > u32_max then
    invalid_arg (Printf.sprintf "Update_log.applier: sequence %d outside the u32 range" seq)

let get_hwm ap off = Int32.to_int (Bytes.get_int32_ne ap.ap_hwm off) land u32_max
let set_hwm ap off seq = Bytes.set_int32_ne ap.ap_hwm off (Int32.of_int seq)
let resident ap flow = get_hwm ap (slot ap flow)

(* A local completion advances the flow's resident sequence without an
   apply (the state was produced in place). *)
let advance ap ~flow ~seq =
  let off = slot ap flow in
  check_seq seq;
  if seq > get_hwm ap off then set_hwm ap off seq

let offer ap (r : record) =
  let off = slot ap r.u_flow in
  check_seq r.u_seq;
  let have = get_hwm ap off in
  if r.u_seq <= have then begin
    ap.ap_stale <- ap.ap_stale + 1;
    false
  end
  else begin
    ap.ap_apply r;
    set_hwm ap off r.u_seq;
    ap.ap_applied <- ap.ap_applied + 1;
    ap.ap_max_lag <- max ap.ap_max_lag (r.u_seq - have);
    true
  end

let applied ap = ap.ap_applied
let stale ap = ap.ap_stale
let max_lag ap = ap.ap_max_lag
