(* NAS-lite (5GS mobility management, TS 24.501 subset): just enough of the
   real framing that the AMF genuinely parses its input from packet bytes —
   extended protocol discriminator, security header type, message type, and
   a couple of TLV information elements. *)

exception Malformed of string

(* Extended protocol discriminator: 5GS mobility management. *)
let epd_5gmm = 0x7E

(* TS 24.501 message types (AN-release is RAN signalling; it gets a code in
   the reserved space so one codec covers the whole workload). *)
let mt_registration_request = 0x41
let mt_registration_complete = 0x43
let mt_deregistration_request = 0x45
let mt_service_request = 0x4C
let mt_authentication_response = 0x57
let mt_security_mode_complete = 0x5E
let mt_ul_nas_transport = 0x67  (* carries the PDU session request *)
let mt_periodic_update = 0x49  (* registration request, mobility update *)
let mt_context_release = 0x70  (* AN release indication (non-NAS) *)

(* IE tags (invented within the TLV space). *)
let ie_ue_id = 0x01
let ie_payload_len = 0x02

type t = { msg_type : int; ue_id : int; payload_len : int }

let header_bytes = 3

let encode t buf ~off =
  Bytes.set buf off (Char.chr epd_5gmm);
  Bytes.set buf (off + 1) '\x00' (* plain, no security protection *);
  Bytes.set buf (off + 2) (Char.chr (t.msg_type land 0xFF));
  (* UE id TLV: tag, len=4, value. *)
  Bytes.set buf (off + 3) (Char.chr ie_ue_id);
  Bytes.set buf (off + 4) '\x04';
  Bytes.set_int32_be buf (off + 5) (Int32.of_int t.ue_id);
  (* payload length TLV: tag, len=2, value *)
  Bytes.set buf (off + 9) (Char.chr ie_payload_len);
  Bytes.set buf (off + 10) '\x02';
  Bytes.set_uint16_be buf (off + 11) t.payload_len

let encoded_bytes = 13

let decode buf ~off =
  if Bytes.length buf < off + header_bytes then raise (Malformed "truncated header");
  if Char.code (Bytes.get buf off) <> epd_5gmm then
    raise (Malformed "not a 5GMM message");
  let msg_type = Char.code (Bytes.get buf (off + 2)) in
  let ue_id = ref (-1) and payload_len = ref 0 in
  let pos = ref (off + 3) in
  let stop = min (Bytes.length buf) (off + encoded_bytes) in
  while !pos + 2 <= stop do
    let tag = Char.code (Bytes.get buf !pos) in
    let len = Char.code (Bytes.get buf (!pos + 1)) in
    if !pos + 2 + len > stop then raise (Malformed "truncated IE");
    if tag = ie_ue_id && len = 4 then
      ue_id := Int32.to_int (Bytes.get_int32_be buf (!pos + 2)) land 0xFFFFFFFF
    else if tag = ie_payload_len && len = 2 then
      payload_len := Bytes.get_uint16_be buf (!pos + 2);
    pos := !pos + 2 + len
  done;
  if !ue_id < 0 then raise (Malformed "missing UE id IE");
  { msg_type; ue_id = !ue_id; payload_len = !payload_len }

(* Total decode: any malformation (including a negative offset, which the
   raising decode would turn into an out-of-bounds exception) is a typed
   error. *)
let decode_result buf ~off =
  if off < 0 then Error "negative offset"
  else
    match decode buf ~off with
    | t -> Ok t
    | exception Malformed e -> Error e
