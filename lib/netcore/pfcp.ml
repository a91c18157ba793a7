(* PFCP-lite (Packet Forwarding Control Protocol, 3GPP TS 29.244) — the N4
   interface the SMF uses to program PFCP sessions, PDRs and FARs into the
   UPF. A reduced but genuine wire format: the real header layout (version,
   S flag, message type, length, SEID, sequence) and nested TLV information
   elements with the standard IE type numbers. *)

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ----- message and IE type numbers (TS 29.244 subset) ----- *)

let msg_session_establishment_request = 50
let msg_session_establishment_response = 51
let msg_session_deletion_request = 54
let msg_session_deletion_response = 55

let ie_create_pdr = 1
let ie_pdi = 2
let ie_create_far = 3
let ie_cause = 19
let ie_precedence = 29
let ie_apply_action = 44
let ie_pdr_id = 56
let ie_fseid = 57
let ie_outer_header_creation = 84
let ie_ue_ip = 93
let ie_far_id = 108

let cause_accepted = 1
let cause_request_rejected = 64
let cause_no_resources = 71
let cause_session_not_found = 66

(* ----- structured view ----- *)

type pdi = { src_port_lo : int; src_port_hi : int; proto : int }

type create_pdr = { pdr_id : int; precedence : int32; pdi : pdi; far_id : int32 }

type create_far = {
  far_id_v : int32;
  forward : bool;
  outer_teid : int32;
  outer_ipv4 : Ipv4.addr;
}

type session_establishment = {
  cp_seid : int64;  (* control-plane F-SEID *)
  cp_addr : Ipv4.addr;
  ue_ip : Ipv4.addr;
  pdrs : create_pdr list;
  fars : create_far list;
}

type message =
  | Establishment_request of session_establishment
  | Establishment_response of { cause : int; up_seid : int64 }
  | Deletion_request  (* SEID in header addresses the session *)
  | Deletion_response of { cause : int }

type packet = { seid : int64; seq : int; payload : message }

(* ----- encoding ----- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let put_u16 b v =
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u24 b v =
  put_u8 b (v lsr 16);
  put_u16 b (v land 0xFFFF)

let put_u32 b (v : int32) =
  let v = Int32.to_int v land 0xFFFFFFFF in
  put_u16 b (v lsr 16);
  put_u16 b (v land 0xFFFF)

let put_u64 b (v : int64) =
  put_u32 b (Int64.to_int32 (Int64.shift_right_logical v 32));
  put_u32 b (Int64.to_int32 v)

(* One TLV IE: type, length, value. *)
let ie b ty body =
  put_u16 b ty;
  put_u16 b (String.length body);
  Buffer.add_string b body

let build body_fn =
  let b = Buffer.create 64 in
  body_fn b;
  Buffer.contents b

let encode_pdi (p : pdi) =
  build (fun b ->
      put_u16 b p.src_port_lo;
      put_u16 b p.src_port_hi;
      put_u8 b p.proto)

let encode_create_pdr (p : create_pdr) =
  build (fun b ->
      ie b ie_pdr_id (build (fun b -> put_u16 b p.pdr_id));
      ie b ie_precedence (build (fun b -> put_u32 b p.precedence));
      ie b ie_pdi (encode_pdi p.pdi);
      ie b ie_far_id (build (fun b -> put_u32 b p.far_id)))

let encode_create_far (f : create_far) =
  build (fun b ->
      ie b ie_far_id (build (fun b -> put_u32 b f.far_id_v));
      ie b ie_apply_action (build (fun b -> put_u8 b (if f.forward then 0x02 else 0x01)));
      ie b ie_outer_header_creation
        (build (fun b ->
             put_u32 b f.outer_teid;
             put_u32 b f.outer_ipv4)))

let msg_type_of = function
  | Establishment_request _ -> msg_session_establishment_request
  | Establishment_response _ -> msg_session_establishment_response
  | Deletion_request -> msg_session_deletion_request
  | Deletion_response _ -> msg_session_deletion_response

let encode (pkt : packet) =
  let body =
    build (fun b ->
        match pkt.payload with
        | Establishment_request e ->
            ie b ie_fseid
              (build (fun b ->
                   put_u64 b e.cp_seid;
                   put_u32 b e.cp_addr));
            ie b ie_ue_ip (build (fun b -> put_u32 b e.ue_ip));
            List.iter (fun p -> ie b ie_create_pdr (encode_create_pdr p)) e.pdrs;
            List.iter (fun f -> ie b ie_create_far (encode_create_far f)) e.fars
        | Establishment_response r ->
            ie b ie_cause (build (fun b -> put_u8 b r.cause));
            ie b ie_fseid
              (build (fun b ->
                   put_u64 b r.up_seid;
                   put_u32 b 0l))
        | Deletion_request -> ()
        | Deletion_response r -> ie b ie_cause (build (fun b -> put_u8 b r.cause)))
  in
  build (fun b ->
      put_u8 b 0x21 (* version 1, S=1 *);
      put_u8 b (msg_type_of pkt.payload);
      put_u16 b (String.length body + 12) (* SEID + seq + spare *);
      put_u64 b pkt.seid;
      put_u24 b pkt.seq;
      put_u8 b 0 (* spare *);
      Buffer.add_string b body)

(* ----- decoding ----- *)

type cursor = { s : string; mutable off : int; stop : int }

let need c n = if c.off + n > c.stop then fail "truncated at offset %d" c.off

let get_u8 c =
  need c 1;
  let v = Char.code c.s.[c.off] in
  c.off <- c.off + 1;
  v

let get_u16 c =
  let hi = get_u8 c in
  (hi lsl 8) lor get_u8 c

let get_u24 c =
  let hi = get_u8 c in
  (hi lsl 16) lor get_u16 c

let get_u32 c : int32 =
  let hi = get_u16 c in
  Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int (get_u16 c))

let get_u64 c : int64 =
  let hi = get_u32 c in
  Int64.logor
    (Int64.shift_left (Int64.of_int32 hi) 32)
    (Int64.logand (Int64.of_int32 (get_u32 c)) 0xFFFFFFFFL)

(* Iterate the TLVs of a grouped IE body. *)
let fold_ies c f acc =
  let acc = ref acc in
  while c.off < c.stop do
    let ty = get_u16 c in
    let len = get_u16 c in
    need c len;
    let sub = { s = c.s; off = c.off; stop = c.off + len } in
    c.off <- c.off + len;
    acc := f !acc ty sub
  done;
  !acc

let decode_pdi c =
  let lo = get_u16 c in
  let hi = get_u16 c in
  let proto = get_u8 c in
  if lo > hi then fail "PDI port range inverted";
  { src_port_lo = lo; src_port_hi = hi; proto }

let decode_create_pdr c =
  let pdr_id = ref None and prec = ref 0l and pdi = ref None and far = ref None in
  ignore
    (fold_ies c
       (fun () ty sub ->
         if ty = ie_pdr_id then pdr_id := Some (get_u16 sub)
         else if ty = ie_precedence then prec := get_u32 sub
         else if ty = ie_pdi then pdi := Some (decode_pdi sub)
         else if ty = ie_far_id then far := Some (get_u32 sub))
       ());
  match (!pdr_id, !pdi, !far) with
  | Some pdr_id, Some pdi, Some far_id -> { pdr_id; precedence = !prec; pdi; far_id }
  | _ -> fail "Create PDR missing mandatory IEs"

let decode_create_far c =
  let far = ref None and fwd = ref false and teid = ref 0l and ip = ref 0l in
  ignore
    (fold_ies c
       (fun () ty sub ->
         if ty = ie_far_id then far := Some (get_u32 sub)
         else if ty = ie_apply_action then fwd := get_u8 sub land 0x02 <> 0
         else if ty = ie_outer_header_creation then begin
           teid := get_u32 sub;
           ip := get_u32 sub
         end)
       ());
  match !far with
  | Some far_id_v -> { far_id_v; forward = !fwd; outer_teid = !teid; outer_ipv4 = !ip }
  | None -> fail "Create FAR missing FAR ID"

let decode (s : string) : packet =
  let c = { s; off = 0; stop = String.length s } in
  let flags = get_u8 c in
  if flags lsr 4 <> 2 then fail "unsupported PFCP version";
  if flags land 0x01 = 0 then fail "S flag required";
  let mt = get_u8 c in
  let len = get_u16 c in
  if len + 4 <> String.length s then fail "length field mismatch";
  let seid = get_u64 c in
  let seq = get_u24 c in
  ignore (get_u8 c) (* spare *);
  let payload =
    if mt = msg_session_establishment_request then begin
      let cp_seid = ref 0L and cp_addr = ref 0l and ue_ip = ref None in
      let pdrs = ref [] and fars = ref [] in
      ignore
        (fold_ies c
           (fun () ty sub ->
             if ty = ie_fseid then begin
               cp_seid := get_u64 sub;
               cp_addr := get_u32 sub
             end
             else if ty = ie_ue_ip then ue_ip := Some (get_u32 sub)
             else if ty = ie_create_pdr then pdrs := decode_create_pdr sub :: !pdrs
             else if ty = ie_create_far then fars := decode_create_far sub :: !fars)
           ());
      match !ue_ip with
      | None -> fail "Establishment Request missing UE IP"
      | Some ue_ip ->
          Establishment_request
            {
              cp_seid = !cp_seid;
              cp_addr = !cp_addr;
              ue_ip;
              pdrs = List.rev !pdrs;
              fars = List.rev !fars;
            }
    end
    else if mt = msg_session_establishment_response then begin
      let cause = ref 0 and up_seid = ref 0L in
      ignore
        (fold_ies c
           (fun () ty sub ->
             if ty = ie_cause then cause := get_u8 sub
             else if ty = ie_fseid then up_seid := get_u64 sub)
           ());
      Establishment_response { cause = !cause; up_seid = !up_seid }
    end
    else if mt = msg_session_deletion_request then Deletion_request
    else if mt = msg_session_deletion_response then begin
      let cause = ref 0 in
      ignore (fold_ies c (fun () ty sub -> if ty = ie_cause then cause := get_u8 sub) ());
      Deletion_response { cause = !cause }
    end
    else fail "unsupported message type %d" mt
  in
  { seid; seq; payload }
