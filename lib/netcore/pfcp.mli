(** PFCP-lite (3GPP TS 29.244 subset) — the N4 protocol the SMF uses to
    program PFCP sessions, PDRs and FARs into the UPF. Real header layout
    (version/S flag, message type, length, SEID, sequence) and nested TLV
    information elements with standard IE numbers. *)

exception Malformed of string

val cause_accepted : int
val cause_request_rejected : int
val cause_no_resources : int
val cause_session_not_found : int

(** Packet detection info: a source-port interval plus protocol. *)
type pdi = { src_port_lo : int; src_port_hi : int; proto : int }

type create_pdr = { pdr_id : int; precedence : int32; pdi : pdi; far_id : int32 }

type create_far = {
  far_id_v : int32;
  forward : bool;
  outer_teid : int32;  (** GTP-U TEID of the outer header to create *)
  outer_ipv4 : Ipv4.addr;  (** RAN endpoint *)
}

type session_establishment = {
  cp_seid : int64;
  cp_addr : Ipv4.addr;
  ue_ip : Ipv4.addr;
  pdrs : create_pdr list;
  fars : create_far list;
}

type message =
  | Establishment_request of session_establishment
  | Establishment_response of { cause : int; up_seid : int64 }
  | Deletion_request
  | Deletion_response of { cause : int }

type packet = { seid : int64; seq : int; payload : message }

val encode : packet -> string

(** @raise Malformed on truncation, bad version, missing mandatory IEs,
    length mismatches or inverted port ranges. *)
val decode : string -> packet
