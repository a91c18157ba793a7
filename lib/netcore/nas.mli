(** NAS-lite (TS 24.501 subset): real framing — extended protocol
    discriminator, security header, message type, TLV IEs — so the AMF
    parses its input from actual packet bytes. *)

exception Malformed of string

val mt_registration_request : int
val mt_registration_complete : int
val mt_deregistration_request : int
val mt_service_request : int
val mt_authentication_response : int
val mt_security_mode_complete : int
val mt_ul_nas_transport : int
val mt_periodic_update : int
val mt_context_release : int

type t = { msg_type : int; ue_id : int; payload_len : int }

(** Total bytes {!encode} writes. *)
val encoded_bytes : int

val encode : t -> Bytes.t -> off:int -> unit

(** @raise Malformed on truncation, wrong discriminator or missing IEs. *)
val decode : Bytes.t -> off:int -> t

(** Total decode: malformation is a typed error, never an exception. *)
val decode_result : Bytes.t -> off:int -> (t, string) result
