(** Mobile-gateway workloads (after the Telco Pipeline Benchmarking System
    MGW use cases): PFCP session / PDR populations with downlink and uplink
    packet streams, and AMF initial-registration message sequences. *)

type session = { ue_ip : Netcore.Ipv4.addr; teid : int32; n_pdrs : int }

type t

val ue_ip_of_index : int -> Netcore.Ipv4.addr
val teid_of_index : int -> int32

(** Source-port interval PDR [pdr] of a session with [n_pdrs] rules
    matches; the intervals partition [1024, 50175].
    @raise Invalid_argument when [pdr] is out of range. *)
val pdr_port_range : n_pdrs:int -> pdr:int -> int * int

(** @raise Invalid_argument on non-positive sizes. *)
val create :
  ?seed:int -> ?popularity:Flowgen.popularity -> ?wire_len:int ->
  n_sessions:int -> n_pdrs:int -> unit -> t

val sessions : t -> session array
val session : t -> int -> session

(** A downlink pull is two draws, in this order: {!next_session} samples
    a session index, then {!downlink} builds that session's packet. No
    tuple is built. *)
val next_session : t -> int

(** Downlink (N6 -> UE) packet towards session [si], hitting a sampled
    PDR (its source port lies in {!pdr_port_range}), as a work item's
    option: with [arena], the recycled slot's stored [Some]. *)
val downlink : ?arena:Netcore.Packet.Arena.t -> t -> int -> Netcore.Packet.t option

(** Uplink (UE -> N6) packet, GTP-U encapsulated by the RAN towards the
    UPF: [(session_idx, packet)]. *)
val next_uplink :
  t -> ran_ip:Netcore.Ipv4.addr -> upf_ip:Netcore.Ipv4.addr -> int * Netcore.Packet.t

(** {2 Session churn storms}

    A seeded teardown/re-setup storm over the session population. Each
    {!churn_next} step flips one session (live -> torn down, or back) with
    probability [rate_ppm] / 1e6, and otherwise emits a plain downlink
    data packet — possibly towards a torn-down session, exercising the
    consumer's session-miss path like traffic racing a PFCP deletion. *)

type churn_event =
  | Churn_teardown of int  (** session index going down *)
  | Churn_setup of int  (** torn-down session coming back *)
  | Churn_data of int * Netcore.Packet.t
      (** [(session_idx, packet)], session possibly down *)

type churn

(** @raise Invalid_argument unless [rate_ppm] is in [0, 1_000_000]. *)
val churn : ?seed:int -> rate_ppm:int -> t -> churn

val churn_next : ?arena:Netcore.Packet.Arena.t -> churn -> churn_event

(** Is session [i] currently set up? *)
val churn_live : churn -> int -> bool

(** Sessions currently torn down. *)
val churn_down_count : churn -> int

(** Total teardown + setup events emitted so far. *)
val churn_events : churn -> int

(** {2 AMF initial-registration call flow} *)

type amf_msg =
  | Registration_request
  | Authentication_response
  | Security_mode_complete
  | Registration_complete
  | Pdu_session_request
  | Service_request  (** idle UE resumes *)
  | Periodic_update  (** periodic registration update *)
  | Context_release  (** AN release: connected -> idle *)
  | Deregistration_request

val amf_msg_name : amf_msg -> string

(** Registration sequence plus the lifecycle messages. *)
val all_amf_msgs : amf_msg list

(** Lifecycle phases, mirrored by the AMF implementation: 0..4 =
    registration-sequence position, then: *)
val phase_connected : int

val phase_idle : int

type amf_gen

val amf_create : ?seed:int -> ?popularity:Flowgen.popularity -> n_ues:int -> unit -> amf_gen

(** Next [(ue, message)], always valid for the UE's current phase: fresh
    UEs walk the registration sequence; registered UEs live a
    connected/idle lifecycle with occasional deregistration. *)
val amf_next : amf_gen -> int * amf_msg
