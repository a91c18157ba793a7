(** Work sources feeding the executors: one item per NF input — a packet
    and/or an auxiliary code (e.g. the AMF message type). Pull-based;
    [None] ends the run. *)

type item = {
  packet : Netcore.Packet.t option;
  aux : int;
  flow_hint : int;  (** flow/session/UE index; used for per-flow ordering *)
}

type source = unit -> item option

(** At most [count] items from a producer. *)
val limited : int -> (unit -> item) -> source

val total_items : item list -> source

(** [tap f src] calls [f] on every item pulled from [src], unchanged —
    deterministic observation of the input stream for replay cross-checks. *)
val tap : (item -> unit) -> source -> source

(** Generic flows (NAT / LB / FW / NM / SFC). *)
val of_flowgen :
  ?arena:Netcore.Packet.Arena.t -> Traffic.Flowgen.t ->
  pool:Netcore.Packet.Pool.pool -> count:int -> source

(** UPF downlink; [flow_hint] is the PFCP session index. *)
val of_mgw_downlink :
  ?arena:Netcore.Packet.Arena.t -> Traffic.Mgw.t ->
  pool:Netcore.Packet.Pool.pool -> count:int -> source

val amf_msg_code : Traffic.Mgw.amf_msg -> int

(** @raise Invalid_argument on unknown codes. *)
val amf_msg_of_code : int -> Traffic.Mgw.amf_msg

(** NAS wire message type for a workload message, and back. *)
val nas_type_of_msg : Traffic.Mgw.amf_msg -> int

val msg_of_nas_type : int -> Traffic.Mgw.amf_msg option

(** Signalling packet for (ue, msg): real headers plus an encoded NAS-lite
    PDU the AMF parses back out of the bytes. *)
val amf_packet :
  ?arena:Netcore.Packet.Arena.t -> ue:int -> msg:Traffic.Mgw.amf_msg -> unit ->
  Netcore.Packet.t

(** AMF signalling; [aux] carries the message code, [flow_hint] the UE. *)
val of_amf :
  ?arena:Netcore.Packet.Arena.t -> Traffic.Mgw.amf_gen ->
  pool:Netcore.Packet.Pool.pool -> count:int -> source
