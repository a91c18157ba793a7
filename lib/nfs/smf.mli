(** SMF-lite: the session management function's N4 side. Builds PFCP
    establishment/deletion requests matching the UPF's PDR shape, drives
    them against a UPF's N4 agent, and tracks established sessions. *)

exception Smf_error of string

type established = {
  up_seid : int64;
  e_ue_ip : Netcore.Ipv4.addr;
  e_teid : int32;
}

type t

val create : unit -> t
val n_established : t -> int

(** The Create PDR / Create FAR set for a session with [n_pdrs] rules. *)
val rules :
  n_pdrs:int -> teid:int32 -> ran_ip:Netcore.Ipv4.addr ->
  Netcore.Pfcp.create_pdr list * Netcore.Pfcp.create_far list

(** An encoded Session Establishment Request. *)
val establishment_request :
  t -> ue_ip:Netcore.Ipv4.addr -> teid:int32 -> n_pdrs:int ->
  ran_ip:Netcore.Ipv4.addr -> string

(** Full establishment exchange; [Error cause] on rejection.
    @raise Smf_error on protocol violations. *)
val establish :
  t -> Upf.t -> ue_ip:Netcore.Ipv4.addr -> teid:int32 -> ran_ip:Netcore.Ipv4.addr ->
  (int64, int) result

(** Full deletion exchange; returns the cause code. *)
val delete : t -> Upf.t -> up_seid:int64 -> int
