(** 5G User Plane Function.

    Downlink handler (Fig 6(f)): UE-IP cuckoo classifier -> PFCP session
    (per-flow) -> MDI-tree PDR matcher (sub-flow) -> FAR application with
    GTP-U encapsulation towards the RAN. PDR trees form a forest: one rule
    shape, session-private node addresses — every lookup pointer-chases
    through that session's own cache lines (EXP A's access pattern).

    Uplink handler (extension beyond the paper's downlink evaluation):
    GTP-U TEID classifier -> session validation -> decapsulation. *)

open Gunfu

val pdr_spec : Spec.module_spec Lazy.t
val encap_spec : Spec.module_spec Lazy.t
val decap_spec : Spec.module_spec Lazy.t

type t = {
  name : string;
  classifier : Classifier.t;  (** downlink: UE IP -> PFCP session *)
  uplink_classifier : Classifier.t;  (** uplink: GTP-U TEID -> PFCP session *)
  session_arena : Structures.State_arena.t;
  pdr_arena : Structures.State_arena.t;
  forest : Structures.Mdi_tree.Forest.forest;
  sessions : Traffic.Mgw.session array;
  n_pdrs : int;
  upf_n3_addr : Netcore.Ipv4.addr;
  ran_addrs : Netcore.Ipv4.addr array;
  mutable encapsulated : int;
  mutable decapsulated : int;
  mutable n_active : int;  (** installed sessions (slots 0..n_active-1) *)
  seid_table : (int64, Netcore.Ipv4.addr) Hashtbl.t;  (** UP F-SEID -> UE IP *)
}

(** @raise Invalid_argument on an empty session array or when
    [n_pdrs < 1]. *)
val create :
  Memsim.Layout.t -> name:string -> sessions:Traffic.Mgw.session array -> n_pdrs:int ->
  unit -> t

(** A UPF with pre-sized capacity and no installed sessions — sessions
    arrive at runtime over PFCP. @raise Invalid_argument when
    [capacity <= 0] or [n_pdrs < 1]. *)
val create_empty :
  Memsim.Layout.t -> name:string -> capacity:int -> n_pdrs:int -> unit -> t

(** Fill both classifiers (UE IP and TEID keys). *)
val populate : t -> unit

(** {2 Runtime session management (the N4 agent)} *)

(** Install a session; [Error cause] with a PFCP cause code on duplicates
    or exhausted capacity. *)
val install_session :
  t -> ue_ip:Netcore.Ipv4.addr -> teid:int32 -> (int, int) result

(** Remove a session by UE IP; [false] when absent. *)
val remove_session : t -> ue_ip:Netcore.Ipv4.addr -> bool

(** The UPF's N4 agent: decode a PFCP request, act on it, return the
    encoded response (malformed requests get a rejection response). *)
val handle_pfcp : t -> string -> string

(** Downlink unit: classifier -> PDR matcher -> encapsulator. *)
val unit : t -> Nf_unit.t

val program : ?opts:Compiler.opts -> t -> Program.t

val uplink_program : ?opts:Compiler.opts -> t -> Program.t

(** Depth of the shared PDR tree (grows with [n_pdrs]). *)
val tree_depth : t -> int
