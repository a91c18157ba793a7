(** Churn-storm chaos scenarios: sustained control-plane and capacity
    pressure (a PFCP session storm and NAT rebalancing churn), each a
    deterministic function of its seed and judged by built-in invariants.
    A storm never raises — uncontained exceptions are caught and reported
    as failures in the {!report}. Overload under the fault plane is not a
    storm: it is [chaos] and [scr] at a saturating [--rate-ppm]. *)

type report = {
  st_name : string;
  st_seed : int;
  st_metrics : (string * int) list;  (** scenario-specific counters *)
  st_failures : string list;  (** empty = the storm held *)
}

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit

(** PFCP session storm: an SMF admits a session universe over real encoded
    PFCP exchanges into a deliberately undersized UPF ([capacity] <
    [universe]), then the {!Traffic.Mgw.churn} generator tears sessions
    down and re-sets them up between data-plane pulls (quiescent
    boundaries under run-to-completion). Checks: capacity never exceeded,
    full-table admissions rejected with [cause_no_resources], bogus
    deletions answered with [cause_session_not_found], drops exactly the
    packets that raced a teardown, encapsulations exactly the live-session
    packets, and the UPF's session count agreeing with the SMF's books. *)
val pfcp_storm :
  ?seed:int -> ?capacity:int -> ?universe:int -> ?packets:int -> ?rate_ppm:int ->
  unit -> report

(** Cuckoo-capacity churn with Migration rebalancing: a dynamic NAT whose
    flow universe is several times its table capacity (the learner's
    [Evict_lru] overflow policy churns entries), then six ping-pong
    rebalancing hops — export every installed mapping, evict, import into
    a twin instance — each hop verified byte-preserving (the re-export
    must equal the snapshot), with a post-rebalance burst proving the
    table still learns. *)
val nat_rebalance_storm :
  ?seed:int -> ?capacity:int -> ?universe:int -> ?packets:int -> unit -> report

(** Both storms at one seed: the PFCP session storm, then the NAT
    rebalance storm. *)
val all : ?seed:int -> unit -> report list
