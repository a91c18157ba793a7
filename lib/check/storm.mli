(** Churn-storm chaos scenarios: sustained control-plane and capacity
    pressure, each a deterministic function of its seed and judged by
    built-in invariants. A storm never raises — uncontained exceptions are
    caught and reported as failures in the {!report}. *)

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

(** Overload: the full differential-oracle executor matrix and invariant
    battery under a saturating fault plan (default 100,000 ppm). *)
val overload_storm :
  ?seed:int -> ?profile:string -> ?packets:int -> ?rate_ppm:int -> unit -> report

(** State-Compute Replication under overload: two generated programs
    sprayed across [cores] full replicas (seeded spray) with a
    saturating fault plan; requires single-core reference equality,
    replica convergence and update-stream conservation
    ({!Scrcheck.check_rcase}) while the fault plane quarantines roughly
    one packet in ten. Selected by [gunfu_cli storm --model scr]. *)
val scr_storm :
  ?seed:int -> ?packets:int -> ?rate_ppm:int -> ?cores:int -> unit -> report

(** All three storms at one seed. *)
val all : ?seed:int -> unit -> report list
