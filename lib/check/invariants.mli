(** Plane invariants: rules that judge a whole platform-axis run rather
    than one executor's observation. The per-observation rules run inside
    the oracle scan ({!Oracle.check_invariants}). *)

(** {2 Recovery-plane rules}

    Replay-aware conservation across a platform run with a core failure:
    live cores collectively complete [offered + replayed] packets; after
    suppressing replayed duplicates exactly [offered] remain with the
    emit/drop/fault split preserved; and every suppressed duplicate is
    content-identical to the original the dead core already emitted
    (exactly-once emits). [suppressed] pairs each duplicate with the
    victim's original emit ([None] — no original — is itself a
    violation). *)
val check_recovery :
  offered:int ->
  live:(string * Oracle.observation) list ->
  deduped:Oracle.emit list ->
  suppressed:(Oracle.emit * Oracle.emit option) list ->
  Oracle.violation list

(** {2 Telemetry-plane rules}

    Checked on a traced run: the span tree must be well-nested per packet
    (action spans of one unit never overlap; memory spans attributed to a
    unit lie inside one of its action spans — skipped when the ring
    dropped spans), the attributed cycle total can never exceed the run's
    measured cycles, and per-cache-level serve counts must equal the
    run's Memstats delta. Each rule flags a tampered trace. *)

(** All three telemetry rules. [?spans] overrides the span set so tamper
    tests can inject doctored copies (the attribution books are
    unaffected); defaults to [Trace.spans tr]. *)
val check_telemetry :
  ?spans:Gunfu.Trace.span array ->
  Gunfu.Trace.t -> Gunfu.Metrics.run -> Oracle.violation list

(** {2 SCR-plane rules}

    Update-stream conservation for a State-Compute Replication run:
    every flow-bearing completion ([completions]) emitted exactly one
    update record, every broadcast copy (records x [cores - 1] peers) is
    accounted exactly once as applied, coalesced or stale, and after the
    quiescent barrier all replica digests are pairwise equal. *)
val check_scr :
  completions:int -> cores:int -> Scaleout.Scr.result -> Oracle.violation list

(** {2 Adaptive-runtime rules}

    Checked on a closed-loop {!Adaptive.Driver.outcome}: every applied
    move landed at a quiescent boundary (pulled = completed at the
    apply), the decision log's cumulative cycle stamps never regress,
    consecutive decisions chain configurations without gaps (a hold never
    changes the config, and each window starts from the config the
    previous one left), and the bookkeeping matches the log — the
    outcome's move count and the telemetry plane's decision-span count
    both equal what the log records. *)
val check_adaptive : Adaptive.Driver.outcome -> Oracle.violation list
