(** Chrome [trace_event] exporter: turns a {!Gunfu.Trace} ring into the
    JSON Array Format that chrome://tracing and ui.perfetto.dev load
    directly. One thread per NFTask slot (tid 0 = runtime), complete
    ("X") events for spans with duration, instants ("i") for markers,
    counter ("C") events for the occupancy timeline. Timestamps are
    simulated cycles. *)

(** The trace as an indented trace object. Events are sorted by
    (ts, -dur), so timestamps are non-decreasing and enclosing spans
    precede their children. *)
val export_string : Gunfu.Trace.t -> string

(** Parse, then check the structure: a [traceEvents] array whose entries
    carry name/ph/ts, durations non-negative, timestamps non-decreasing in
    array order. Returns the event count. *)
val validate_string : string -> (int, string) result
