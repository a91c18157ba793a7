(** Machine-readable bench baselines: a stable JSON schema
    ([gunfu-bench-baseline/1]) for the key series of every bench figure,
    committed as [BENCH_<pr>.json] so future PRs have a perf trajectory to
    diff against. *)

val schema_id : string

type point = { x : float; metrics : (string * float) list }
type series = { s_label : string; points : point list }
type figure = { f_name : string; f_title : string; series : series list }
type t = { pr : string; figures : figure list }

(** The standard metric set of a measured run: mpps, gbps, ipc,
    cycles_per_packet, and per-level misses per packet. *)
val metrics_of_run : Gunfu.Metrics.run -> (string * float) list

val to_string : t -> string
val of_string : string -> (t, string) result
val equal : t -> t -> bool

(** Drift check of [actual] against [expected], exact by default
    ([tolerance] 0.0) or within a relative bound (the CI smoke's relaxed
    mode: values agree when [|e - a| <= tolerance * max |e| |a|]).
    Restricted to the figures present in [actual] so a partial bench run
    checks its slice. [skip] names metrics whose values are host
    wall-clock measurements — their presence is still required, only the
    value comparison is waived. Returns human-readable drift lines
    (empty = clean). *)
val diff :
  ?tolerance:float -> expected:t -> actual:t -> skip:(string -> bool) -> unit ->
  string list

(** {2 Collection during a bench run} *)

(** Accumulates points as figures print their tables; figure and series
    order is insertion order, so the emitted JSON is stable. *)
type collector

val collector : unit -> collector

val record :
  collector -> fig:string -> title:string -> series:string -> x:float ->
  (string * float) list -> unit

val record_run :
  collector -> fig:string -> title:string -> series:string -> x:float ->
  Gunfu.Metrics.run -> unit

val to_baseline : collector -> pr:string -> t
