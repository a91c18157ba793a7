(** Seeded, deterministic fault-injection plans.

    A plan maps (seed, pull index) to an optional {!Gunfu.Fault.injection}
    through a stateless avalanche hash: the same plan armed against two
    runs of the same case produces bit-identical fault schedules, which is
    what lets the differential oracle require zero cross-executor
    divergence *under* injection. *)

type t

val default_rate_ppm : int
(** 10_000 ppm = 1% of pulled packets. *)

val create : ?rate_ppm:int -> seed:int -> unit -> t
(** @raise Invalid_argument when [rate_ppm] is outside [0, 1_000_000]. *)

val rate_ppm : t -> int

val decide : t -> int -> Gunfu.Fault.injection option
(** The injection decided for a pull index — pure, total, stateless. *)

val planned : t -> packets:int -> int
(** Number of injections the plan decides over pull indices
    [0 .. packets-1]. *)

val decide_kill : t -> cores:int -> packets:int -> (int * int) option
(** The [Kill_core] schedule for a platform run: [Some (victim, g)] kills
    core [victim] right after the global pull with index [g] (confined to
    the middle half of [packets]). Deterministic in (seed, cores, packets);
    [None] when [cores < 2] — a lone core has no survivor to adopt its
    flows, matching Kill_core's executor-inertness. *)

val corrupt : t -> index:int -> Netcore.Packet.t -> unit
(** Deterministically mangle a packet (truncate + scribble); exposed for
    the parser-robustness fuzz tests. *)

val arm :
  t -> plane:Gunfu.Fault.t -> index:int -> Netcore.Packet.t -> Gunfu.Fault.injection option
(** Arm one pulled packet at stream index [index]: the decided injection,
    if any, is registered in [plane] keyed by the packet's run-local id,
    and [Corrupt_packet] additionally mangles the packet bytes via
    {!corrupt}. Returns the injection, for journals that must re-arm it. *)

val instrument : t -> plane:Gunfu.Fault.t -> Gunfu.Workload.source -> Gunfu.Workload.source
(** Wrap a source: each pulled packet is {!arm}ed at its pull index. The
    stream's items and order are unchanged. *)
