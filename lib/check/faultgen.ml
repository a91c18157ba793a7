(* Seeded, deterministic fault-injection plans.

   A plan is a pure function from (seed, pull index) to an optional
   injection, realised with a splitmix64-style avalanche hash — no mutable
   RNG state, so arming the same plan against two executor runs of the same
   case yields bit-identical schedules regardless of how each executor
   interleaves its work. {!instrument} wraps a {!Gunfu.Workload.source}:
   at pull time it keys the decided injection by the *actual* packet id of
   the pulled packet (ids are run-local — a global counter — so the key
   must be read at pull time, not precomputed), registers it in the run's
   fault plane, and for [Corrupt_packet] also mangles the packet's header
   bytes deterministically so the corruption itself is observable and
   identical across executors. *)

open Gunfu

type t = {
  seed : int;
  rate_ppm : int;  (* injection probability per pulled packet, in ppm *)
}

let default_rate_ppm = 10_000 (* 1% *)

let create ?(rate_ppm = default_rate_ppm) ~seed () =
  if rate_ppm < 0 || rate_ppm > 1_000_000 then
    invalid_arg "Faultgen.create: rate_ppm must be within [0, 1000000]";
  { seed; rate_ppm }

let rate_ppm t = t.rate_ppm

(* splitmix64 finalizer: a full-avalanche bijection on 64 bits. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Independent non-negative draw per (seed, index, salt). *)
let draw t ~index ~salt =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int t.seed) 0x9e3779b97f4a7c15L)
      (Int64.of_int ((index * 0x10001) lxor (salt * 0x5bd1e995)))
  in
  Int64.to_int (Int64.logand (mix64 z) 0x3FFFFFFFFFFFFFFFL)

(* The injection decided for pull index [index], if any. Mix: 40% corrupted
   packets, 40% action faults (countdown 0..2 — every generated program
   runs at least a classifier, so >= 4 guarded actions per packet and the
   countdown always fires), 20% MSHR-starvation stalls. *)
let decide t index =
  if t.rate_ppm = 0 then None
  else if draw t ~index ~salt:0 mod 1_000_000 >= t.rate_ppm then None
  else
    let kind = draw t ~index ~salt:1 mod 10 in
    if kind < 4 then Some Fault.Corrupt_packet
    else if kind < 8 then
      Some
        (Fault.Raise_at
           { countdown = draw t ~index ~salt:2 mod 3; reason = Fault.Action_raise })
    else Some (Fault.Stall_mshrs (100 + (draw t ~index ~salt:3 mod 400)))

(* Deterministically mangle a packet marked [Corrupt_packet]: truncate the
   valid header region below a parseable Eth+IPv4 prefix and scribble over
   the leading bytes. The task never reaches an action (it is quarantined
   at load), but the corrupted bytes are part of the oracle's packet
   fingerprint, so the mangle itself must be a pure function of
   (seed, index, packet). *)
let corrupt t ~index (p : Netcore.Packet.t) =
  let h = draw t ~index ~salt:4 in
  let keep = 4 + (h mod 10) in
  p.Netcore.Packet.hdr_len <- min p.Netcore.Packet.hdr_len keep;
  let n = min (Bytes.length p.Netcore.Packet.buf) 16 in
  for i = 0 to n - 1 do
    Bytes.set p.Netcore.Packet.buf i
      (Char.chr (Char.code (Bytes.get p.Netcore.Packet.buf i) lxor ((h + i) land 0xFF)))
  done

(* Core-kill schedule (the platform-level Kill_core fault class). Chaos
   control, not probability: whenever the platform has a core to spare the
   plan always kills exactly one — the victim core (salt 6) after the
   global pull with index [g] (salt 5), with [g] confined to the middle
   half of the run so the victim has both state to lose and work left to
   redirect. Single-core platforms are never killed (no survivor could
   adopt), matching Kill_core's executor-inertness. *)
let decide_kill t ~cores ~packets =
  if cores < 2 || packets <= 0 then None
  else
    let lo = packets / 4 in
    let span = max 1 ((3 * packets / 4) - lo) in
    let g = lo + (draw t ~index:packets ~salt:5 mod span) in
    let victim = draw t ~index:packets ~salt:6 mod cores in
    Some (victim, g)

(* Count of injections the plan decides over the first [packets] indices —
   what a run offered exactly [packets] pulls will arm. *)
let planned t ~packets =
  let n = ref 0 in
  for i = 0 to packets - 1 do
    if decide t i <> None then incr n
  done;
  !n

(* Arm the plan for one pulled packet: the injection decided at [index],
   if any, is registered in [plane] under the packet's run-local id, and a
   [Corrupt_packet] also mangles the bytes. Every axis arms through here —
   the oracle's source wrapper at the pull index, the platform axes at the
   item's global stream index. *)
let arm t ~plane ~index (p : Netcore.Packet.t) =
  let inj = decide t index in
  (match inj with
  | Some inj ->
      Fault.inject plane ~packet_id:p.Netcore.Packet.id inj;
      (match inj with Fault.Corrupt_packet -> corrupt t ~index p | _ -> ())
  | None -> ());
  inj

let instrument t ~plane (src : Workload.source) : Workload.source =
  let index = ref 0 in
  fun () ->
    match src () with
    | None -> None
    | Some item ->
        let i = !index in
        incr index;
        Option.iter (fun p -> ignore (arm t ~plane ~index:i p)) item.Workload.packet;
        Some item
