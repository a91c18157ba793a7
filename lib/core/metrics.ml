(* Per-run measurements: the quantities the paper reports in its figures —
   throughput (Mpps / Gbps), IPC, per-level cache misses per packet, and
   the share of time spent in state access. *)

(* Per-packet latency distribution (cycles from arrival to completion). *)
type latency = {
  l_count : int;
  l_mean : float;
  l_p50 : int;
  l_p90 : int;
  l_p99 : int;
  l_max : int;
}

module Collector = struct
  type t = { mutable samples : int array; mutable n : int }

  let create () = { samples = Array.make 1024 0; n = 0 }

  let record t v =
    if t.n = Array.length t.samples then begin
      let bigger = Array.make (2 * t.n) 0 in
      Array.blit t.samples 0 bigger 0 t.n;
      t.samples <- bigger
    end;
    t.samples.(t.n) <- v;
    t.n <- t.n + 1

  let swap (a : int array) i j =
    let v = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- v

  let median3 (x : int) y z =
    if x < y then (if y < z then y else if x < z then z else x)
    else if x < z then x
    else if y < z then z
    else y

  (* Quickselect: permute [a.(lo..hi)] so that [a.(k)] holds the value a
     sort of that range would put there, with everything left of [k] <= it
     and everything right of it >= it. A three-way partition around a
     median-of-three pivot keeps ties and sorted or reverse-sorted input
     linear. *)
  let rec select (a : int array) lo hi k =
    if lo < hi then begin
      let pivot = median3 a.(lo) a.(lo + ((hi - lo) / 2)) a.(hi) in
      (* [lo, lt) < pivot, [lt, i) = pivot, (gt, hi] > pivot *)
      let lt = ref lo and i = ref lo and gt = ref hi in
      while !i <= !gt do
        let v = a.(!i) in
        if v < pivot then begin
          swap a !lt !i;
          incr lt;
          incr i
        end
        else if v > pivot then begin
          swap a !i !gt;
          decr gt
        end
        else incr i
      done;
      if k < !lt then select a lo (!lt - 1) k
      else if k > !gt then select a (!gt + 1) hi k
    end

  let summarize t =
    let n = t.n in
    if n = 0 then None
    else begin
      let a = Array.sub t.samples 0 n in
      (* Exact nearest-rank: the p-th percentile is the smallest sample
         with at least ceil(p*n/100) samples <= it, i.e. index
         ceil(p*n/100) - 1 of the sorted samples. Each selection narrows
         the next: after selecting rank k, a.(0..k) are the k+1 smallest.
         A later selection permutes a.(0..k), so each value is read as soon
         as it is selected. *)
      let rank p = max 0 ((((p * n) + 99) / 100) - 1) in
      let k99 = rank 99 and k90 = rank 90 and k50 = rank 50 in
      select a 0 (n - 1) k99;
      let p99 = a.(k99) in
      select a 0 k99 k90;
      let p90 = a.(k90) in
      select a 0 k90 k50;
      let p50 = a.(k50) in
      let sum = ref 0 and mx = ref a.(0) in
      for i = 0 to n - 1 do
        let v = a.(i) in
        sum := !sum + v;
        if v > !mx then mx := v
      done;
      Some
        {
          l_count = n;
          l_mean = float_of_int !sum /. float_of_int n;
          l_p50 = p50;
          l_p90 = p90;
          l_p99 = p99;
          l_max = !mx;
        }
    end
end

type run = {
  label : string;
  packets : int;
  drops : int;
  cycles : int;
  instrs : int;
  wire_bytes : int;
  switches : int;  (* NFTask switches (0 for RTC) *)
  mem : Memsim.Memstats.t;
  freq_ghz : float;
  state_cycles : int array;  (* memory cycles per Sref state class *)
  latency : latency option;  (* per-packet latency distribution, if collected *)
  faulted : int;  (* completions quarantined by the fault plane *)
  faults : (string * Fault.reason * int) list;  (* per-NF per-reason taxonomy *)
  degraded : bool;  (* at least one flow was poisoned during the run *)
  imbalance : (float * float) option;
      (* (offered, served) per-core max-to-mean load ratios; [Some] only on
         merged multi-core runs — 1.0 means perfectly balanced, [cores]
         means one core carried everything (skew collapse) *)
}

(* Latency in nanoseconds given the run's clock. *)
let cycles_to_ns r cycles = float_of_int cycles /. r.freq_ghz

let seconds r = float_of_int r.cycles /. (r.freq_ghz *. 1e9)

let mpps r =
  if r.cycles = 0 then 0.0 else float_of_int r.packets /. seconds r /. 1e6

let gbps r =
  if r.cycles = 0 then 0.0
  else float_of_int r.wire_bytes *. 8.0 /. seconds r /. 1e9

(* Aggregate throughput over [cores] replicas, capped at the 100 Gbps line
   rate. *)
let gbps_scaled r ~cores = Float.min 100.0 (gbps r *. float_of_int cores)

let ipc r = if r.cycles = 0 then 0.0 else float_of_int r.instrs /. float_of_int r.cycles

let cycles_per_packet r =
  if r.packets = 0 then 0.0 else float_of_int r.cycles /. float_of_int r.packets

let per_packet r v = if r.packets = 0 then 0.0 else float_of_int v /. float_of_int r.packets

let l1_misses_per_packet r = per_packet r (Memsim.Memstats.l1_misses r.mem)
let l2_misses_per_packet r = per_packet r (Memsim.Memstats.l2_misses r.mem)
let llc_misses_per_packet r = per_packet r (Memsim.Memstats.llc_misses r.mem)

(* Fraction of run time spent waiting on the given state classes. *)
let state_access_share r classes =
  if r.cycles = 0 then 0.0
  else
    let cyc =
      List.fold_left
        (fun acc cls -> acc + r.state_cycles.(Exec_ctx.class_index cls))
        0 classes
    in
    float_of_int cyc /. float_of_int r.cycles

let pp_row ppf r =
  Fmt.pf ppf
    "%-34s pkts=%-8d %6.2f Mpps %7.2f Gbps ipc=%4.2f cyc/pkt=%7.1f \
     L1m/p=%5.2f L2m/p=%5.2f LLCm/p=%5.2f"
    r.label r.packets (mpps r) (gbps r) (ipc r) (cycles_per_packet r)
    (l1_misses_per_packet r) (l2_misses_per_packet r) (llc_misses_per_packet r);
  (* fault columns appear only when the plane actually quarantined work, so
     fault-free output is byte-identical to the pre-plane format *)
  if r.faulted > 0 then
    Fmt.pf ppf " faulted=%d%s" r.faulted (if r.degraded then " DEGRADED" else "");
  (* imbalance columns appear only on merged multi-core runs, so
     single-core output is byte-identical to the pre-imbalance format *)
  match r.imbalance with
  | Some (off, served) -> Fmt.pf ppf " imb=%.2f/%.2f" off served
  | None -> ()

(* Combine per-core fault taxonomies: occurrences add per (nf, reason),
   output sorted like Fault.counts. *)
let merge_faults runs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (nf, reason, n) ->
          let k = (nf, reason) in
          Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        r.faults)
    runs;
  Hashtbl.fold (fun (nf, r) n acc -> (nf, r, n) :: acc) tbl []
  |> List.sort (fun (a, ra, _) (b, rb, _) ->
         match String.compare a b with
         | 0 -> String.compare (Fault.reason_to_key ra) (Fault.reason_to_key rb)
         | c -> c)

(* Per-core max-to-mean load ratio over a run set: offered = packets
   pulled, served = completions that made the wire (packets - drops -
   faulted). 1.0 is perfect balance; [cores] is total skew collapse. *)
let load_imbalance runs =
  let ratio f =
    let loads = List.map (fun r -> float_of_int (max 0 (f r))) runs in
    let total = List.fold_left ( +. ) 0. loads in
    if total <= 0. then 1.0
    else
      let mean = total /. float_of_int (List.length loads) in
      List.fold_left max 0. loads /. mean
  in
  ( ratio (fun r -> r.packets),
    ratio (fun r -> r.packets - r.drops - r.faulted) )

(* Sum of parallel per-core runs (multicore experiments): cycles is the max
   (cores run concurrently), counts add. *)
let merge_parallel = function
  | [] -> invalid_arg "Metrics.merge_parallel: empty"
  | first :: _ as runs ->
      let max_cycles = List.fold_left (fun a r -> max a r.cycles) 0 runs in
      let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
      {
        label = first.label;
        packets = sum (fun r -> r.packets);
        drops = sum (fun r -> r.drops);
        cycles = max_cycles;
        instrs = sum (fun r -> r.instrs);
        wire_bytes = sum (fun r -> r.wire_bytes);
        switches = sum (fun r -> r.switches);
        mem = List.fold_left (fun a r -> Memsim.Memstats.add a r.mem) Memsim.Memstats.zero runs;
        freq_ghz = first.freq_ghz;
        state_cycles =
          Array.init Exec_ctx.n_classes (fun i ->
              List.fold_left (fun a r -> a + r.state_cycles.(i)) 0 runs);
        latency = None;
        faulted = sum (fun r -> r.faulted);
        faults = merge_faults runs;
        degraded = List.exists (fun r -> r.degraded) runs;
        imbalance =
          (match runs with [ _ ] -> first.imbalance | _ -> Some (load_imbalance runs));
      }

(* Chain of sequential legs on one core (the adaptive driver's epochs):
   counts and cycles both add. The fault taxonomy is taken from the last
   leg — with a plane shared across the legs [Fault.counts] is cumulative,
   so the last leg already carries the chain's totals ([?faults]
   overrides when the legs used distinct planes). Latency distributions
   are not merged. *)
let merge_sequential ?label ?faults = function
  | [] -> invalid_arg "Metrics.merge_sequential: empty"
  | first :: _ as runs ->
      let last = List.nth runs (List.length runs - 1) in
      let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
      {
        label = (match label with Some l -> l | None -> first.label);
        packets = sum (fun r -> r.packets);
        drops = sum (fun r -> r.drops);
        cycles = sum (fun r -> r.cycles);
        instrs = sum (fun r -> r.instrs);
        wire_bytes = sum (fun r -> r.wire_bytes);
        switches = sum (fun r -> r.switches);
        mem = List.fold_left (fun a r -> Memsim.Memstats.add a r.mem) Memsim.Memstats.zero runs;
        freq_ghz = first.freq_ghz;
        state_cycles =
          Array.init Exec_ctx.n_classes (fun i ->
              List.fold_left (fun a r -> a + r.state_cycles.(i)) 0 runs);
        latency = None;
        faulted = sum (fun r -> r.faulted);
        faults = (match faults with Some f -> f | None -> last.faults);
        degraded = List.exists (fun r -> r.degraded) runs;
        imbalance = None;
      }

let pp_latency ppf (r : run) =
  match r.latency with
  | None -> Fmt.string ppf "latency: not collected"
  | Some l ->
      Fmt.pf ppf
        "latency (ns): mean=%.0f p50=%.0f p90=%.0f p99=%.0f max=%.0f (%d samples)"
        (cycles_to_ns r (int_of_float l.l_mean))
        (cycles_to_ns r l.l_p50) (cycles_to_ns r l.l_p90) (cycles_to_ns r l.l_p99)
        (cycles_to_ns r l.l_max) l.l_count
