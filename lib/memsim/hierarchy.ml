(* Multi-level cache hierarchy with MSHR-limited asynchronous prefetch.

   Time is an externally supplied cycle count ([now]); the hierarchy never
   advances time itself. A prefetch installs the line into L1/L2 immediately
   (so it participates in replacement pressure — this is what makes "too many
   interleaved NFTasks" degrade, as in the paper) and records a completion
   time in an MSHR. A demand access that arrives before completion pays the
   residual wait; after completion it is an ordinary L1 hit.

   Multi-line demand accesses model hardware stream-in: the first missing
   line pays the full latency of the level that serves it, subsequent
   contiguous missing lines pay [stream_num/stream_den] of it. *)

type config = {
  l1_size : int;
  l1_assoc : int;
  l2_size : int;
  l2_assoc : int;
  llc_size : int;
  llc_assoc : int;
  line_bytes : int;
  lat_l1 : int;
  lat_l2 : int;
  lat_llc : int;
  lat_dram : int;
  mshr_count : int;
  stream_num : int;
  stream_den : int;
}

(* Latencies in cycles at 2.7 GHz, matching the paper's Xeon 8168 testbed
   discussion in §II-A (L1 ~1.2ns, L2 ~4.1ns, LLC ~13-20ns, DRAM ~70-125ns). *)
let default_config =
  {
    l1_size = 32 * 1024;
    l1_assoc = 8;
    l2_size = 1024 * 1024;
    l2_assoc = 16;
    llc_size = 33 * 1024 * 1024;
    llc_assoc = 11;
    line_bytes = 64;
    lat_l1 = 4;
    lat_l2 = 14;
    lat_llc = 50;
    lat_dram = 250;
    mshr_count = 10;
    stream_num = 2;
    stream_den = 5;
  }

(* Which level served a demand line access (the telemetry plane's
   attribution key). [Served_inflight] means the line was found in an MSHR:
   an earlier prefetch's fill was still in flight and the access paid the
   residual wait. *)
type served = Served_l1 | Served_l2 | Served_llc | Served_dram | Served_inflight

(* Observation tap: called once per demand line access with the access
   start time, the line, the serving level, and the cycles charged (post
   stream discount). Purely observational — installing a tap must not
   change any counter, latency, or replacement decision. *)
type tap = now:int -> line:int -> served:served -> cycles:int -> unit

type t = {
  cfg : config;
  l1 : Cache.t;
  l2 : Cache.t;
  llc : Cache.t;
  line_bits : int;
  mshr_line : int array;   (* -1 = free slot *)
  mshr_ready : int array;
  (* In-flight filter over the MSHR file (see [mshr_inflight]): the bits
     of the lines of the slots in flight at [filter_time], or written
     since; the earliest deadline among them; and the time of the last
     rebuild. *)
  mutable filter : int;
  mutable filter_deadline : int;
  mutable filter_time : int;
  mutable tap : tap option;
  mutable reads : int;
  mutable writes : int;
  mutable line_accesses : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable llc_hits : int;
  mutable dram_fills : int;
  mutable mshr_waits : int;
  mutable wait_cycles : int;
  mutable prefetch_issued : int;
  mutable prefetch_redundant : int;
  mutable prefetch_dropped : int;
  mutable mshr_stalls : int;
}

let log2_exact n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ?(cfg = default_config) () =
  {
    cfg;
    l1 =
      Cache.create ~size_bytes:cfg.l1_size ~assoc:cfg.l1_assoc
        ~line_bytes:cfg.line_bytes;
    l2 =
      Cache.create ~size_bytes:cfg.l2_size ~assoc:cfg.l2_assoc
        ~line_bytes:cfg.line_bytes;
    llc =
      Cache.create ~size_bytes:cfg.llc_size ~assoc:cfg.llc_assoc
        ~line_bytes:cfg.line_bytes;
    line_bits = log2_exact cfg.line_bytes;
    mshr_line = Array.make cfg.mshr_count (-1);
    mshr_ready = Array.make cfg.mshr_count 0;
    filter = 0;
    filter_deadline = max_int;
    filter_time = min_int;
    tap = None;
    reads = 0;
    writes = 0;
    line_accesses = 0;
    l1_hits = 0;
    l2_hits = 0;
    llc_hits = 0;
    dram_fills = 0;
    mshr_waits = 0;
    wait_cycles = 0;
    prefetch_issued = 0;
    prefetch_redundant = 0;
    prefetch_dropped = 0;
    mshr_stalls = 0;
  }

let config t = t.cfg
let set_tap t f = t.tap <- f
let line_bytes t = t.cfg.line_bytes
let l1 t = t.l1
let l2 t = t.l2
let llc t = t.llc

let line_of t addr = addr lsr t.line_bits

(* Lines spanned by [addr, addr+bytes). A zero-byte access touches nothing. *)
let lines_of t ~addr ~bytes =
  if bytes <= 0 then []
  else begin
    let first = line_of t addr in
    let last = line_of t (addr + bytes - 1) in
    let rec go acc l = if l < first then acc else go (l :: acc) (l - 1) in
    go [] last
  end

(* MSHR helpers; slots whose deadline has passed are reclaimed lazily.
   The per-line helpers are top-level and closure-free, and a slot is
   reported as an index (-1 = none), so the hot path allocates nothing. *)

let rec find_slot (lines : int array) line i =
  if i = Array.length lines then -1
  else if lines.(i) = line then i
  else find_slot lines line (i + 1)

let rec free_slot (lines : int array) (ready : int array) now i =
  if i = Array.length lines then -1
  else if lines.(i) = -1 || ready.(i) <= now then i
  else free_slot lines ready now (i + 1)

let mshr_free_slot t ~now = free_slot t.mshr_line t.mshr_ready now 0

(* The in-flight filter. A line's bit is [1 lsl (line land 31)].
   [filter] holds the bits of every slot that was in flight at
   [filter_time] (the last rebuild) plus every slot written since, and
   [filter_deadline] the earliest of their deadlines.

   It is exact for any [now >= filter_time]: a slot in flight at [now]
   either held its current line at the rebuild, and then it was in flight
   there too ([ready > now >= filter_time]), or it was written after it;
   either way its bit is set. So a clear bit proves that no slot naming
   the line is in flight at [now], and in particular not the first one,
   which is the only one [mshr_inflight] may report. A set bit only sends
   the lookup to the slots, where the first-slot rule applies unchanged.
   When [now] is earlier than the rebuild, slots the rebuild dropped can
   be in flight again, so the filter is rebuilt first; it is also rebuilt
   once a counted deadline has passed, so that completed lines leave it.
   Freeing a slot leaves its bit set: a stale bit costs a scan, never a
   wrong answer. Demand-only executors never write a slot, so the filter
   stays empty and every line access skips the scan. *)
let filter_bit line = 1 lsl (line land 31)

let note_slot t i =
  t.filter <- t.filter lor filter_bit t.mshr_line.(i);
  if t.mshr_ready.(i) < t.filter_deadline then t.filter_deadline <- t.mshr_ready.(i)

let rebuild_filter t now =
  t.filter <- 0;
  t.filter_deadline <- max_int;
  t.filter_time <- now;
  for i = 0 to Array.length t.mshr_line - 1 do
    if t.mshr_line.(i) <> -1 && t.mshr_ready.(i) > now then note_slot t i
  done

(* Slot of [line]'s fill if it is still in flight at [now], else -1. Only
   the first slot naming [line] counts: a completed slot can still name a
   line that a later prefetch re-issued into another slot. *)
let mshr_inflight t ~now line =
  if now < t.filter_time || now >= t.filter_deadline then rebuild_filter t now;
  if t.filter land filter_bit line = 0 then -1
  else
    let i = find_slot t.mshr_line line 0 in
    if i >= 0 && t.mshr_ready.(i) > now then i else -1

let mshr_pending_count t ~now =
  let count = ref 0 in
  Array.iteri
    (fun i line -> if line >= 0 && t.mshr_ready.(i) > now then incr count)
    t.mshr_line;
  !count

let mshr_deadlines t ~now =
  let acc = ref [] in
  Array.iteri
    (fun i line -> if line >= 0 && t.mshr_ready.(i) > now then acc := (line, t.mshr_ready.(i)) :: !acc)
    t.mshr_line;
  List.rev !acc

(* Serve one demand line access at time [now]. The result is packed as
   [latency lsl 3 lor served_code] so the per-line hot path allocates
   nothing; the tap (telemetry only) unpacks the code back to {!served}. *)

let served_of_code = function
  | 0 -> Served_l1
  | 1 -> Served_l2
  | 2 -> Served_llc
  | 3 -> Served_dram
  | _ -> Served_inflight

let access_line_coded t ~now line =
  t.line_accesses <- t.line_accesses + 1;
  let slot = mshr_inflight t ~now line in
  if slot >= 0 then begin
    (* The line is in flight from an earlier prefetch: pay the residual. *)
    t.mshr_waits <- t.mshr_waits + 1;
    let wait = t.mshr_ready.(slot) - now in
    t.wait_cycles <- t.wait_cycles + wait;
    t.mshr_line.(slot) <- -1;
    ignore (Cache.install_line t.l1 line);
    ignore (Cache.install_line t.l2 line);
    ((wait + t.cfg.lat_l1) lsl 3) lor 4
  end
  else begin
    (* Each level is probed once; on a miss the probe also reports the
       set's valid-way count so the fill below skips the second scan. *)
    let p1 = Cache.probe_line t.l1 line in
    if p1 > 0 then begin
      t.l1_hits <- t.l1_hits + 1;
      t.cfg.lat_l1 lsl 3
    end
    else begin
      let e1 = -p1 - 1 in
      let p2 = Cache.probe_line t.l2 line in
      if p2 > 0 then begin
        t.l2_hits <- t.l2_hits + 1;
        ignore (Cache.fill_line t.l1 line e1);
        (t.cfg.lat_l2 lsl 3) lor 1
      end
      else begin
        let e2 = -p2 - 1 in
        let p3 = Cache.probe_line t.llc line in
        if p3 > 0 then begin
          t.llc_hits <- t.llc_hits + 1;
          ignore (Cache.fill_line t.l1 line e1);
          ignore (Cache.fill_line t.l2 line e2);
          (t.cfg.lat_llc lsl 3) lor 2
        end
        else begin
          let e3 = -p3 - 1 in
          t.dram_fills <- t.dram_fills + 1;
          ignore (Cache.fill_line t.l1 line e1);
          ignore (Cache.fill_line t.l2 line e2);
          ignore (Cache.fill_line t.llc line e3);
          (t.cfg.lat_dram lsl 3) lor 3
        end
      end
    end
  end

let stream_discount t lat = max t.cfg.lat_l1 (lat * t.cfg.stream_num / t.cfg.stream_den)

(* Iterates the block's lines directly — same order and timing as mapping
   over {!lines_of}, without materialising the list. *)
let access_block t ~now ~addr ~bytes =
  if bytes <= 0 then 0
  else begin
    let first = line_of t addr in
    let last = line_of t (addr + bytes - 1) in
    let total = ref 0 in
    let first_miss_seen = ref false in
    for line = first to last do
      let start = now + !total in
      let coded = access_line_coded t ~now:start line in
      let lat = coded lsr 3 in
      let lat =
        if lat > t.cfg.lat_l1 && !first_miss_seen then stream_discount t lat
        else begin
          if lat > t.cfg.lat_l1 then first_miss_seen := true;
          lat
        end
      in
      (match t.tap with
      | Some f -> f ~now:start ~line ~served:(served_of_code (coded land 7)) ~cycles:lat
      | None -> ());
      total := !total + lat
    done;
    !total
  end

let read t ~now ~addr ~bytes =
  t.reads <- t.reads + 1;
  access_block t ~now ~addr ~bytes

(* Write-allocate, same timing as a read. *)
let write t ~now ~addr ~bytes =
  t.writes <- t.writes + 1;
  access_block t ~now ~addr ~bytes

(* Issue an asynchronous prefetch for every line of the block. Returns the
   number of prefetches actually issued (0 when everything was already
   resident or pending). Lines are installed immediately so they contend for
   cache space from the moment of issue. Each level's set is scanned once:
   the locate that decides "resident?" also yields the fill position, and
   no level is touched between its locate and its fill. *)
let prefetch t ~now ~addr ~bytes =
  if bytes <= 0 then 0
  else begin
    let first = line_of t addr in
    let last = line_of t (addr + bytes - 1) in
    let issued = ref 0 in
    for line = first to last do
      let w1 = Cache.locate_line t.l1 line in
      (* [w2] is only located when L1 misses; it is [w1] otherwise. *)
      let w2 = if w1 < 0 then Cache.locate_line t.l2 line else w1 in
      if w2 >= 0 || mshr_inflight t ~now line >= 0 then
        t.prefetch_redundant <- t.prefetch_redundant + 1
      else begin
        let slot = mshr_free_slot t ~now in
        if slot < 0 then t.prefetch_dropped <- t.prefetch_dropped + 1
        else begin
          let w3 = Cache.locate_line t.llc line in
          let lat =
            if w3 >= 0 then t.cfg.lat_llc
            else begin
              ignore (Cache.fill_line t.llc line (-w3 - 1));
              t.cfg.lat_dram
            end
          in
          ignore (Cache.fill_line t.l2 line (-w2 - 1));
          ignore (Cache.fill_line t.l1 line (-w1 - 1));
          t.mshr_line.(slot) <- line;
          t.mshr_ready.(slot) <- now + lat;
          note_slot t slot;
          t.prefetch_issued <- t.prefetch_issued + 1;
          incr issued
        end
      end
    done;
    !issued
  end

let in_l1_or_l2 t line = Cache.contains_line t.l1 line || Cache.contains_line t.l2 line

let rec lines_ready t now line last =
  line > last
  || mshr_inflight t ~now line < 0 && in_l1_or_l2 t line && lines_ready t now (line + 1) last

(* A block is "ready" when every line is resident in L1 or L2 and no fetch
   for it is still in flight. Prefetched lines that were evicted before use
   therefore report not-ready and must be re-prefetched. *)
let ready t ~now ~addr ~bytes =
  bytes <= 0 || lines_ready t now (line_of t addr) (line_of t (addr + bytes - 1))

let counters t : Memstats.t =
  {
    Memstats.reads = t.reads;
    writes = t.writes;
    line_accesses = t.line_accesses;
    l1_hits = t.l1_hits;
    l2_hits = t.l2_hits;
    llc_hits = t.llc_hits;
    dram_fills = t.dram_fills;
    mshr_waits = t.mshr_waits;
    wait_cycles = t.wait_cycles;
    prefetch_issued = t.prefetch_issued;
    prefetch_redundant = t.prefetch_redundant;
    prefetch_dropped = t.prefetch_dropped;
    mshr_stalls = t.mshr_stalls;
  }

(* Fault-injection hook: occupy every currently-free MSHR slot with a dummy
   in-flight fetch for [cycles] cycles. Dummy line ids sit far above any real
   allocation, so no demand access or readiness check ever matches them; the
   only observable effect is that prefetches issued before the deadline find
   the MSHRs exhausted and are dropped (starvation). Returns the number of
   slots stalled. *)
let stall_mshrs t ~now ~cycles =
  let stalled = ref 0 in
  let n = Array.length t.mshr_line in
  for i = 0 to n - 1 do
    if t.mshr_line.(i) = -1 || t.mshr_ready.(i) <= now then begin
      t.mshr_line.(i) <- max_int - i;
      t.mshr_ready.(i) <- now + cycles;
      note_slot t i;
      incr stalled
    end
  done;
  t.mshr_stalls <- t.mshr_stalls + !stalled;
  !stalled

let clear t =
  Cache.clear t.l1;
  Cache.clear t.l2;
  Cache.clear t.llc;
  Array.fill t.mshr_line 0 (Array.length t.mshr_line) (-1);
  t.filter <- 0;
  t.filter_deadline <- max_int;
  t.filter_time <- min_int
