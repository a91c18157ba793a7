(* Aggregate counters for a memory hierarchy, snapshot-able so runs can be
   measured as deltas. *)

type t = {
  reads : int;
  writes : int;
  line_accesses : int;
  l1_hits : int;
  l2_hits : int;
  llc_hits : int;
  dram_fills : int;
  mshr_waits : int;          (* demand accesses that hit an in-flight prefetch *)
  wait_cycles : int;         (* cycles stalled waiting on in-flight prefetches *)
  prefetch_issued : int;
  prefetch_redundant : int;  (* line already resident or pending *)
  prefetch_dropped : int;    (* MSHR full, prefetch not issued *)
  mshr_stalls : int;         (* injected MSHR-starvation stalls (fault plane) *)
}

let zero =
  {
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

let diff a b =
  {
    reads = a.reads - b.reads;
    writes = a.writes - b.writes;
    line_accesses = a.line_accesses - b.line_accesses;
    l1_hits = a.l1_hits - b.l1_hits;
    l2_hits = a.l2_hits - b.l2_hits;
    llc_hits = a.llc_hits - b.llc_hits;
    dram_fills = a.dram_fills - b.dram_fills;
    mshr_waits = a.mshr_waits - b.mshr_waits;
    wait_cycles = a.wait_cycles - b.wait_cycles;
    prefetch_issued = a.prefetch_issued - b.prefetch_issued;
    prefetch_redundant = a.prefetch_redundant - b.prefetch_redundant;
    prefetch_dropped = a.prefetch_dropped - b.prefetch_dropped;
    mshr_stalls = a.mshr_stalls - b.mshr_stalls;
  }

let add a b =
  {
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    line_accesses = a.line_accesses + b.line_accesses;
    l1_hits = a.l1_hits + b.l1_hits;
    l2_hits = a.l2_hits + b.l2_hits;
    llc_hits = a.llc_hits + b.llc_hits;
    dram_fills = a.dram_fills + b.dram_fills;
    mshr_waits = a.mshr_waits + b.mshr_waits;
    wait_cycles = a.wait_cycles + b.wait_cycles;
    prefetch_issued = a.prefetch_issued + b.prefetch_issued;
    prefetch_redundant = a.prefetch_redundant + b.prefetch_redundant;
    prefetch_dropped = a.prefetch_dropped + b.prefetch_dropped;
    mshr_stalls = a.mshr_stalls + b.mshr_stalls;
  }

(* Misses at a level = accesses that had to be served deeper. *)
let l1_misses t = t.line_accesses - t.l1_hits
let l2_misses t = l1_misses t - t.l2_hits - t.mshr_waits
let llc_misses t = t.dram_fills

let l1_hit_rate t =
  if t.line_accesses = 0 then 1.0
  else float_of_int t.l1_hits /. float_of_int t.line_accesses
