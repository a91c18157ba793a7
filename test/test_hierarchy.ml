(* Multi-level hierarchy with MSHRs and asynchronous prefetch — the
   substrate every experiment's numbers rest on. *)

open Memsim

let cfg = Hierarchy.default_config

let small_cfg =
  (* Tiny caches so eviction scenarios are cheap to construct. *)
  {
    cfg with
    Hierarchy.l1_size = 512;
    l1_assoc = 2;
    l2_size = 2048;
    l2_assoc = 2;
    llc_size = 8192;
    llc_assoc = 2;
    mshr_count = 2;
  }

let mk ?(cfg = cfg) () = Hierarchy.create ~cfg ()

let test_cold_read_is_dram () =
  let h = mk () in
  let lat = Hierarchy.read h ~now:0 ~addr:0x10000 ~bytes:8 in
  Alcotest.(check int) "cold read pays DRAM latency" cfg.Hierarchy.lat_dram lat

let test_second_read_is_l1 () =
  let h = mk () in
  ignore (Hierarchy.read h ~now:0 ~addr:0x10000 ~bytes:8);
  let lat = Hierarchy.read h ~now:300 ~addr:0x10000 ~bytes:8 in
  Alcotest.(check int) "second read hits L1" cfg.Hierarchy.lat_l1 lat

let test_l2_hit_after_l1_eviction () =
  let h = mk ~cfg:small_cfg () in
  ignore (Hierarchy.read h ~now:0 ~addr:0 ~bytes:8);
  (* Evict line 0 from the tiny L1 (4 sets x 2 ways): lines 4 and 8 share
     its L1 set but land in different L2 sets (16 sets). *)
  ignore (Hierarchy.read h ~now:0 ~addr:(4 * 64) ~bytes:8);
  ignore (Hierarchy.read h ~now:0 ~addr:(8 * 64) ~bytes:8);
  let lat = Hierarchy.read h ~now:0 ~addr:0 ~bytes:8 in
  Alcotest.(check int) "read served from L2" small_cfg.Hierarchy.lat_l2 lat

let test_multi_line_stream_discount () =
  let h = mk () in
  (* 4 lines cold: first pays full DRAM, the next three pay the stream
     fraction (2/5 of 250 = 100). *)
  let lat = Hierarchy.read h ~now:0 ~addr:0x20000 ~bytes:256 in
  Alcotest.(check int) "streamed block read" (250 + (3 * 100)) lat

let test_lines_of () =
  let h = mk () in
  Alcotest.(check (list int)) "span two lines" [ 0x3F; 0x40 ]
    (Hierarchy.lines_of h ~addr:0xFC0 ~bytes:100);
  Alcotest.(check (list int)) "zero bytes" [] (Hierarchy.lines_of h ~addr:0xFC0 ~bytes:0)

let test_prefetch_then_ready () =
  let h = mk () in
  let issued = Hierarchy.prefetch h ~now:0 ~addr:0x30000 ~bytes:8 in
  Alcotest.(check int) "one fill issued" 1 issued;
  Alcotest.(check bool) "not ready immediately" false
    (Hierarchy.ready h ~now:1 ~addr:0x30000 ~bytes:8);
  Alcotest.(check bool) "ready after DRAM latency" true
    (Hierarchy.ready h ~now:cfg.Hierarchy.lat_dram ~addr:0x30000 ~bytes:8)

let test_prefetch_hides_latency () =
  let h = mk () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x30000 ~bytes:8);
  let lat = Hierarchy.read h ~now:(cfg.Hierarchy.lat_dram + 10) ~addr:0x30000 ~bytes:8 in
  Alcotest.(check int) "completed prefetch -> L1 hit" cfg.Hierarchy.lat_l1 lat

let test_demand_on_inflight_pays_residual () =
  let h = mk () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x30000 ~bytes:8);
  (* Demand read arrives 100 cycles in: waits the remaining 150 + L1. *)
  let lat = Hierarchy.read h ~now:100 ~addr:0x30000 ~bytes:8 in
  Alcotest.(check int) "residual wait" (150 + cfg.Hierarchy.lat_l1) lat;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "mshr wait recorded" 1 c.Memstats.mshr_waits;
  Alcotest.(check int) "wait cycles recorded" 150 c.Memstats.wait_cycles

let test_prefetch_redundant () =
  let h = mk () in
  ignore (Hierarchy.read h ~now:0 ~addr:0x40000 ~bytes:8);
  let issued = Hierarchy.prefetch h ~now:10 ~addr:0x40000 ~bytes:8 in
  Alcotest.(check int) "resident line not re-fetched" 0 issued;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "counted redundant" 1 c.Memstats.prefetch_redundant

let test_prefetch_pending_redundant () =
  let h = mk () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x40000 ~bytes:8);
  let issued = Hierarchy.prefetch h ~now:1 ~addr:0x40000 ~bytes:8 in
  Alcotest.(check int) "in-flight line not re-issued" 0 issued

let test_mshr_exhaustion () =
  let h = mk ~cfg:small_cfg () in
  (* 2 MSHRs: the third concurrent prefetch is dropped. *)
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x50000 ~bytes:8);
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x60000 ~bytes:8);
  let issued = Hierarchy.prefetch h ~now:0 ~addr:0x70000 ~bytes:8 in
  Alcotest.(check int) "dropped when MSHRs busy" 0 issued;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "drop counted" 1 c.Memstats.prefetch_dropped;
  Alcotest.(check int) "two outstanding" 2 (Hierarchy.mshr_pending_count h ~now:0)

let test_mshr_recycled_after_completion () =
  let h = mk ~cfg:small_cfg () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x50000 ~bytes:8);
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x60000 ~bytes:8);
  let issued =
    Hierarchy.prefetch h ~now:(small_cfg.Hierarchy.lat_dram + 1) ~addr:0x70000 ~bytes:8
  in
  Alcotest.(check int) "slot reused after completion" 1 issued

let test_prefetch_eviction_means_not_ready () =
  let h = mk ~cfg:{ small_cfg with Hierarchy.mshr_count = 16 } () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0 ~bytes:8);
  (* Thrash line 0's set in both L1 (4 sets) and L2 (16 sets): multiples of
     line 16 conflict in both. *)
  List.iter
    (fun i -> ignore (Hierarchy.read h ~now:0 ~addr:(i * 16 * 64) ~bytes:8))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "evicted prefetched line is not ready" false
    (Hierarchy.ready h ~now:1000 ~addr:0 ~bytes:8)

let test_llc_prefetch_faster () =
  let h = mk () in
  ignore (Hierarchy.read h ~now:0 ~addr:0x80000 ~bytes:8);
  (* Push it out of L1+L2 but it stays in LLC; then a prefetch completes at
     LLC latency. *)
  Hierarchy.clear h;
  ignore (Cache.install (Hierarchy.llc h) 0x80000);
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x80000 ~bytes:8);
  Alcotest.(check bool) "ready at LLC latency" true
    (Hierarchy.ready h ~now:cfg.Hierarchy.lat_llc ~addr:0x80000 ~bytes:8)

let test_write_counts () =
  let h = mk () in
  ignore (Hierarchy.write h ~now:0 ~addr:0x90000 ~bytes:8);
  let c = Hierarchy.counters h in
  Alcotest.(check int) "write counted" 1 c.Memstats.writes;
  Alcotest.(check int) "write allocates" 1 c.Memstats.dram_fills

let test_counters_diff () =
  let h = mk () in
  ignore (Hierarchy.read h ~now:0 ~addr:0xA0000 ~bytes:8);
  let before = Hierarchy.counters h in
  ignore (Hierarchy.read h ~now:10 ~addr:0xA0000 ~bytes:8);
  let d = Memstats.diff (Hierarchy.counters h) before in
  Alcotest.(check int) "delta accesses" 1 d.Memstats.line_accesses;
  Alcotest.(check int) "delta l1 hits" 1 d.Memstats.l1_hits

let test_memstats_derived () =
  let s =
    {
      Memstats.zero with
      Memstats.line_accesses = 10;
      l1_hits = 6;
      l2_hits = 2;
      llc_hits = 1;
      dram_fills = 1;
      mshr_waits = 0;
    }
  in
  Alcotest.(check int) "l1 misses" 4 (Memstats.l1_misses s);
  Alcotest.(check int) "l2 misses" 2 (Memstats.l2_misses s);
  Alcotest.(check int) "llc misses" 1 (Memstats.llc_misses s);
  Alcotest.(check (float 0.0001)) "hit rate" 0.6 (Memstats.l1_hit_rate s)

let qcheck_read_latency_bounded =
  QCheck.Test.make ~name:"single-line read latency within [L1, DRAM]" ~count:300
    QCheck.(pair (int_bound 100_000) (int_bound 1_000_000))
    (fun (now, addr) ->
      let h = mk () in
      (* one byte: guaranteed single-line regardless of alignment *)
      let lat = Hierarchy.read h ~now ~addr ~bytes:1 in
      lat >= cfg.Hierarchy.lat_l1 && lat <= cfg.Hierarchy.lat_dram)

let qcheck_prefetch_makes_ready =
  QCheck.Test.make ~name:"issued prefetch is ready after DRAM latency" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun addr ->
      let h = mk () in
      ignore (Hierarchy.prefetch h ~now:0 ~addr ~bytes:8);
      Hierarchy.ready h ~now:(cfg.Hierarchy.lat_dram + 1) ~addr ~bytes:8)

(* Appends the final Memstats and each level's counters to [buf] and
   digests it. *)
let digest_of h buf add =
  let c = Hierarchy.counters h in
  List.iter add
    Memstats.
      [
        c.reads; c.writes; c.line_accesses; c.l1_hits; c.l2_hits; c.llc_hits;
        c.dram_fills; c.mshr_waits; c.wait_cycles; c.prefetch_issued;
        c.prefetch_redundant; c.prefetch_dropped; c.mshr_stalls;
      ];
  List.iter
    (fun lvl ->
      List.iter add
        Cache.
          [ hits lvl; misses lvl; evictions lvl; installs lvl; resident_lines lvl ])
    [ Hierarchy.l1 h; Hierarchy.l2 h; Hierarchy.llc h ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Behaviour pin: a seeded mix of reads, writes, prefetches, readiness
   checks and MSHR stalls with time advancing, folded (every returned
   latency, issued count and ready flag, then the final Memstats and each
   level's counters) into one digest. The golden digests were captured
   before the per-level hot path was rewritten to scan each set once, so
   any change to a latency, counter or replacement decision shows up here.
   Addresses mix an L1-sized hot region, an L2-sized warm region, lines in
   a few LLC sets at multiples of its set count (LLC evictions), a 64 GiB
   uniform region and line numbers at or above 2^50. *)
let behaviour_digest cfg =
  let h = Hierarchy.create ~cfg () in
  let rng = Rng.create 2024 in
  let llc_sets = Cache.nsets (Hierarchy.llc h) in
  let buf = Buffer.create (1 lsl 17) in
  let add x =
    Buffer.add_string buf (string_of_int x);
    Buffer.add_char buf ';'
  in
  let addr () =
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> Rng.int rng (16 * 1024)
    | 4 | 5 -> Rng.int rng (512 * 1024)
    | 6 | 7 ->
        let line = Rng.int rng 4 + (Rng.int rng 24 * llc_sets) + (Rng.int rng 3 - 1) in
        (max 0 line * 64) + Rng.int rng 64
    | 8 -> Rng.int rng (1 lsl 36)
    | _ -> (1 lsl 57) + Rng.int rng (1 lsl 20)
  in
  let now = ref 0 in
  for _ = 1 to 20_000 do
    now := !now + Rng.int rng 40;
    let op = Rng.int rng 100 in
    let addr = addr () in
    let bytes = 1 + Rng.int rng 256 in
    let now = !now in
    if op < 40 then add (Hierarchy.read h ~now ~addr ~bytes)
    else if op < 55 then add (Hierarchy.write h ~now ~addr ~bytes)
    else if op < 80 then add (Hierarchy.prefetch h ~now ~addr ~bytes)
    else if op < 98 then add (Bool.to_int (Hierarchy.ready h ~now ~addr ~bytes))
    else add (Hierarchy.stall_mshrs h ~now ~cycles:(Rng.int rng 300))
  done;
  digest_of h buf add

(* Behaviour pin for the MSHR rules, captured before the in-flight filter
   on the MSHR file landed. One step in sixteen moves [now] back by up to
   200 cycles, so in-flight checks see time go backwards past slots that
   completed in between. Re-prefetches (4 in 9) re-issue one of the last
   8 prefetched lines after dropping it from L1 and L2, so a
   completed slot that still names a line meets a second fill of it (only
   the first slot naming a line counts). Pending counts and deadlines are
   folded in as well as every returned latency, count and flag. *)
let mshr_digest cfg =
  let h = Hierarchy.create ~cfg () in
  let rng = Rng.create 2025 in
  let buf = Buffer.create (1 lsl 17) in
  let add x =
    Buffer.add_string buf (string_of_int x);
    Buffer.add_char buf ';'
  in
  let recent = Array.make 8 0 and n_recent = ref 0 in
  let remember addr =
    recent.(!n_recent land 7) <- addr;
    incr n_recent
  in
  let old () = if !n_recent = 0 then 0 else recent.(Rng.int rng (min 8 !n_recent)) in
  let fresh () = Rng.int rng (2 * 1024 * 1024) in
  let now = ref 1000 in
  for _ = 1 to 20_000 do
    (if Rng.int rng 16 = 0 then now := max 0 (!now - Rng.int rng 200)
     else now := !now + Rng.int rng 40);
    let now = !now in
    let op = Rng.int rng 100 in
    let bytes = 1 + Rng.int rng 128 in
    if op < 25 then begin
      let addr = fresh () in
      remember addr;
      add (Hierarchy.prefetch h ~now ~addr ~bytes)
    end
    else if op < 45 then begin
      let addr = old () in
      Cache.invalidate (Hierarchy.l1 h) addr;
      if Rng.int rng 4 > 0 then Cache.invalidate (Hierarchy.l2 h) addr;
      add (Hierarchy.prefetch h ~now ~addr ~bytes)
    end
    else if op < 65 then
      let addr = if Rng.int rng 2 = 0 then old () else fresh () in
      add (Hierarchy.read h ~now ~addr ~bytes)
    else if op < 85 then add (Bool.to_int (Hierarchy.ready h ~now ~addr:(old ()) ~bytes))
    else if op < 98 then begin
      add (Hierarchy.mshr_pending_count h ~now);
      List.iter
        (fun (line, deadline) ->
          add line;
          add deadline)
        (Hierarchy.mshr_deadlines h ~now)
    end
    else add (Hierarchy.stall_mshrs h ~now ~cycles:(Rng.int rng 300))
  done;
  digest_of h buf add

let test_behaviour_digest () =
  Alcotest.(check string) "small_cfg" "0eb39f8480655ef481f85e866d05fc0d"
    (behaviour_digest small_cfg);
  Alcotest.(check string) "default config" "4b51bdefd0183b0b0a4e46c0ac964d8b"
    (behaviour_digest cfg)

let test_mshr_digest () =
  Alcotest.(check string) "small_cfg" "d5db0549799a5e0811de8cc35f5a76f1" (mshr_digest small_cfg);
  Alcotest.(check string) "default config" "3810902f643a7a224766076b6d9b59ef" (mshr_digest cfg)

let suite =
  [
    Alcotest.test_case "cold read = DRAM" `Quick test_cold_read_is_dram;
    Alcotest.test_case "second read = L1" `Quick test_second_read_is_l1;
    Alcotest.test_case "L2 hit after L1 eviction" `Quick test_l2_hit_after_l1_eviction;
    Alcotest.test_case "multi-line stream discount" `Quick test_multi_line_stream_discount;
    Alcotest.test_case "lines_of" `Quick test_lines_of;
    Alcotest.test_case "prefetch then ready" `Quick test_prefetch_then_ready;
    Alcotest.test_case "prefetch hides latency" `Quick test_prefetch_hides_latency;
    Alcotest.test_case "demand on in-flight pays residual" `Quick
      test_demand_on_inflight_pays_residual;
    Alcotest.test_case "redundant prefetch (resident)" `Quick test_prefetch_redundant;
    Alcotest.test_case "redundant prefetch (pending)" `Quick test_prefetch_pending_redundant;
    Alcotest.test_case "MSHR exhaustion drops" `Quick test_mshr_exhaustion;
    Alcotest.test_case "MSHR recycled" `Quick test_mshr_recycled_after_completion;
    Alcotest.test_case "evicted prefetch not ready" `Quick
      test_prefetch_eviction_means_not_ready;
    Alcotest.test_case "LLC-resident prefetch faster" `Quick test_llc_prefetch_faster;
    Alcotest.test_case "write counts" `Quick test_write_counts;
    Alcotest.test_case "counters diff" `Quick test_counters_diff;
    Alcotest.test_case "memstats derived metrics" `Quick test_memstats_derived;
    Alcotest.test_case "seeded op mix matches pinned digest" `Quick test_behaviour_digest;
    Alcotest.test_case "MSHR op mix with time going back matches pinned digest" `Quick
      test_mshr_digest;
    Helpers.qcheck qcheck_read_latency_bounded;
    Helpers.qcheck qcheck_prefetch_makes_ready;
  ]
