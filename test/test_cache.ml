(* Set-associative cache level. *)

open Memsim

let mk ?(size = 1024) ?(assoc = 2) ?(line = 64) () =
  Cache.create ~size_bytes:size ~assoc ~line_bytes:line

let test_geometry () =
  let c = mk () in
  Alcotest.(check int) "nsets" 8 (Cache.nsets c);
  Alcotest.(check int) "assoc" 2 (Cache.assoc c);
  Alcotest.(check int) "line bytes" 64 (Cache.line_bytes c);
  Alcotest.(check int) "capacity" 1024 (Cache.capacity_bytes c)

let test_geometry_validation () =
  Alcotest.check_raises "line not power of two"
    (Invalid_argument "line_bytes: must be a power of two") (fun () ->
      ignore (Cache.create ~size_bytes:960 ~assoc:2 ~line_bytes:48));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Cache.create: size not divisible by assoc * line_bytes") (fun () ->
      ignore (Cache.create ~size_bytes:1000 ~assoc:2 ~line_bytes:64))

let test_non_pow2_sets () =
  (* 33 MiB 11-way LLC: 49152 sets, modulo indexing. *)
  let c =
    Cache.create ~size_bytes:(33 * 1024 * 1024) ~assoc:11 ~line_bytes:64
  in
  Alcotest.(check int) "nsets" 49152 (Cache.nsets c);
  ignore (Cache.install c 0x12340);
  Alcotest.(check bool) "installed line present" true (Cache.contains c 0x12340)

let test_miss_then_hit () =
  let c = mk () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x1000);
  ignore (Cache.install c 0x1000);
  Alcotest.(check bool) "hit after install" true (Cache.access c 0x1000);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_same_line_different_offsets () =
  let c = mk () in
  ignore (Cache.install c 0x1000);
  Alcotest.(check bool) "offset within same line hits" true (Cache.access c 0x103F)

let test_lru_eviction () =
  let c = mk ~size:256 ~assoc:2 ~line:64 () in
  (* 2 sets; lines mapping to set 0: line numbers 0, 2, 4... addr = line*64 *)
  ignore (Cache.install c 0);
  (* line 0, set 0 *)
  ignore (Cache.install c (2 * 64));
  (* line 2, set 0; set full *)
  ignore (Cache.access c 0);
  (* make line 0 the MRU *)
  let evicted = Cache.install c (4 * 64) in
  Alcotest.(check (option int)) "LRU victim is line 2" (Some 2) evicted;
  Alcotest.(check bool) "line 0 survives" true (Cache.contains c 0);
  Alcotest.(check bool) "line 2 gone" false (Cache.contains c (2 * 64));
  Alcotest.(check bool) "line 4 present" true (Cache.contains c (4 * 64))

let test_install_refreshes_recency () =
  let c = mk ~size:256 ~assoc:2 ~line:64 () in
  ignore (Cache.install c 0);
  ignore (Cache.install c (2 * 64));
  (* re-install line 0: now MRU; victim should be line 2 *)
  Alcotest.(check (option int)) "reinstall returns no victim" None (Cache.install c 0);
  Alcotest.(check (option int)) "line 2 is LRU" (Some 2) (Cache.install c (4 * 64))

let test_invalid_way_preferred () =
  let c = mk ~size:256 ~assoc:2 ~line:64 () in
  ignore (Cache.install c 0);
  Alcotest.(check (option int)) "no eviction while invalid way exists" None
    (Cache.install c (2 * 64))

let test_sets_isolated () =
  let c = mk ~size:256 ~assoc:2 ~line:64 () in
  (* Fill set 0 beyond capacity: set 1 must be untouched. *)
  ignore (Cache.install c (1 * 64));
  (* set 1 *)
  ignore (Cache.install c 0);
  ignore (Cache.install c (2 * 64));
  ignore (Cache.install c (4 * 64));
  Alcotest.(check bool) "set-1 resident survives set-0 thrash" true (Cache.contains c (1 * 64))

let test_invalidate () =
  let c = mk () in
  ignore (Cache.install c 0x2000);
  Cache.invalidate c 0x2000;
  Alcotest.(check bool) "gone after invalidate" false (Cache.contains c 0x2000)

let test_clear () =
  let c = mk () in
  ignore (Cache.install c 0x2000);
  ignore (Cache.install c 0x4000);
  Cache.clear c;
  Alcotest.(check int) "no resident lines" 0 (Cache.resident_lines c);
  Alcotest.(check bool) "counters preserved" true (Cache.installs c = 2)

let test_resident_lines () =
  let c = mk () in
  ignore (Cache.install c 0);
  ignore (Cache.install c 64);
  ignore (Cache.install c 64);
  (* duplicate *)
  Alcotest.(check int) "two distinct lines" 2 (Cache.resident_lines c)

let test_contains_no_stats () =
  let c = mk () in
  ignore (Cache.install c 0);
  ignore (Cache.contains c 0);
  ignore (Cache.contains c 0x9999);
  Alcotest.(check int) "contains does not count hits" 0 (Cache.hits c);
  Alcotest.(check int) "contains does not count misses" 0 (Cache.misses c)

(* A negative line names no set. It used to read as present on an empty
   power-of-two cache (-1 was also the empty-way marker) and to escape as
   an index error on the 49,152-set LLC; every [*_line] entry point now
   refuses it, and the refusal leaves the cache untouched. *)
let test_negative_line_rejected () =
  let l1 = Cache.create ~size_bytes:(32 * 1024) ~assoc:8 ~line_bytes:64 in
  let llc = Cache.create ~size_bytes:(33 * 1024 * 1024) ~assoc:11 ~line_bytes:64 in
  let refused = Invalid_argument "Cache: negative line number" in
  List.iter
    (fun (geometry, c) ->
      List.iter
        (fun line ->
          List.iter
            (fun (name, f) ->
              Alcotest.check_raises
                (Printf.sprintf "%s: %s %d" geometry name line)
                refused
                (fun () -> ignore (f c line : int)))
            [
              ("contains_line", fun c l -> Bool.to_int (Cache.contains_line c l));
              ("locate_line", Cache.locate_line);
              ("probe_line", Cache.probe_line);
              ("install_line", Cache.install_line);
              ("fill_line", fun c l -> Cache.fill_line c l 0);
            ])
        [ -1; min_int; -(Cache.nsets c) ];
      Alcotest.(check int) (geometry ^ ": nothing counted") 0
        (Cache.hits c + Cache.misses c + Cache.installs c);
      Alcotest.(check int) (geometry ^ ": nothing resident") 0 (Cache.resident_lines c))
    [ ("32 KiB 8-way", l1); ("33 MiB 11-way", llc) ]

let qcheck_capacity_bound =
  QCheck.Test.make ~name:"resident lines never exceed capacity" ~count:100
    QCheck.(list_of_size (Gen.return 200) (int_bound 10_000))
    (fun addrs ->
      let c = mk ~size:512 ~assoc:2 ~line:64 () in
      List.iter (fun a -> ignore (Cache.install c (a * 8))) addrs;
      Cache.resident_lines c <= 8)

let qcheck_install_then_contains =
  QCheck.Test.make ~name:"freshly installed line is resident" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun addr ->
      let c = mk () in
      ignore (Cache.install c addr);
      Cache.contains c addr)

(* Reference model: per-set MRU-first lists indexed by [line mod nsets],
   the textbook LRU that the packed tag array must reproduce. *)
module Reference = struct
  type t = {
    nsets : int;
    assoc : int;
    sets : int list array;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable installs : int;
    mutable resident : int;
  }

  let create ~nsets ~assoc =
    {
      nsets;
      assoc;
      sets = Array.make nsets [];
      hits = 0;
      misses = 0;
      evictions = 0;
      installs = 0;
      resident = 0;
    }

  let set t line = line mod t.nsets
  let lines t line = t.sets.(set t line)
  let mem t line = List.mem line (lines t line)

  let to_front t line =
    t.sets.(set t line) <- line :: List.filter (( <> ) line) (lines t line)

  let access t line =
    if mem t line then begin
      to_front t line;
      t.hits <- t.hits + 1;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      false
    end

  (* Victim line, or -1. *)
  let install t line =
    if mem t line then begin
      to_front t line;
      -1
    end
    else begin
      t.installs <- t.installs + 1;
      let ls = lines t line in
      if List.length ls < t.assoc then begin
        t.resident <- t.resident + 1;
        t.sets.(set t line) <- line :: ls;
        -1
      end
      else begin
        let keep = List.filteri (fun i _ -> i < t.assoc - 1) ls in
        t.evictions <- t.evictions + 1;
        t.sets.(set t line) <- line :: keep;
        List.nth ls (t.assoc - 1)
      end
    end

  let invalidate t line =
    if mem t line then begin
      t.resident <- t.resident - 1;
      t.sets.(set t line) <- List.filter (( <> ) line) (lines t line)
    end

  (* What [Cache.locate_line] must return. *)
  let locate t line =
    let ls = lines t line in
    let rec go i = function
      | [] -> -(List.length ls + 1)
      | l :: rest -> if l = line then i else go (i + 1) rest
    in
    go 0 ls
end

(* Line numbers that stress the set index: near multiples of [nsets] at
   small, large (up to 2^50) and out-of-range (2^50 to 2^55) quotients,
   where a reciprocal-multiply index is most likely to be off by one, plus
   uniform lines below 2^50. Near multiples crowd three sets, so they also
   drive evictions on the 49,152-set geometry. *)
let stress_line rng ~nsets =
  let near q = max 0 ((q * nsets) + Memsim.Rng.int rng 3 - 1) in
  match Memsim.Rng.int rng 4 with
  | 0 -> near (Memsim.Rng.int rng 64)
  | 1 -> near (Memsim.Rng.int rng ((1 lsl 50) / nsets))
  | 2 -> near (((1 lsl 50) / nsets) + Memsim.Rng.int rng ((1 lsl 55) / nsets))
  | _ -> Memsim.Rng.int rng (1 lsl 50)

(* Drive [Cache] and [Reference] with the same seeded operation sequence
   and compare after every operation: the returned hit, way or victim,
   every counter, the touched set's recency order, and (periodically) the
   resident line count. Operations draw from a pool of 48 stress lines so
   sets see reuse, eviction and invalidation. *)
let check_against_reference ~nsets ~assoc ~ops ~seed =
  let line_bytes = 64 in
  let c = Cache.create ~size_bytes:(nsets * assoc * line_bytes) ~assoc ~line_bytes in
  let r = Reference.create ~nsets ~assoc in
  let rng = Memsim.Rng.create seed in
  let pool = Array.init 48 (fun _ -> stress_line rng ~nsets) in
  let geometry = Printf.sprintf "%d sets x %d ways" nsets assoc in
  let fail step what expected got =
    Alcotest.failf "%s, op %d: %s: expected %d, got %d" geometry step what expected got
  in
  let same step what expected got = if expected <> got then fail step what expected got in
  for step = 1 to ops do
    let line =
      if Memsim.Rng.int rng 8 = 0 then stress_line rng ~nsets
      else pool.(Memsim.Rng.int rng (Array.length pool))
    in
    let addr = (line * line_bytes) + Memsim.Rng.int rng line_bytes in
    (match Memsim.Rng.int rng 6 with
    | 0 ->
        same step "access" (Bool.to_int (Reference.access r line))
          (Bool.to_int (Cache.access c addr))
    | 1 ->
        let p = Cache.probe_line c line in
        let hit = Reference.access r line in
        same step "probe hit" (Bool.to_int hit) (Bool.to_int (p > 0));
        if not hit then begin
          same step "probe valid ways" (List.length (Reference.lines r line)) (-p - 1);
          same step "fill victim" (Reference.install r line) (Cache.fill_line c line (-p - 1))
        end
    | 2 ->
        let w = Cache.locate_line c line in
        same step "locate" (Reference.locate r line) w;
        if w < 0 then
          same step "locate+fill victim" (Reference.install r line)
            (Cache.fill_line c line (-w - 1))
    | 3 ->
        let victim = Reference.install r line in
        same step "install victim" victim
          (Option.value ~default:(-1) (Cache.install c addr))
    | 4 ->
        Reference.invalidate r line;
        Cache.invalidate c addr
    | _ ->
        same step "contains" (Bool.to_int (Reference.mem r line))
          (Bool.to_int (Cache.contains c addr)));
    same step "hits" r.Reference.hits (Cache.hits c);
    same step "misses" r.Reference.misses (Cache.misses c);
    same step "evictions" r.Reference.evictions (Cache.evictions c);
    same step "installs" r.Reference.installs (Cache.installs c);
    List.iteri
      (fun i l -> same step (Printf.sprintf "way of line %d" l) i (Cache.locate_line c l))
      (Reference.lines r line);
    same step "locate after op" (Reference.locate r line) (Cache.locate_line c line);
    if step mod 97 = 0 || step = ops then
      same step "resident lines" r.Reference.resident (Cache.resident_lines c)
  done;
  if Cache.hits c = 0 || Cache.evictions c = 0 then
    Alcotest.failf "%s: sequence saw no hit or no eviction" geometry

(* Power-of-two set counts (mask index), 3 * 2^k set counts (reciprocal
   index, the default LLC among them) and 49 and 98 sets: their reciprocals
   round low enough that large exact multiples need the index's +-1
   correction. Direct-mapped and 11-way associativities included. *)
let test_reference_model () =
  List.iteri
    (fun i (nsets, assoc, ops) -> check_against_reference ~nsets ~assoc ~ops ~seed:(17 + i))
    [
      (8, 2, 4000);
      (64, 8, 4000);
      (1, 4, 2000);
      (3, 4, 4000);
      (12, 1, 4000);
      (48, 11, 4000);
      (3 * 1024, 16, 3000);
      (49152, 11, 3000);
      (49, 3, 4000);
      (98, 2, 4000);
    ]

let suite =
  [
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "non-power-of-two sets" `Quick test_non_pow2_sets;
    Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "same line offsets" `Quick test_same_line_different_offsets;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "install refreshes recency" `Quick test_install_refreshes_recency;
    Alcotest.test_case "invalid way preferred" `Quick test_invalid_way_preferred;
    Alcotest.test_case "sets isolated" `Quick test_sets_isolated;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "resident lines" `Quick test_resident_lines;
    Alcotest.test_case "contains is stat-free" `Quick test_contains_no_stats;
    Alcotest.test_case "negative line rejected" `Quick test_negative_line_rejected;
    Alcotest.test_case "matches a reference LRU model" `Quick test_reference_model;
    Helpers.qcheck qcheck_capacity_bound;
    Helpers.qcheck qcheck_install_then_contains;
  ]
