(* A single set-associative cache level with LRU replacement.

   The cache tracks line *presence* only; data contents live on the OCaml
   side of the simulation. Addresses are byte addresses in the simulated
   physical address space; internally everything is keyed by line number
   (addr lsr line_bits).

   Recency is represented by physical order within the set: each set's ways
   are kept sorted MRU-first, with invalid slots compacted at the tail. A
   hit rotates the line to the front; the eviction victim is always the last
   valid way. This is observably identical to timestamp LRU (the tail valid
   way is exactly the least recently touched one) while keeping the metadata
   footprint to a single int array — for a 33 MiB LLC that is the difference
   between the tag store fitting in the host's cache or not, and it is the
   simulator's hottest data. *)

type t = {
  line_bits : int;
  nsets : int;
  set_mask : int;  (* nsets - 1 when nsets is a power of two, else -1 *)
  inv_nsets : float;  (* 1 /. nsets, for the division-free set index *)
  assoc : int;
  tags : int array;  (* nsets * assoc; per set MRU -> LRU, -1 (invalid) at the tail *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable installs : int;
}

let log2_exact name n =
  if n <= 0 then invalid_arg (name ^ ": must be positive");
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  let b = go 0 n in
  if 1 lsl b <> n then invalid_arg (name ^ ": must be a power of two");
  b

let create ~size_bytes ~assoc ~line_bytes =
  let line_bits = log2_exact "line_bytes" line_bytes in
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc * line_bytes";
  let nsets = size_bytes / (assoc * line_bytes) in
  if nsets <= 0 then invalid_arg "Cache.create: zero sets";
  {
    line_bits;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    inv_nsets = 1. /. float_of_int nsets;
    assoc;
    tags = Array.make (nsets * assoc) (-1);
    hits = 0;
    misses = 0;
    evictions = 0;
    installs = 0;
  }

let line_bytes t = 1 lsl t.line_bits
let nsets t = t.nsets
let assoc t = t.assoc
let capacity_bytes t = nsets t * t.assoc * line_bytes t

let line_of_addr t addr = addr lsr t.line_bits

(* [line mod nsets] without a divide. A power of two is a [land]. Otherwise
   (the default 33 MiB 11-way LLC has 49,152 sets) the quotient is
   estimated as [truncate (line *. (1 /. nsets))]. For 0 <= line < 2^50 the
   line converts exactly and the two roundings (of the reciprocal and of
   the product, 2^-53 relative each) leave the product within
   line / nsets * 2^-52 < 1/4 of [line / nsets], so the estimate is off by
   at most one and a single +-nsets correction gives the exact remainder.
   Larger (and negative) lines take the [mod]. This is the simulator's
   innermost loop: every probe and fill of every level goes through
   here. *)
let set_of_line t line =
  if t.set_mask >= 0 then line land t.set_mask
  else if line lsr 50 = 0 then begin
    let r = line - (truncate (float_of_int line *. t.inv_nsets) * t.nsets) in
    if r < 0 then r + t.nsets else if r >= t.nsets then r - t.nsets else r
  end
  else line mod t.nsets

let base t line = set_of_line t line * t.assoc

(* The one scan of a set: the first index in [i, last) holding [line] or
   the invalid marker, else [last]. Invalid slots sit at the tail, so this
   is [line]'s way when present and the end of the valid prefix when
   absent. Top-level and closure-free so that it allocates nothing. *)
let rec scan (tags : int array) line i last =
  if i = last then i
  else
    let tag = tags.(i) in
    if tag = line || tag = -1 then i else scan tags line (i + 1) last

let found (tags : int array) line i last = i < last && tags.(i) = line

let locate_line t line =
  let b = base t line in
  let last = b + t.assoc in
  let i = scan t.tags line b last in
  if found t.tags line i last then i - b else -(i - b + 1)

let contains_line t line = locate_line t line >= 0

let contains t addr = contains_line t (line_of_addr t addr)

(* Rotate [line] (currently at way [i]) to the front of its set: everything
   in [b, i) shifts down one way. This is the move-to-front "touch". A plain
   loop, not [Array.blit]: on a major-heap array the blit goes through
   [caml_modify] per element. *)
let promote (tags : int array) b i line =
  for j = i downto b + 1 do
    tags.(j) <- tags.(j - 1)
  done;
  tags.(b) <- line

(* Demand probe: a tag check that refreshes recency and counts a hit or a
   miss. Returns [1] on hit and [-(valid_ways + 1)] on miss, so a following
   {!fill_line} can install without re-scanning the set. *)
let probe_line t line =
  let b = base t line in
  let last = b + t.assoc in
  let i = scan t.tags line b last in
  if found t.tags line i last then begin
    promote t.tags b i line;
    t.hits <- t.hits + 1;
    1
  end
  else begin
    t.misses <- t.misses + 1;
    -(i - b + 1)
  end

let access_line t line = probe_line t line > 0

let access t addr = access_line t (line_of_addr t addr)

(* Install [line] into a set that {!probe_line} or {!locate_line} just found
   it absent from with [valid_ways] valid entries, with no intervening
   operation on this cache. Identical decision to {!install_line}: a free
   way if one exists, otherwise evict the LRU (tail) way. Returns the
   victim line, or -1. *)
let fill_line t line valid_ways =
  let b = base t line in
  t.installs <- t.installs + 1;
  if valid_ways < t.assoc then begin
    promote t.tags b (b + valid_ways) line;
    -1
  end
  else begin
    let tail = b + t.assoc - 1 in
    let victim = t.tags.(tail) in
    t.evictions <- t.evictions + 1;
    promote t.tags b tail line;
    victim
  end

(* Install a line, evicting the LRU way if the set is full. Returns the line
   number of the victim, or -1. Installing a present line only refreshes
   recency. *)
let install_line t line =
  let w = locate_line t line in
  if w >= 0 then begin
    let b = base t line in
    promote t.tags b (b + w) line;
    -1
  end
  else fill_line t line (-w - 1)

let install t addr =
  let victim = install_line t (line_of_addr t addr) in
  if victim < 0 then None else Some victim

(* Drop the line and compact the valid suffix so invalid slots stay at the
   tail (hole position is unobservable: victim choice depends only on the
   recency order of valid ways, which compaction preserves). *)
let invalidate_line t line =
  let w = locate_line t line in
  if w >= 0 then begin
    let tags = t.tags in
    let b = base t line in
    let last = b + t.assoc in
    let j = ref (b + w) in
    while !j + 1 < last && tags.(!j + 1) <> -1 do
      tags.(!j) <- tags.(!j + 1);
      incr j
    done;
    tags.(!j) <- -1
  end

let invalidate t addr = invalidate_line t (line_of_addr t addr)

let clear t = Array.fill t.tags 0 (Array.length t.tags) (-1)

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let installs t = t.installs

let resident_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags
