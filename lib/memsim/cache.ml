(* A single set-associative cache level with LRU replacement.

   The cache tracks line *presence* only; data contents live on the OCaml
   side of the simulation. Addresses are byte addresses in the simulated
   physical address space; internally everything is keyed by line number
   (addr lsr line_bits).

   Recency is represented by physical order within the set: each set is a
   count word followed by its ways, and the first [count] ways are the
   valid lines sorted MRU-first. A hit rotates the line to the front; the
   eviction victim is always the last valid way. This is observably
   identical to timestamp LRU (the tail valid way is exactly the least
   recently touched one) while keeping the metadata footprint to a single
   int array — for a 33 MiB LLC that is the difference between the tag
   store fitting in the host's cache or not, and it is the simulator's
   hottest data.

   Invariant: for the set at [b], [0 <= tags.(b) <= assoc], and the ways
   [b + 1 .. b + tags.(b)] hold distinct non-negative lines of that set.
   Ways past the count hold stale values that nothing reads, so a scan
   compares the line against valid ways only and needs no sentinel. [b]
   is a set index times [stride], and every index a scan or a shift
   touches lies in [b + 1 .. b + assoc], so all of them are inside the
   array: that is what the unchecked accesses below rely on. *)

type t = {
  line_bits : int;
  nsets : int;
  set_mask : int;  (* nsets - 1 when nsets is a power of two, else -1 *)
  inv_nsets : float;  (* 1 /. nsets, for the division-free set index *)
  assoc : int;
  stride : int;  (* assoc + 1: the count word, then the ways *)
  tags : int array;  (* nsets * stride; per set: count, then MRU -> LRU *)
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
    stride = assoc + 1;
    tags = Array.make (nsets * (assoc + 1)) 0;
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

(* [line mod nsets] without a divide. A power of two is a [land].
   Otherwise (the default 33 MiB 11-way LLC has 49,152 sets) the quotient
   is estimated as [truncate (line *. (1 /. nsets))]. For 0 <= line < 2^50
   the line converts exactly and the two roundings (of the reciprocal and
   of the product, 2^-53 relative each) leave the product within
   line / nsets * 2^-52 < 1/4 of [line / nsets], so the estimate is off by
   at most one and a single +-nsets correction gives the exact remainder.
   Larger lines take the [mod]. A negative line is refused here: it names
   no set, and no valid way can hold it. Every [*_line] entry point comes
   through here, and the one [lsr 50] test sends both negative and large
   lines off the common path. This is the simulator's innermost loop:
   every probe and fill of every level goes through here. *)
let set_of_line t line =
  if line lsr 50 = 0 then
    if t.set_mask >= 0 then line land t.set_mask
    else begin
      let r = line - (truncate (float_of_int line *. t.inv_nsets) * t.nsets) in
      if r < 0 then r + t.nsets else if r >= t.nsets then r - t.nsets else r
    end
  else if line < 0 then invalid_arg "Cache: negative line number"
  else line mod t.nsets

(* Index of the count word of [line]'s set. *)
let base t line = set_of_line t line * t.stride

(* The one scan of a set: the first index in [i, last) holding [line],
   else [last]. Callers pass [i = b + 1] and [last = b + 1 + count], so
   every index read is a valid way of the set (see the invariant at the
   top). Top-level and closure-free so that it allocates nothing. *)
let rec scan (tags : int array) line i last =
  if i = last then i
  else if Array.unsafe_get tags i = line then i
  else scan tags line (i + 1) last

(* [line]'s way (0 = MRU), or [-(count + 1)] when it is absent. *)
let locate_line t line =
  let b = base t line in
  let first = b + 1 in
  let last = first + Array.unsafe_get t.tags b in
  let i = scan t.tags line first last in
  if i < last then i - first else -(last - first + 1)

let contains_line t line = locate_line t line >= 0

let contains t addr = contains_line t (line_of_addr t addr)

(* Rotate [line] (currently at index [i], or the free way just past the
   valid ones) to the front of its set at [first]: everything in
   [first, i) shifts down one way. This is the move-to-front "touch". A
   plain loop, not [Array.blit]: on a major-heap array the blit goes
   through [caml_modify] per element. [first <= i <= first + assoc - 1],
   so every index is a way of the set. *)
let promote (tags : int array) first i line =
  for j = i downto first + 1 do
    Array.unsafe_set tags j (Array.unsafe_get tags (j - 1))
  done;
  Array.unsafe_set tags first line

(* Demand probe: a tag check that refreshes recency and counts a hit or a
   miss. Returns [1] on hit and [-(valid_ways + 1)] on miss, so a following
   {!fill_line} can install without re-scanning the set. *)
let probe_line t line =
  let b = base t line in
  let first = b + 1 in
  let last = first + Array.unsafe_get t.tags b in
  let i = scan t.tags line first last in
  if i < last then begin
    promote t.tags first i line;
    t.hits <- t.hits + 1;
    1
  end
  else begin
    t.misses <- t.misses + 1;
    -(last - first + 1)
  end

let access_line t line = probe_line t line > 0

let access t addr = access_line t (line_of_addr t addr)

(* Install [line] into a set that {!probe_line} or {!locate_line} just found
   it absent from with [valid_ways] valid entries (the set's count word),
   with no intervening operation on this cache. Identical decision to
   {!install_line}: a free way if one exists, otherwise evict the LRU
   (tail) way. Returns the victim line, or -1. *)
let fill_line t line valid_ways =
  let b = base t line in
  let tags = t.tags in
  t.installs <- t.installs + 1;
  if valid_ways < t.assoc then begin
    (* [b + 1 + valid_ways] is the first free way. The count word is
       checked first: a wrong [valid_ways] written back as the count would
       send the unchecked scans out of the set. *)
    if tags.(b) <> valid_ways then
      invalid_arg "Cache.fill_line: valid_ways is not the set's count";
    promote tags (b + 1) (b + 1 + valid_ways) line;
    Array.unsafe_set tags b (valid_ways + 1);
    -1
  end
  else begin
    let tail = b + t.assoc in
    let victim = Array.unsafe_get tags tail in
    t.evictions <- t.evictions + 1;
    promote tags (b + 1) tail line;
    victim
  end

(* Install a line, evicting the LRU way if the set is full. Returns the line
   number of the victim, or -1. Installing a present line only refreshes
   recency. *)
let install_line t line =
  let w = locate_line t line in
  if w >= 0 then begin
    let first = base t line + 1 in
    promote t.tags first (first + w) line;
    -1
  end
  else fill_line t line (-w - 1)

let install t addr =
  let victim = install_line t (line_of_addr t addr) in
  if victim < 0 then None else Some victim

(* Drop the line: the valid ways after it shift up one and the count
   drops (hole position is unobservable: victim choice depends only on the
   recency order of valid ways, which the shift preserves). *)
let invalidate_line t line =
  let w = locate_line t line in
  if w >= 0 then begin
    let tags = t.tags in
    let b = base t line in
    let count = tags.(b) in
    for j = b + 1 + w to b + count - 1 do
      tags.(j) <- tags.(j + 1)
    done;
    tags.(b) <- count - 1
  end

let invalidate t addr = invalidate_line t (line_of_addr t addr)

let clear t = Array.fill t.tags 0 (Array.length t.tags) 0

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let installs t = t.installs

let resident_lines t =
  let n = ref 0 in
  for s = 0 to t.nsets - 1 do
    n := !n + t.tags.(s * t.stride)
  done;
  !n
