(* Cuckoo hash table over simulated memory — the paper's match-state
   structure (Fig 6(b), Listing 1).

   Geometry mirrors CuckooSwitch-style tables: two candidate buckets per
   key, four slots per bucket, and one bucket occupies exactly one cache
   line (4 x (8-byte key + 8-byte value) = 64 bytes). The table logic
   (lookup, displacement insert) is real; the cache behaviour comes from
   callers charging reads of {!bucket_addr} to the memory hierarchy, one
   action per bucket probe, exactly as the granular decomposition splits
   them (get_key / hash_1 / check_1 / hash_2 / check_2). *)

let slots_per_bucket = 4
let bucket_bytes = 64
let max_kicks = 500

type overflow_policy = Drop_new | Evict_lru | Shed_flow

type insert_result =
  | Inserted
  | Updated
  | Evicted of { victim_key : int64; victim_value : int }
  | Rejected

(* Host layout: one 64-byte record per bucket in [buckets], the same size
   as the simulated bucket line. Bytes 0-31 hold the four slot words,
   each [value lsl 16 lor fingerprint], or -1 when the slot is empty;
   bytes 32-63 hold the four keys, valid where the slot word is. A probe
   reads only its bucket's record. The value is at most 46 bits so that
   the packed word stays a non-negative OCaml int. *)
type t = {
  mask : int;  (* nbuckets - 1 *)
  buckets : Bytes.t;  (* 64 bytes per bucket, see above *)
  stamps : int array;  (* per-slot insertion stamp; LRU-ish eviction order *)
  base_addr : int;  (* bucket array: fingerprints + value indices *)
  key_base : int;  (* out-of-line full-key store, one line per bucket *)
  seed1 : int64;
  seed2 : int64;
  rng : Memsim.Rng.t;
  mutable population : int;
  mutable tick : int;
}

let value_bits = 46

let next_pow2 n =
  let rec go v = if v >= n then v else go (v * 2) in
  go 1

let create layout ~label ~capacity () =
  if capacity <= 0 then invalid_arg "Cuckoo.create: capacity must be positive";
  (* Size for ~80% max load factor. *)
  let nbuckets = next_pow2 ((capacity * 5 / 4 / slots_per_bucket) + 1) in
  let base_addr =
    Memsim.Layout.alloc_array layout ~align:64 ~label ~stride:bucket_bytes
      ~count:nbuckets ()
  in
  let key_base =
    Memsim.Layout.alloc_array layout ~align:64 ~label:(label ^ ".keys")
      ~stride:bucket_bytes ~count:nbuckets ()
  in
  {
    mask = nbuckets - 1;
    (* All ones: every slot word reads -1, empty. *)
    buckets = Bytes.make (nbuckets * bucket_bytes) '\xff';
    stamps = Array.make (nbuckets * slots_per_bucket) 0;
    base_addr;
    key_base;
    seed1 = 0x9E3779B97F4A7C15L;
    seed2 = 0xC2B2AE3D27D4EB4FL;
    rng = Memsim.Rng.create 97;
    population = 0;
    tick = 0;
  }

let nbuckets t = t.mask + 1
let population t = t.population

(* The two candidate buckets: the finalizer of splitmix64 flattened into
   a single arithmetic chain and forced inline, so that every Int64
   intermediate, and the key itself, stays unboxed. *)
let[@inline] mix t seed key =
  let open Int64 in
  let z = mul (logxor key seed) 0xFF51AFD7ED558CCDL in
  let z = logxor z (shift_right_logical z 33) in
  let z = mul z 0xC4CEB9FE1A85EC53L in
  to_int (logxor z (shift_right_logical z 33)) land t.mask

let[@inline] bucket1 t key = mix t t.seed1 key

(* Partial-key style alternate bucket: derived from the key so that it can
   be recomputed from either bucket. *)
let[@inline] bucket2 t key = mix t t.seed2 key

(* The probes the classifier's actions make read the key where it lies:
   8 little-endian bytes at [off] of a buffer (the NFTask's key slot, or a
   snapshot frame). An [int64] argument would be boxed at every call from
   another module, since dune's dev profile compiles with [-opaque] and so
   nothing is inlined across modules. *)
let[@inline] key_in b off = Bytes.get_int64_le b off

let hash1 t b off = bucket1 t (key_in b off)
let hash2 t b off = bucket2 t (key_in b off)

let bucket_addr t bucket = t.base_addr + (bucket * bucket_bytes)

(* Address of the bucket's out-of-line full-key line (CuckooSwitch-style:
   the bucket line carries fingerprints and value indices; full keys live in
   a second line that is only read when a fingerprint matches — the
   key_check_1/key_check_2 steps of Listing 1). *)
let key_addr t bucket = t.key_base + (bucket * bucket_bytes)

(* 16-bit fingerprint derived from the key. *)
let[@inline] fingerprint key =
  let open Int64 in
  to_int (shift_right_logical (mul key 0x2545F4914F6CDD1DL) 48) land 0xFFFF

(* A slot is [bucket * 4 + i]; its word and key sit at byte [word_off]
   and [word_off + 32] of the bucket record. The accessors are forced
   inline so that a key is compared where it lies: an [int64] returned
   across a call is boxed, and that made populate twice as slow. *)
let slot_base bucket = bucket * slots_per_bucket
let last_slot bucket = slot_base bucket + slots_per_bucket - 1
let[@inline] word_off slot = ((slot lsr 2) lsl 6) lor ((slot land 3) lsl 3)
let[@inline] word t slot = Int64.to_int (Bytes.get_int64_ne t.buckets (word_off slot))
let[@inline] set_word t slot w = Bytes.set_int64_ne t.buckets (word_off slot) (Int64.of_int w)
let[@inline] key_at t slot = Bytes.get_int64_ne t.buckets (word_off slot + 32)

(* Occupied [slot] holds [key]. *)
let[@inline] holds t slot key = word t slot >= 0 && (key_at t slot : int64) = key

(* Every key write goes through here, so a slot's fingerprint always
   belongs to its key. *)
let set_slot t slot ~key ~value ~stamp =
  Bytes.set_int64_ne t.buckets (word_off slot + 32) key;
  set_word t slot ((value lsl 16) lor fingerprint key);
  t.stamps.(slot) <- stamp

(* Whether occupied [slot] carries fingerprint [fp]. An empty slot's -1
   would match 0xFFFF, hence the sign test. *)
let[@inline] fp_at t slot fp =
  let w = word t slot in
  w >= 0 && w land 0xFFFF = fp

(* Slots of [bucket] whose stored fingerprint matches the key's — what
   the bucket_check action can decide from the bucket line alone. *)
let candidates t ~bucket b off =
  let fp = fingerprint (key_in b off) in
  let base = slot_base bucket in
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (if fp_at t (base + i) fp then i :: acc else acc)
  in
  go (slots_per_bucket - 1) []

(* Whether [candidates] is non-empty, without building it. *)
let rec fp_in t fp slot last = slot <= last && (fp_at t slot fp || fp_in t fp (slot + 1) last)

let has_candidate t ~bucket b off =
  fp_in t (fingerprint (key_in b off)) (slot_base bucket) (last_slot bucket)

(* The slot of [bucket] holding [key], or -1: the four slots unrolled and
   forced inline, so that a key read from a buffer is compared unboxed. *)
let[@inline] bucket_slot t bucket key =
  let s = slot_base bucket in
  if holds t s key then s
  else if holds t (s + 1) key then s + 1
  else if holds t (s + 2) key then s + 2
  else if holds t (s + 3) key then s + 3
  else -1

(* The slot holding [key] in either candidate bucket, primary first. *)
let[@inline] find_slot t key =
  match bucket_slot t (bucket1 t key) key with
  | -1 -> bucket_slot t (bucket2 t key) key
  | s -> s

let[@inline] value_at t slot = word t slot lsr 16

(* Search one bucket for the key at [off] of [b]: its value, or -1. Pure
   table logic, no memory charging. *)
let find_in_bucket t ~bucket b off =
  match bucket_slot t bucket (key_in b off) with -1 -> -1 | s -> value_at t s

let lookup t key = match find_slot t key with -1 -> None | s -> Some (value_at t s)
let find t key = match find_slot t key with -1 -> -1 | s -> value_at t s

(* [find] of the little-endian key at [off] of a frame, read in place. *)
let find_string t frame off =
  match find_slot t (String.get_int64_le frame off) with -1 -> -1 | s -> value_at t s

(* The first empty slot in [slot .. last], or -1. *)
let rec empty_slot t slot last =
  if slot > last then -1 else if word t slot < 0 then slot else empty_slot t (slot + 1) last

let try_place t ~key ~value bucket =
  match empty_slot t (slot_base bucket) (last_slot bucket) with
  | -1 -> false
  | slot ->
      set_slot t slot ~key ~value ~stamp:t.tick;
      true

(* Place [key] into [bucket] or displace a random resident into its
   alternate bucket, carrying per-entry stamps along the walk (a displaced
   resident keeps its original stamp). A failed walk is unwound slot by
   slot — most recent swap first — so the table is bit-identical to before
   the call: overflow must be a *typed, recoverable* outcome, never the
   silent loss of whichever resident the walk happened to be carrying when
   it ran out of kicks. *)
let walk_place t ~key ~value ~stamp ~bucket =
  let undo = ref [] in
  let rec go ~key ~value ~stamp ~bucket kicks =
    (match empty_slot t (slot_base bucket) (last_slot bucket) with
    | -1 -> false
    | slot ->
        set_slot t slot ~key ~value ~stamp;
        true)
    || kicks < max_kicks
       && begin
            (* Evict a random resident of this bucket and re-insert it into
               its alternate bucket. *)
            let victim = slot_base bucket + Memsim.Rng.int t.rng slots_per_bucket in
            let vkey = key_at t victim and vval = value_at t victim in
            let vstamp = t.stamps.(victim) in
            undo := (victim, vkey, vval, vstamp) :: !undo;
            set_slot t victim ~key ~value ~stamp;
            let alt =
              let h1 = bucket1 t vkey in
              if h1 = bucket then bucket2 t vkey else h1
            in
            go ~key:vkey ~value:vval ~stamp:vstamp ~bucket:alt (kicks + 1)
          end
  in
  let placed = go ~key ~value ~stamp ~bucket 0 in
  if not placed then
    List.iter (fun (slot, k, v, s) -> set_slot t slot ~key:k ~value:v ~stamp:s) !undo;
  placed

(* A value must fit the slot word's 46 bits. *)
let check_value value =
  if value lsr value_bits <> 0 then
    invalid_arg "Cuckoo.insert: value must be in [0, 2^46)"

(* Re-point resident slot [s] at [value]; its key and fingerprint stay. *)
let update t s value =
  set_word t s ((value lsl 16) lor (word t s land 0xFFFF));
  t.stamps.(s) <- t.tick;
  Updated

(* Point a resident [key] at [value] ([Updated]), or place it with a
   random-walk cuckoo insert ([Inserted]; [Rejected] when the walk exceeds
   [max_kicks], and the failed walk is fully unwound, so no entry is ever
   lost or moved). Both buckets are hashed once for the whole call. *)
let place t ~key ~value =
  check_value value;
  t.tick <- t.tick + 1;
  let b1 = bucket1 t key and b2 = bucket2 t key in
  match bucket_slot t b1 key with
  | -1 -> (
      match bucket_slot t b2 key with
      | -1 ->
          if
            try_place t ~key ~value b1
            || try_place t ~key ~value b2
            || walk_place t ~key ~value ~stamp:t.tick ~bucket:b1
          then begin
            t.population <- t.population + 1;
            Inserted
          end
          else Rejected
      | s -> update t s value)
  | s -> update t s value

let insert t ~key ~value = match place t ~key ~value with Rejected -> false | _ -> true

(* Stalest slot among the key's two candidate buckets (lowest stamp;
   first-in-scan-order tie-break — fully deterministic). *)
let stalest_slot t key =
  let best = ref (-1) in
  let scan bucket =
    let b = slot_base bucket in
    for i = 0 to slots_per_bucket - 1 do
      let s = b + i in
      if word t s >= 0 && (!best < 0 || t.stamps.(s) < t.stamps.(!best)) then
        best := s
    done
  in
  scan (bucket1 t key);
  (let b2 = bucket2 t key in
   if b2 <> bucket1 t key then scan b2);
  !best

let insert_policy t ~policy ~key ~value =
  match place t ~key ~value with
  | (Inserted | Updated | Evicted _) as r -> r
  | Rejected -> (
    match policy with
    | Drop_new | Shed_flow -> Rejected
    | Evict_lru -> (
        match stalest_slot t key with
        | -1 -> Rejected (* both candidate buckets empty yet walk failed: impossible *)
        | slot ->
            let victim_key = key_at t slot and victim_value = value_at t slot in
            set_slot t slot ~key ~value ~stamp:t.tick;
            (* one out, one in: population unchanged *)
            Evicted { victim_key; victim_value }))

let delete t key =
  match find_slot t key with
  | -1 -> false
  | s ->
      set_word t s (-1);
      t.population <- t.population - 1;
      true

let load_factor t =
  float_of_int t.population /. float_of_int (nbuckets t * slots_per_bucket)
