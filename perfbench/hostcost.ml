(* Host-side measurement primitives: a monotonic nanosecond clock, minor
   heap words, the order statistics every reported figure goes through, the
   host-speed calibration loop, meters around wrapped calls, and GC time
   from the runtime's own event ring. Nothing here touches the simulator;
   it only observes the process running it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Exact minor-heap words allocated so far by this domain (unboxed, so
   reading it allocates nothing). *)
let words () = Gc.minor_words ()

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ----- order statistics ----- *)

let median (xs : float list) =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quantile [p] (in (0,1)) of sorted integer samples, read off the
   continuous distribution that spreads each integer value [v] evenly over
   [v - 0.5, v + 0.5). Nearest-rank percentiles of integer cycle counts sit
   on plateaus; this estimator keeps the position inside the tied run, so
   it still moves when the distribution does. *)
let quantile_interp (sorted : int array) p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let target = p *. float_of_int n in
    let k = max 0 (min (n - 1) (int_of_float (Float.ceil target) - 1)) in
    let v = sorted.(k) in
    let rec first i = if i > 0 && sorted.(i - 1) = v then first (i - 1) else i in
    let rec last i = if i < n - 1 && sorted.(i + 1) = v then last (i + 1) else i in
    let lo = first k and hi = last k + 1 in
    let within = (target -. float_of_int lo) /. float_of_int (hi - lo) in
    float_of_int v -. 0.5 +. Float.min 1.0 (Float.max 0.0 within)
  end

(* ----- host speed calibration -----

   Other tenants of a shared host slow this process down for minutes at a
   time, mostly by competing for caches and memory bandwidth: the same
   chunk of packets can take 40% longer in one run than in the next.
   [Calib.run] times a fixed loop of the two kinds of work that dominate
   the simulator's own host time: streams of stores through a buffer the
   size of the minor heap (it allocates hundreds of words per packet) and
   random reads and updates of a hash table too big for the private caches
   (per-flow state, cache-line tables). The loop allocates nothing, so it
   never pays for the program's garbage collection. [slowdown] compares it
   with the loop's time on an uncontended host. A chunk's
   throughput multiplied by the slowdown measured around it counts the
   program's own cost rather than its neighbours'. The loop is benchmark
   code, so a change to the program never moves it. *)
module Calib = struct
  (* The loop's time on an uncontended 2.0 GHz Xeon vCPU with OCaml 5.1.1:
     the unit in which [slowdown] is 1.0. *)
  let reference_ns = 1.0e7

  let table_keys = 262_144

  (* About 10 MB: int keys spread over buckets, built once per process. *)
  let table =
    lazy
      (let h = Hashtbl.create table_keys in
       for i = 0 to table_keys - 1 do
         Hashtbl.replace h (i * 7919) 0
       done;
       h)

  (* 2 MB, the default minor heap. *)
  let stream : int array = Array.make (1 lsl 18) 0

  let run () =
    let h = Lazy.force table in
    let t0 = now_ns () in
    let mask = Array.length stream - 1 in
    for i = 0 to 5_000_000 - 1 do
      Array.unsafe_set stream (i land mask) i
    done;
    let x = ref 12345 in
    for _ = 1 to 20_000 do
      x := ((!x * 1103515245) + 12345) land max_int;
      let key = ((!x lsr 9) land (table_keys - 1)) * 7919 in
      Hashtbl.replace h key (Hashtbl.find h key + 1)
    done;
    now_ns () - t0

  let slowdown ns = float_of_int ns /. reference_ns
end

(* ----- meters around benchmark-owned wrappers of layer calls -----

   Calls, host ns and minor words spent inside one wrapper, plus the GC
   time that fell inside its calls ([Gc_time.settle]). Each call's interval
   is kept until the next settle so GC pauses can be attributed to it. *)
module Meter = struct
  type t = {
    mutable calls : int;
    mutable ns : int;
    mutable words : int;
    mutable gc_ns : int;
    starts : int array;
    ends : int array;
    mutable k : int;  (** intervals kept since the last settle *)
    mutable unkept : int;  (** calls whose interval did not fit *)
  }

  let cap = 1 lsl 17

  let create () =
    {
      calls = 0;
      ns = 0;
      words = 0;
      gc_ns = 0;
      starts = Array.make cap 0;
      ends = Array.make cap 0;
      k = 0;
      unkept = 0;
    }

  let timed m f x =
    let w0 = words () in
    let t0 = now_ns () in
    let r = f x in
    let t1 = now_ns () in
    let w1 = words () in
    m.calls <- m.calls + 1;
    m.ns <- m.ns + (t1 - t0);
    m.words <- m.words + int_of_float (w1 -. w0);
    if m.k < cap then begin
      m.starts.(m.k) <- t0;
      m.ends.(m.k) <- t1;
      m.k <- m.k + 1
    end
    else m.unkept <- m.unkept + 1;
    r
end

(* ----- GC time from runtime events -----

   The runtime emits begin/end events for every GC phase into a per-domain
   ring. Phases nest, so the time spent in the GC is the union of the
   outermost intervals: a depth counter opens an interval at 0 -> 1 and
   closes it at 1 -> 0. The ring is bounded; callers drain it after every
   measured chunk, and overwritten events are counted in [lost] (non-zero
   makes the GC figure an underestimate). Event timestamps come from the
   same monotonic clock as [now_ns], so the intervals drained since
   [forget] can be matched against a meter's call intervals. *)
module Gc_time = struct
  type acc = {
    mutable depth : int;
    mutable opened : int;
    mutable total_ns : int;
    mutable lost : int;
    starts : int array;
    ends : int array;
    mutable k : int;
  }

  let cap = 1 lsl 16

  let acc =
    {
      depth = 0;
      opened = 0;
      total_ns = 0;
      lost = 0;
      starts = Array.make cap 0;
      ends = Array.make cap 0;
      k = 0;
    }

  let stamp ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

  let callbacks =
    lazy
      (Runtime_events.Callbacks.create
         ~runtime_begin:(fun _ ts _ ->
           if acc.depth = 0 then acc.opened <- stamp ts;
           acc.depth <- acc.depth + 1)
         ~runtime_end:(fun _ ts _ ->
           if acc.depth > 0 then begin
             acc.depth <- acc.depth - 1;
             if acc.depth = 0 then begin
               acc.total_ns <- acc.total_ns + (stamp ts - acc.opened);
               if acc.k < cap then begin
                 acc.starts.(acc.k) <- acc.opened;
                 acc.ends.(acc.k) <- stamp ts;
                 acc.k <- acc.k + 1
               end
             end
           end)
         ~lost_events:(fun _ n -> acc.lost <- acc.lost + n)
         ())

  let cursor =
    lazy
      (Runtime_events.start ();
       Runtime_events.create_cursor None)

  (* GC nanoseconds accumulated since the first call (ring drained first). *)
  let total () =
    ignore
      (Runtime_events.read_poll (Lazy.force cursor) (Lazy.force callbacks) None : int);
    acc.total_ns

  let lost () = acc.lost

  (* Drop the GC intervals drained so far (call after [total]). *)
  let forget () = acc.k <- 0

  (* Add to [m]'s GC time the overlap of its kept call intervals with the
     GC intervals drained since [forget], then drop [m]'s intervals. Both
     lists are sorted and disjoint, so one merge pass suffices. *)
  let settle (m : Meter.t) =
    let i = ref 0 and j = ref 0 and sum = ref 0 in
    while !i < m.Meter.k && !j < acc.k do
      let lo = max m.Meter.starts.(!i) acc.starts.(!j)
      and hi = min m.Meter.ends.(!i) acc.ends.(!j) in
      if hi > lo then sum := !sum + (hi - lo);
      if m.Meter.ends.(!i) < acc.ends.(!j) then incr i else incr j
    done;
    m.Meter.gc_ns <- m.Meter.gc_ns + !sum;
    m.Meter.k <- 0
end
