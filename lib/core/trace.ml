(* The telemetry plane's span tracer: a bounded ring buffer of per-packet
   lifecycle spans (pull, parse, prefetch-issue, state access, MSHR wait,
   action body, task switch, completion) with cycle timestamps, plus exact
   (never-lossy) attribution books folded as events arrive.

   Like the fault plane, this is an install/inert subsystem: executors
   accept an optional [?telemetry] plane and every hook is a
   [match None -> ()] that charges nothing, so a run with no plane — and a
   run with one attached — is cycle-for-cycle identical to a plane-free
   build. The ring may drop old spans on overflow (recorded in [dropped]);
   the attribution books are plain counters and always exact, which is what
   lets the profiler reconcile against [Memstats] even on long runs. *)

(* Serving cache level of one demand access; [Inflight] = found in an MSHR
   (prefetched, fill not yet landed; the access paid the residual wait). *)
type level = L1 | L2 | Llc | Dram | Inflight

let n_levels = 5
let level_index = function L1 -> 0 | L2 -> 1 | Llc -> 2 | Dram -> 3 | Inflight -> 4
let level_of_index = function 0 -> L1 | 1 -> L2 | 2 -> Llc | 3 -> Dram | _ -> Inflight

let level_name = function
  | L1 -> "L1"
  | L2 -> "L2"
  | Llc -> "LLC"
  | Dram -> "DRAM"
  | Inflight -> "inflight"

(* Lifecycle phase of a span. [State_access]/[Mshr_wait] are fed by the
   memory-hierarchy tap; the rest by executor hooks. *)
type phase =
  | Pull            (* packet I/O: pulled from the source, rx descriptor cost *)
  | Parse           (* instant: headers available, first dispatch decided *)
  | Prefetch_issue  (* software prefetches issued (dur = issue cycles) *)
  | State_access    (* one demand line access served by a cache level *)
  | Mshr_wait       (* demand access that stalled on an in-flight fill *)
  | Action_body     (* one NFAction execution *)
  | Task_switch     (* scheduler visit overhead *)
  | Complete        (* instant: terminal event reached (emit/drop/fault) *)
  | Decision        (* instant: adaptive-controller reconfiguration *)

let phase_name = function
  | Pull -> "pull"
  | Parse -> "parse"
  | Prefetch_issue -> "prefetch"
  | State_access -> "state_access"
  | Mshr_wait -> "mshr_wait"
  | Action_body -> "action"
  | Task_switch -> "switch"
  | Complete -> "complete"
  | Decision -> "decision"

type span = {
  sp_ts : int;      (* start, in simulated cycles *)
  sp_dur : int;     (* 0 for instants *)
  sp_phase : phase;
  sp_task : int;    (* executor slot id; -1 = runtime outside any task *)
  sp_unit : int;    (* run-local packet sequence number; -1 = runtime *)
  sp_flow : int;    (* workload flow hint; -1 = unknown *)
  sp_nf : string;   (* NF instance, "" outside an action *)
  sp_cs : string;   (* qualified control state, "" outside an action *)
  sp_cls : Sref.state_class option;  (* state class of a memory span *)
  sp_level : level option;           (* serving level of a memory span *)
  sp_note : string; (* terminal event key on Complete, line count on prefetch *)
}

(* HDR-style log-linear histogram: exact below 16, then 16 sub-buckets per
   power of two — relative error bounded by 1/16 at any magnitude, constant
   memory. Used for the per-packet latency distribution. *)
module Hist = struct
  let sub_bits = 4
  let sub = 1 lsl sub_bits (* 16 *)
  let n_buckets = sub + (sub * 58) (* values up to 2^62 *)

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable max_v : int;
  }

  let create () = { buckets = Array.make n_buckets 0; count = 0; sum = 0; max_v = 0 }

  let msb v =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
    go 0 v

  let index v =
    if v < 0 then 0
    else if v < sub then v
    else
      let m = msb v in
      let m = min m (sub_bits + 57) in
      sub + ((m - sub_bits) * sub) + ((v lsr (m - sub_bits)) land (sub - 1))

  (* Lower bound of bucket [i] — the value reported for its members. *)
  let value_of_index i =
    if i < sub then i
    else
      let g = (i - sub) / sub and s = (i - sub) mod sub in
      let m = g + sub_bits in
      (1 lsl m) lor (s lsl (m - sub_bits))

  let record t v =
    let i = index v in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let max_value t = t.max_v
  let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

  (* Nearest-rank percentile over the bucket lower bounds. *)
  let percentile t p =
    if t.count = 0 then 0
    else begin
      let rank = max 1 (((p * t.count) + 99) / 100) in
      let acc = ref 0 and result = ref t.max_v in
      (try
         for i = 0 to n_buckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc >= rank then begin
             result := value_of_index i;
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
end

(* One row of the exact attribution books. *)
type cell = { mutable c_count : int; mutable c_cycles : int }

(* Scheduler/MSHR occupancy sample (one per task switch, ring-bounded). *)
type occupancy = { oc_ts : int; oc_active : int; oc_mshr : int }

type t = {
  capacity : int;
  ring : span array;
  mutable total : int; (* spans ever recorded; ring keeps the newest *)
  (* live context, maintained by the executor hooks *)
  units : (int, int * int) Hashtbl.t; (* task id -> (unit, flow) *)
  mutable next_unit : int;
  mutable cur_task : int;
  mutable cur_unit : int;
  mutable cur_flow : int;
  mutable cur_nf : string;
  mutable cur_cs : string;
  mutable cur_cls : Sref.state_class option;
  mutable in_action : bool;
  mutable action_start : int;
  (* exact attribution books (independent of ring overflow) *)
  mem_attr : (string * string * string * int, cell) Hashtbl.t;
      (* (nf, control state, class name, level index) -> demand serves *)
  action_attr : (string * string, cell) Hashtbl.t; (* (nf, control state) *)
  level_counts : int array; (* demand serves per level *)
  level_cycles : int array; (* demand cycles per level *)
  mutable mem_cycles : int;
  mutable mem_outside_cycles : int; (* demand cycles outside any action *)
  mutable action_cycles : int;
  mutable pull_cycles : int;
  mutable prefetch_cycles : int; (* issue cycles outside any action *)
  mutable switch_cycles : int;
  mutable pulls : int;
  mutable completes : int;
  latencies : Hist.t;
  occ_ring : occupancy array;
  mutable occ_total : int;
  mutable occ_active_sum : int;  (* cumulative, exact under ring overflow *)
  mutable occ_mshr_sum : int;
  mutable decisions : int;
}

let default_capacity = 65536

let dummy_span =
  {
    sp_ts = 0;
    sp_dur = 0;
    sp_phase = Pull;
    sp_task = -1;
    sp_unit = -1;
    sp_flow = -1;
    sp_nf = "";
    sp_cs = "";
    sp_cls = None;
    sp_level = None;
    sp_note = "";
  }

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    ring = Array.make capacity dummy_span;
    total = 0;
    units = Hashtbl.create 64;
    next_unit = 0;
    cur_task = -1;
    cur_unit = -1;
    cur_flow = -1;
    cur_nf = "";
    cur_cs = "";
    cur_cls = None;
    in_action = false;
    action_start = 0;
    mem_attr = Hashtbl.create 256;
    action_attr = Hashtbl.create 64;
    level_counts = Array.make n_levels 0;
    level_cycles = Array.make n_levels 0;
    mem_cycles = 0;
    mem_outside_cycles = 0;
    action_cycles = 0;
    pull_cycles = 0;
    prefetch_cycles = 0;
    switch_cycles = 0;
    pulls = 0;
    completes = 0;
    latencies = Hist.create ();
    occ_ring = Array.make 8192 { oc_ts = 0; oc_active = 0; oc_mshr = 0 };
    occ_total = 0;
    occ_active_sum = 0;
    occ_mshr_sum = 0;
    decisions = 0;
  }

let push t sp =
  t.ring.(t.total mod t.capacity) <- sp;
  t.total <- t.total + 1

let bump tbl key cycles =
  match Hashtbl.find_opt tbl key with
  | Some c ->
      c.c_count <- c.c_count + 1;
      c.c_cycles <- c.c_cycles + cycles
  | None -> Hashtbl.add tbl key { c_count = 1; c_cycles = cycles }

(* ----- executor hooks ----- *)

(* A new unit of work entered task [task]: assign it the next packet
   sequence number and record the I/O span. *)
let on_pull t ~ts ~dur ~task ~flow =
  let unit = t.next_unit in
  t.next_unit <- unit + 1;
  Hashtbl.replace t.units task (unit, flow);
  t.cur_task <- task;
  t.cur_unit <- unit;
  t.cur_flow <- flow;
  t.pulls <- t.pulls + 1;
  t.pull_cycles <- t.pull_cycles + dur;
  push t { dummy_span with sp_ts = ts; sp_dur = dur; sp_phase = Pull; sp_task = task; sp_unit = unit; sp_flow = flow }

let on_parse t ~ts ~task =
  let unit, flow =
    match Hashtbl.find_opt t.units task with Some uf -> uf | None -> (-1, -1)
  in
  push t { dummy_span with sp_ts = ts; sp_phase = Parse; sp_task = task; sp_unit = unit; sp_flow = flow }

(* The scheduler turned to task [task]: subsequent spans belong to its
   unit until the next switch. *)
let set_task t ~task =
  t.cur_task <- task;
  match Hashtbl.find_opt t.units task with
  | Some (unit, flow) ->
      t.cur_unit <- unit;
      t.cur_flow <- flow
  | None ->
      t.cur_unit <- -1;
      t.cur_flow <- -1

let on_action_start t ~ts ~nf ~cs =
  t.cur_nf <- nf;
  t.cur_cs <- cs;
  t.in_action <- true;
  t.action_start <- ts

let on_action_end t ~ts =
  let dur = ts - t.action_start in
  t.in_action <- false;
  t.action_cycles <- t.action_cycles + dur;
  bump t.action_attr (t.cur_nf, t.cur_cs) dur;
  push t
    {
      dummy_span with
      sp_ts = t.action_start;
      sp_dur = dur;
      sp_phase = Action_body;
      sp_task = t.cur_task;
      sp_unit = t.cur_unit;
      sp_flow = t.cur_flow;
      sp_nf = t.cur_nf;
      sp_cs = t.cur_cs;
    };
  t.cur_nf <- "";
  t.cur_cs <- ""

(* State class of the demand access about to be charged (set by Exec_ctx
   just before it calls into the hierarchy, so the tap can attribute). *)
let set_cls t cls = t.cur_cls <- cls

(* One demand line access, reported by the memory-hierarchy tap. Accesses
   outside an action body (runtime bookkeeping) attribute to nf = "". *)
let on_mem t ~ts ~cycles ~level =
  let li = level_index level in
  t.level_counts.(li) <- t.level_counts.(li) + 1;
  t.level_cycles.(li) <- t.level_cycles.(li) + cycles;
  t.mem_cycles <- t.mem_cycles + cycles;
  if not t.in_action then t.mem_outside_cycles <- t.mem_outside_cycles + cycles;
  let nf = if t.in_action then t.cur_nf else "" in
  let cs = if t.in_action then t.cur_cs else "" in
  let cls_name = match t.cur_cls with Some c -> Sref.class_name c | None -> "-" in
  bump t.mem_attr (nf, cs, cls_name, li) cycles;
  push t
    {
      dummy_span with
      sp_ts = ts;
      sp_dur = cycles;
      sp_phase = (if level = Inflight then Mshr_wait else State_access);
      sp_task = (if t.in_action then t.cur_task else -1);
      sp_unit = (if t.in_action then t.cur_unit else -1);
      sp_flow = (if t.in_action then t.cur_flow else -1);
      sp_nf = nf;
      sp_cs = cs;
      sp_cls = t.cur_cls;
      sp_level = Some level;
    }

let on_prefetch t ~ts ~dur ~lines =
  if not t.in_action then t.prefetch_cycles <- t.prefetch_cycles + dur;
  push t
    {
      dummy_span with
      sp_ts = ts;
      sp_dur = dur;
      sp_phase = Prefetch_issue;
      sp_task = t.cur_task;
      sp_unit = t.cur_unit;
      sp_flow = t.cur_flow;
      sp_note = string_of_int lines;
    }

let on_switch t ~ts ~dur ~task =
  t.switch_cycles <- t.switch_cycles + dur;
  push t { dummy_span with sp_ts = ts; sp_dur = dur; sp_phase = Task_switch; sp_task = task }

let on_occupancy t ~ts ~active ~mshr =
  t.occ_ring.(t.occ_total mod Array.length t.occ_ring) <-
    { oc_ts = ts; oc_active = active; oc_mshr = mshr };
  t.occ_total <- t.occ_total + 1;
  t.occ_active_sum <- t.occ_active_sum + active;
  t.occ_mshr_sum <- t.occ_mshr_sum + mshr

(* The adaptive controller applied (or held) a reconfiguration; [note] is
   the move label. Runtime span: no task/unit/flow. *)
let on_decision t ~ts ~note =
  t.decisions <- t.decisions + 1;
  push t { dummy_span with sp_ts = ts; sp_phase = Decision; sp_note = note }

(* Task [task] reached a terminal event. [note] is the event key
   (EMIT/DROP/FAULT[r]/...), [latency] the cycles since its pull. *)
let on_complete t ~ts ~task ~note ~latency =
  let unit, flow =
    match Hashtbl.find_opt t.units task with Some uf -> uf | None -> (-1, -1)
  in
  t.completes <- t.completes + 1;
  Hist.record t.latencies latency;
  Hashtbl.remove t.units task;
  push t
    { dummy_span with sp_ts = ts; sp_phase = Complete; sp_task = task; sp_unit = unit; sp_flow = flow; sp_note = note }

(* ----- accessors ----- *)

let total_spans t = t.total
let dropped t = max 0 (t.total - t.capacity)
let pulls t = t.pulls
let completes t = t.completes

(* Retained spans, oldest first. *)
let spans t =
  let n = min t.total t.capacity in
  Array.init n (fun i -> t.ring.((t.total - n + i) mod t.capacity))

let level_count t level = t.level_counts.(level_index level)
let level_cycles t level = t.level_cycles.(level_index level)
let mem_cycles t = t.mem_cycles

(* Cycles the spans account for without double counting: memory traffic
   inside an action body is part of that action's span, so only
   out-of-action demand cycles are added. Always <= the run's cycles (the
   executors also charge transition, dispatch, and scan overheads that are
   deliberately not spanned). *)
let attributed_cycles t =
  t.pull_cycles + t.action_cycles + t.prefetch_cycles + t.switch_cycles
  + t.mem_outside_cycles

let pull_cycles t = t.pull_cycles
let action_cycles t = t.action_cycles
let prefetch_cycles t = t.prefetch_cycles
let switch_cycles t = t.switch_cycles
let mem_outside_cycles t = t.mem_outside_cycles

(* (nf, control state, class name, level, serves, cycles), sorted. *)
let mem_rows t =
  Hashtbl.fold
    (fun (nf, cs, cls, li) c acc ->
      (nf, cs, cls, level_of_index li, c.c_count, c.c_cycles) :: acc)
    t.mem_attr []
  |> List.sort compare

(* (nf, control state, executions, cycles), sorted. *)
let action_rows t =
  Hashtbl.fold (fun (nf, cs) c acc -> (nf, cs, c.c_count, c.c_cycles) :: acc) t.action_attr []
  |> List.sort compare

let latencies t = t.latencies

let occupancy t =
  let n = min t.occ_total (Array.length t.occ_ring) in
  Array.init n (fun i -> t.occ_ring.((t.occ_total - n + i) mod Array.length t.occ_ring))

(* (samples, sum of active tasks, sum of in-flight MSHR fills) over every
   occupancy sample ever taken — exact under ring overflow. *)
let occupancy_totals t = (t.occ_total, t.occ_active_sum, t.occ_mshr_sum)
let decisions t = t.decisions
