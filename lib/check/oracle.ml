(* The differential execution oracle.

   The paper's central claim is that interleaved function-stream execution
   is a pure scheduling transformation: Rtc, Batch_rtc and Scheduler (both
   policies, any n_tasks) must produce the same packets, the same drops,
   the same final NF state, and the same per-flow output order for the
   same program and workload. This module runs one case through every
   executor and diffs the observable behaviour against the RTC reference,
   reporting the first divergence with a minimized, seed-replayable repro.
   The same scan checks the executor-independent invariants on every
   observation it makes, so each executor runs once per case.

   Executors mutate packets in place and advance per-NF state, so every
   run gets a *fresh* instance (worker, program, NF state, workload) built
   from the case's deterministic seed — replay is rebuild-from-equal-seed,
   never source sharing. *)

open Gunfu

(* One completed packet as observed at the executor's completion hook. *)
type emit = {
  e_flow : int;  (* workload flow hint; -1 = unordered *)
  e_aux : int;
  e_event : string;  (* terminal event key *)
  e_dropped : bool;
  e_wire : int;
  e_pkt : string;  (* fingerprint of the final header bytes; "" if none *)
  e_pktid : int;  (* run-local packet id, for order checks *)
  e_clock : int;  (* simulated completion time *)
}

type observation = {
  o_label : string;
  o_run : Metrics.run;
  o_emits : emit list;  (* completion order *)
  o_inputs : (int * int) list;  (* (pktid, flow) in pull order *)
  o_state : string;  (* final NF-state digest *)
  o_mshr_pending : int;  (* outstanding fills at end of run *)
  o_mshr_limit : int;
}

(* A freshly built system under test; consumed by exactly one run. *)
type instance = {
  worker : Worker.t;
  program : Program.t;
  source : Workload.source;
  digest : Fingerprint.t -> unit;
}

type case = {
  c_name : string;
  c_seed : int;
  c_profile : string;
  c_packets : int;
  c_build : packets:int -> instance;
  c_selector : string;  (* the CLI flags that select this case *)
}

type divergence = {
  d_case : string;
  d_seed : int;
  d_profile : string;
  d_exec : string;
  d_packets : int;  (* minimized workload length *)
  d_detail : string;
  d_repro : string;
}

type violation = { v_rule : string; v_detail : string }

(* One scan of a case through the executor matrix. *)
type scan = {
  sc_reference : observation;
  sc_violations : (string * violation) list;  (* tagged with the variant label *)
  sc_divergence : divergence option;  (* the first, minimized *)
  sc_repro : string;  (* replays the whole case *)
}

(* ----- executors under comparison ----- *)

let reference : Exec.t = `Rtc
let batch_sizes = [ 1; 8; 32 ]
let task_counts = [ 1; 2; 4; 8; 16 ]

let executors : Exec.t list =
  List.map (fun b -> `Batch b) batch_sizes
  @ List.concat_map
      (fun n_tasks ->
        List.map
          (fun policy -> `Il { Exec.policy; n_tasks; distance = 1 })
          [ Scheduler.Round_robin; Scheduler.Ready_first ])
      task_counts

let executor_names = List.map Exec.label (reference :: executors)

(* ----- the completion recorder ----- *)

let packet_fingerprint (p : Netcore.Packet.t) =
  Fingerprint.of_fn (fun fp ->
      Fingerprint.feed_sub fp p.Netcore.Packet.buf ~off:0 ~len:p.Netcore.Packet.hdr_len;
      Fingerprint.feed_int fp p.Netcore.Packet.wire_len;
      Fingerprint.feed_int fp p.Netcore.Packet.l3_off;
      Fingerprint.feed_int fp p.Netcore.Packet.l4_off)

(* One completed packet, read at the executor's completion hook. *)
let emit_of_task ~clock (task : Nftask.t) =
  let e_pkt, e_pktid, e_wire =
    match task.Nftask.packet with
    | Some p -> (packet_fingerprint p, p.Netcore.Packet.id, p.Netcore.Packet.wire_len)
    | None -> ("", -1, 0)
  in
  {
    e_flow = task.Nftask.flow_hint;
    e_aux = task.Nftask.aux;
    e_event = Event.to_key task.Nftask.event;
    e_dropped =
      Event.equal task.Nftask.event Event.Drop_packet
      || Event.equal task.Nftask.event Event.Match_fail;
    e_wire;
    e_pkt;
    e_pktid;
    e_clock = clock;
  }

let input_of_item (item : Workload.item) =
  ( (match item.Workload.packet with Some p -> p.Netcore.Packet.id | None -> -1),
    item.Workload.flow_hint )

let observation ~label ?(state = "") ~inputs (ctx : Exec_ctx.t) run emits =
  let mem = ctx.Exec_ctx.mem in
  {
    o_label = label;
    o_run = run;
    o_emits = emits;
    o_inputs = inputs;
    o_state = state;
    o_mshr_pending = Memsim.Hierarchy.mshr_pending_count mem ~now:ctx.Exec_ctx.clock;
    o_mshr_limit = (Memsim.Hierarchy.config mem).Memsim.Hierarchy.mshr_count;
  }

let record ~label ?(state = fun () -> "") ctx source exec =
  let emits = ref [] and inputs = ref [] in
  let on_complete task = emits := emit_of_task ~clock:ctx.Exec_ctx.clock task :: !emits in
  let source = Workload.tap (fun item -> inputs := input_of_item item :: !inputs) source in
  let run = exec ~on_complete source in
  observation ~label ~state:(state ()) ~inputs:(List.rev !inputs) ctx run (List.rev !emits)

let observe ?(specialize = false) ?plan ?telemetry (x : Exec.t) (inst : instance) :
    observation =
  (* The specialization axis: attach (or strip) the compiled hot path on
     this instance's program before the run. Stripping matters when a
     caller reuses one program across observations — the interpreted
     baseline must genuinely interpret. *)
  if specialize then Specialize.install inst.program
  else Specialize.remove inst.program;
  let label = if specialize then Exec.label x ^ "+spec" else Exec.label x in
  (* One fresh plane per run: the plan decides by pull index, so identical
     plans arm identical schedules in every executor. *)
  let plane = Option.map (fun _ -> Fault.create ()) plan in
  let source =
    match (plan, plane) with
    | Some pl, Some pn -> Faultgen.instrument pl ~plane:pn inst.source
    | _ -> inst.source
  in
  record ~label
    ~state:(fun () -> Fingerprint.of_fn inst.digest)
    (Worker.ctx inst.worker) source
    (fun ~on_complete source ->
      Exec.run ?fault:plane ?telemetry ~on_complete x inst.worker inst.program source)

(* ----- executor-independent invariants -----

   Unlike the differential diff (which needs a second run to compare
   against), these hold for ANY correct executor in isolation:

   - packet conservation: every pulled item completes, exactly once, and
     the run's packet/drop/byte counters agree with the completion stream;
   - per-flow order: each flow's packets complete in arrival order;
   - monotone clock: completion times never run backwards, and fit inside
     the run's measured cycle window;
   - memsim accounting: every line access is served by exactly one level
     (or an in-flight fill), prefetch issue/redundant/dropped books
     balance, and outstanding fills never exceed the MSHR count. *)

let v rule fmt = Printf.ksprintf (fun s -> { v_rule = rule; v_detail = s }) fmt

(* A completion the fault plane quarantined carries [Event.Faulted] — its
   key round-trips through {!Gunfu.Event.to_key} as "FAULT[reason]". *)
let emit_faulted (e : emit) =
  let s = e.e_event in
  String.length s > 7 && String.sub s 0 6 = "FAULT["

let check_conservation (o : observation) : violation list =
  let n_in = List.length o.o_inputs in
  let n_out = List.length o.o_emits in
  let drops = List.length (List.filter (fun e -> e.e_dropped) o.o_emits) in
  let faulted = List.length (List.filter emit_faulted o.o_emits) in
  let wire =
    List.fold_left
      (fun acc e ->
        if e.e_dropped || emit_faulted e then acc else acc + e.e_wire)
      0 o.o_emits
  in
  let run = o.o_run in
  List.concat
    [
      (if n_in <> n_out then
         [ v "conservation" "%d items pulled but %d completed" n_in n_out ]
       else []);
      (if run.Metrics.packets <> n_out then
         [
           v "conservation" "run reports %d packets but %d completions observed"
             run.Metrics.packets n_out;
         ]
       else []);
      (if run.Metrics.drops <> drops then
         [
           v "conservation" "run reports %d drops but %d dropped completions observed"
             run.Metrics.drops drops;
         ]
       else []);
      (* Every offered packet is accounted exactly once:
         emits + drops + faulted = offered. *)
      (if run.Metrics.faulted <> faulted then
         [
           v "conservation" "run reports %d faulted but %d faulted completions observed"
             run.Metrics.faulted faulted;
         ]
       else []);
      (if run.Metrics.packets - run.Metrics.drops - run.Metrics.faulted
          <> n_out - drops - faulted
       then
         [
           v "conservation"
             "emit accounting broken: offered=%d drops=%d faulted=%d but %d clean completions"
             run.Metrics.packets run.Metrics.drops run.Metrics.faulted
             (n_out - drops - faulted);
         ]
       else []);
      (if run.Metrics.wire_bytes <> wire then
         [
           v "conservation" "run reports %d wire bytes but completions sum to %d"
             run.Metrics.wire_bytes wire;
         ]
       else []);
    ]

(* Each flow's completions must carry that flow's packet ids in arrival
   order — the per-flow order-preservation claim. Flow hint -1 marks items
   the generator declared unordered; they are exempt. *)
let check_flow_order (o : observation) : violation list =
  let arrivals : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (pid, flow) ->
      if flow >= 0 then
        match Hashtbl.find_opt arrivals flow with
        | Some l -> l := pid :: !l
        | None -> Hashtbl.add arrivals flow (ref [ pid ]))
    o.o_inputs;
  let completions : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.e_flow >= 0 then
        match Hashtbl.find_opt completions e.e_flow with
        | Some l -> l := e.e_pktid :: !l
        | None -> Hashtbl.add completions e.e_flow (ref [ e.e_pktid ]))
    o.o_emits;
  Hashtbl.fold
    (fun flow arr acc ->
      let expect = List.rev !arr in
      let got =
        match Hashtbl.find_opt completions flow with
        | Some l -> List.rev !l
        | None -> []
      in
      if expect <> got then
        v "flow-order" "flow %d arrived as %s but completed as %s" flow
          (String.concat "," (List.map string_of_int expect))
          (String.concat "," (List.map string_of_int got))
        :: acc
      else acc)
    arrivals []

let check_clock (o : observation) : violation list =
  let rec monotone prev = function
    | [] -> []
    | e :: rest ->
        if e.e_clock < prev then
          [
            v "clock" "completion clock ran backwards: %d after %d" e.e_clock
              prev;
          ]
        else monotone e.e_clock rest
  in
  let backwards = monotone 0 o.o_emits in
  let cycles = o.o_run.Metrics.cycles in
  let negative = if cycles < 0 then [ v "clock" "negative run cycles %d" cycles ] else [] in
  backwards @ negative

let check_memstats (o : observation) : violation list =
  let m = o.o_run.Metrics.mem in
  let served =
    m.Memsim.Memstats.l1_hits + m.Memsim.Memstats.l2_hits + m.Memsim.Memstats.llc_hits
    + m.Memsim.Memstats.dram_fills + m.Memsim.Memstats.mshr_waits
  in
  List.concat
    [
      (if served <> m.Memsim.Memstats.line_accesses then
         [
           v "memsim"
             "per-level serves (%d) do not sum to line accesses (%d): l1=%d l2=%d llc=%d dram=%d mshr=%d"
             served m.Memsim.Memstats.line_accesses m.Memsim.Memstats.l1_hits
             m.Memsim.Memstats.l2_hits m.Memsim.Memstats.llc_hits
             m.Memsim.Memstats.dram_fills m.Memsim.Memstats.mshr_waits;
         ]
       else []);
      (let fields =
         [
           ("line_accesses", m.Memsim.Memstats.line_accesses);
           ("l1_hits", m.Memsim.Memstats.l1_hits);
           ("l2_hits", m.Memsim.Memstats.l2_hits);
           ("llc_hits", m.Memsim.Memstats.llc_hits);
           ("dram_fills", m.Memsim.Memstats.dram_fills);
           ("mshr_waits", m.Memsim.Memstats.mshr_waits);
           ("wait_cycles", m.Memsim.Memstats.wait_cycles);
           ("prefetch_issued", m.Memsim.Memstats.prefetch_issued);
           ("prefetch_redundant", m.Memsim.Memstats.prefetch_redundant);
           ("prefetch_dropped", m.Memsim.Memstats.prefetch_dropped);
           ("mshr_stalls", m.Memsim.Memstats.mshr_stalls);
         ]
       in
       List.filter_map
         (fun (name, value) ->
           if value < 0 then Some (v "memsim" "negative counter %s = %d" name value)
           else None)
         fields);
      (if o.o_mshr_pending > o.o_mshr_limit then
         [
           v "memsim" "%d fills outstanding at end of run, MSHR limit is %d"
             o.o_mshr_pending o.o_mshr_limit;
         ]
       else []);
    ]

let check_invariants (o : observation) : violation list =
  check_conservation o @ check_flow_order o @ check_clock o @ check_memstats o

(* An observation's violations, tagged with its label. *)
let violations o = List.map (fun viol -> (o.o_label, viol)) (check_invariants o)

let pp_violation ppf { v_rule; v_detail } = Fmt.pf ppf "[%s] %s" v_rule v_detail

(* ----- diffing ----- *)

(* What a packet's journey must look like regardless of executor. The
   packet id is deliberately excluded: ids are run-local. *)
let emit_content e = (e.e_flow, e.e_aux, e.e_event, e.e_dropped, e.e_wire, e.e_pkt)

let pp_content ppf (flow, aux, ev, dropped, wire, pkt) =
  Fmt.pf ppf "flow=%d aux=%d event=%s dropped=%b wire=%d pkt=%s" flow aux ev dropped
    wire
    (if pkt = "" then "-" else pkt)

let per_flow_streams emits =
  let tbl : (int, (int * int * string * bool * int * string) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun e ->
      let l =
        match Hashtbl.find_opt tbl e.e_flow with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add tbl e.e_flow l;
            l
      in
      l := emit_content e :: !l)
    emits;
  Hashtbl.fold (fun flow l acc -> (flow, List.rev !l) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* First difference between the reference observation and another
   executor's, or [None] when behaviourally identical. *)
let diff_observations ~(reference : observation) (obs : observation) : string option =
  let ref_flows = List.map snd reference.o_inputs in
  let obs_flows = List.map snd obs.o_inputs in
  if ref_flows <> obs_flows then
    Some
      (Printf.sprintf "input streams differ: reference pulled %d items, %s pulled %d"
         (List.length ref_flows) obs.o_label (List.length obs_flows))
  else if reference.o_run.Metrics.packets <> obs.o_run.Metrics.packets then
    Some
      (Printf.sprintf "completed-packet counts differ: %d (rtc) vs %d (%s)"
         reference.o_run.Metrics.packets obs.o_run.Metrics.packets obs.o_label)
  else if reference.o_run.Metrics.drops <> obs.o_run.Metrics.drops then
    Some
      (Printf.sprintf "drop counts differ: %d (rtc) vs %d (%s)"
         reference.o_run.Metrics.drops obs.o_run.Metrics.drops obs.o_label)
  else if reference.o_run.Metrics.faulted <> obs.o_run.Metrics.faulted then
    Some
      (Printf.sprintf "faulted counts differ: %d (rtc) vs %d (%s)"
         reference.o_run.Metrics.faulted obs.o_run.Metrics.faulted obs.o_label)
  else if reference.o_run.Metrics.degraded <> obs.o_run.Metrics.degraded then
    Some
      (Printf.sprintf "degraded flags differ: %b (rtc) vs %b (%s)"
         reference.o_run.Metrics.degraded obs.o_run.Metrics.degraded obs.o_label)
  else if reference.o_run.Metrics.faults <> obs.o_run.Metrics.faults then
    let pp faults =
      String.concat ", "
        (List.map
           (fun (nf, r, n) -> Printf.sprintf "%s/%s x%d" nf (Fault.reason_to_key r) n)
           faults)
    in
    Some
      (Printf.sprintf "fault taxonomies differ: {%s} (rtc) vs {%s} (%s)"
         (pp reference.o_run.Metrics.faults)
         (pp obs.o_run.Metrics.faults)
         obs.o_label)
  else if reference.o_run.Metrics.wire_bytes <> obs.o_run.Metrics.wire_bytes then
    Some
      (Printf.sprintf "wire byte counts differ: %d (rtc) vs %d (%s)"
         reference.o_run.Metrics.wire_bytes obs.o_run.Metrics.wire_bytes obs.o_label)
  else begin
    let ref_streams = per_flow_streams reference.o_emits in
    let obs_streams = per_flow_streams obs.o_emits in
    (* Flow -1 marks unordered items: only their multiset must agree. *)
    let normalize (flow, stream) =
      if flow < 0 then (flow, List.sort compare stream) else (flow, stream)
    in
    let ref_streams = List.map normalize ref_streams in
    let obs_streams = List.map normalize obs_streams in
    let rec first_diff = function
      | [], [] -> None
      | (flow, _) :: _, [] | [], (flow, _) :: _ ->
          Some (Printf.sprintf "flow %d present in only one executor's output" flow)
      | (fa, sa) :: ra, (fb, sb) :: rb ->
          if fa <> fb then
            Some (Printf.sprintf "flow sets differ: %d (rtc) vs %d (%s)" fa fb obs.o_label)
          else if sa <> sb then begin
            let rec pos i = function
              | a :: ta, b :: tb -> if a <> b then (i, Some a, Some b) else pos (i + 1) (ta, tb)
              | a :: _, [] -> (i, Some a, None)
              | [], b :: _ -> (i, None, Some b)
              | [], [] -> (i, None, None)
            in
            let i, a, b = pos 0 (sa, sb) in
            let pp = function
              | Some c -> Fmt.str "%a" pp_content c
              | None -> "<missing>"
            in
            Some
              (Printf.sprintf "flow %d diverges at its packet #%d: rtc {%s} vs %s {%s}"
                 fa i (pp a) obs.o_label (pp b))
          end
          else first_diff (ra, rb)
    in
    match first_diff (ref_streams, obs_streams) with
    | Some d -> Some d
    | None ->
        if reference.o_state <> obs.o_state then
          Some
            (Printf.sprintf "final NF state digests differ: %s (rtc) vs %s (%s)"
               reference.o_state obs.o_state obs.o_label)
        else None
  end

(* ----- checking and minimization ----- *)

let diverges ?plan ?specialize case exec ~packets =
  let ref_obs = observe ?plan reference (case.c_build ~packets) in
  let obs = observe ?specialize ?plan exec (case.c_build ~packets) in
  diff_observations ~reference:ref_obs obs

(* Smallest workload prefix still showing a divergence, by binary search
   (assumes monotonicity — the usual delta-debugging simplification; the
   result is a repro aid, not a proof of minimality). *)
let minimize ?plan ?specialize case exec ~packets =
  let rec go lo hi =
    (* Invariant: [hi] diverges; [lo] does not. *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if diverges ?plan ?specialize case exec ~packets:mid <> None then go lo mid
      else go mid hi
  in
  if packets <= 1 then packets else go 0 packets

(* The one-command replay of a case: the case supplies its selector, seed
   and packet budget, the axis its command and flags. *)
let repro ~command ~selector ~seed ~packets flags =
  String.concat " "
    ("gunfu_cli" :: command :: selector
    :: Printf.sprintf "--seed %d --packets %d" seed packets
    :: flags)

(* Every axis command derives its fault plan from the case seed, so the
   rate is all a repro has to carry. *)
let plan_flags = function
  | Some p -> [ Printf.sprintf "--rate-ppm %d" (Faultgen.rate_ppm p) ]
  | None -> []

let case_repro ~specialize ?plan case ~packets =
  let command, flags =
    match plan with
    | Some _ -> ("chaos", plan_flags plan)
    | None -> ("check", if specialize then [ "--specialize" ] else [])
  in
  repro ~command ~selector:case.c_selector ~seed:case.c_seed ~packets flags

let check_case ?(minimized = true) ?(specialize = false) ?plan (case : case) : scan =
  let repro = case_repro ~specialize ?plan case in
  let build () = case.c_build ~packets:case.c_packets in
  (* The comparison matrix: every non-reference executor interpreted and —
     with [specialize] — every executor (reference included) under the
     compiled hot path, all against the interpreted RTC reference. *)
  let variants =
    List.map (fun x -> (x, false)) executors
    @ (if specialize then List.map (fun x -> (x, true)) (reference :: executors) else [])
  in
  let ref_obs = observe ?plan reference (build ()) in
  let ref_violations = violations ref_obs in
  let divergence = ref None in
  let variant_violations =
    List.concat_map
      (fun (exec, spec) ->
        let obs = observe ~specialize:spec ?plan exec (build ()) in
        (match (!divergence, diff_observations ~reference:ref_obs obs) with
        | None, Some detail ->
            let packets, detail =
              if not minimized then (case.c_packets, detail)
              else
                let packets =
                  minimize ?plan ~specialize:spec case exec ~packets:case.c_packets
                in
                ( packets,
                  Option.value ~default:detail
                    (diverges ?plan ~specialize:spec case exec ~packets) )
            in
            divergence :=
              Some
                {
                  d_case = case.c_name;
                  d_seed = case.c_seed;
                  d_profile = case.c_profile;
                  d_exec = obs.o_label;
                  d_packets = packets;
                  d_detail = detail;
                  d_repro = repro ~packets;
                }
        | _ -> ());
        violations obs)
      variants
  in
  {
    sc_reference = ref_obs;
    sc_violations = ref_violations @ variant_violations;
    sc_divergence = !divergence;
    sc_repro = repro ~packets:case.c_packets;
  }

let pp_divergence ppf d =
  Fmt.pf ppf
    "@[<v>DIVERGENCE in case %s (seed %d, profile %s)@,\
     executor %s disagrees with rtc after %d packets:@,\
     %s@,\
     replay: %s@]"
    d.d_case d.d_seed d.d_profile d.d_exec d.d_packets d.d_detail d.d_repro
