(* The differential execution oracle.

   The paper's central claim is that interleaved function-stream execution
   is a pure scheduling transformation: Rtc, Batch_rtc and Scheduler (both
   policies, any n_tasks) must produce the same packets, the same drops,
   the same final NF state, and the same per-flow output order for the
   same program and workload. This module runs one case through every
   executor and diffs the observable behaviour against the RTC reference,
   reporting the first divergence with a minimized, seed-replayable repro.

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
  c_repro : packets:int -> string;  (* one-command replay *)
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

(* ----- observation ----- *)

let packet_fingerprint (p : Netcore.Packet.t) =
  Fingerprint.of_fn (fun fp ->
      Fingerprint.feed_sub fp p.Netcore.Packet.buf ~off:0 ~len:p.Netcore.Packet.hdr_len;
      Fingerprint.feed_int fp p.Netcore.Packet.wire_len;
      Fingerprint.feed_int fp p.Netcore.Packet.l3_off;
      Fingerprint.feed_int fp p.Netcore.Packet.l4_off)

let observe ?(specialize = false) ?plan ?telemetry (x : Exec.t) (inst : instance) :
    observation =
  (* The specialization axis: attach (or strip) the compiled hot path on
     this instance's program before the run. Stripping matters when a
     caller reuses one program across observations — the interpreted
     baseline must genuinely interpret. *)
  if specialize then Specialize.install inst.program
  else Specialize.remove inst.program;
  let label = if specialize then Exec.label x ^ "+spec" else Exec.label x in
  let ctx = Worker.ctx inst.worker in
  (* One fresh plane per run: the plan decides by pull index, so identical
     plans arm identical schedules in every executor. *)
  let plane = Option.map (fun _ -> Fault.create ()) plan in
  let base_source =
    match (plan, plane) with
    | Some pl, Some pn -> Faultgen.instrument pl ~plane:pn inst.source
    | _ -> inst.source
  in
  let emits = ref [] in
  let inputs = ref [] in
  let on_complete (task : Nftask.t) =
    let dropped =
      Event.equal task.Nftask.event Event.Drop_packet
      || Event.equal task.Nftask.event Event.Match_fail
    in
    let e_pkt, e_pktid, e_wire =
      match task.Nftask.packet with
      | Some p -> (packet_fingerprint p, p.Netcore.Packet.id, p.Netcore.Packet.wire_len)
      | None -> ("", -1, 0)
    in
    emits :=
      {
        e_flow = task.Nftask.flow_hint;
        e_aux = task.Nftask.aux;
        e_event = Event.to_key task.Nftask.event;
        e_dropped = dropped;
        e_wire;
        e_pkt;
        e_pktid;
        e_clock = ctx.Exec_ctx.clock;
      }
      :: !emits
  in
  let source =
    Workload.tap
      (fun item ->
        let pid =
          match item.Workload.packet with
          | Some p -> p.Netcore.Packet.id
          | None -> -1
        in
        inputs := (pid, item.Workload.flow_hint) :: !inputs)
      base_source
  in
  let run = Exec.run ?fault:plane ?telemetry ~on_complete x inst.worker inst.program source in
  let mem = ctx.Exec_ctx.mem in
  {
    o_label = label;
    o_run = run;
    o_emits = List.rev !emits;
    o_inputs = List.rev !inputs;
    o_state = Fingerprint.of_fn inst.digest;
    o_mshr_pending = Memsim.Hierarchy.mshr_pending_count mem ~now:ctx.Exec_ctx.clock;
    o_mshr_limit = (Memsim.Hierarchy.config mem).Memsim.Hierarchy.mshr_count;
  }

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

let check_case ?(minimized = true) ?(specialize = false) ?plan (case : case) :
    divergence option =
  let ref_obs = observe ?plan reference (case.c_build ~packets:case.c_packets) in
  (* The comparison matrix: every non-reference executor interpreted and —
     with [specialize] — every executor (reference included) under the
     compiled hot path, all against the interpreted RTC reference. *)
  let variants =
    List.map (fun x -> (x, false)) executors
    @ (if specialize then List.map (fun x -> (x, true)) (reference :: executors) else [])
  in
  let rec scan = function
    | [] -> None
    | (exec, spec) :: rest -> (
        let obs =
          observe ~specialize:spec ?plan exec (case.c_build ~packets:case.c_packets)
        in
        match diff_observations ~reference:ref_obs obs with
        | None -> scan rest
        | Some detail ->
            let packets =
              if minimized then
                minimize ?plan ~specialize:spec case exec ~packets:case.c_packets
              else case.c_packets
            in
            let detail =
              match diverges ?plan ~specialize:spec case exec ~packets with
              | Some d when minimized -> d
              | _ -> detail
            in
            Some
              {
                d_case = case.c_name;
                d_seed = case.c_seed;
                d_profile = case.c_profile;
                d_exec = Exec.label exec ^ if spec then "+spec" else "";
                d_packets = packets;
                d_detail = detail;
                d_repro = case.c_repro ~packets;
              })
  in
  scan variants

let check_cases ?minimized ?specialize ?plan cases =
  List.filter_map (check_case ?minimized ?specialize ?plan) cases

let pp_divergence ppf d =
  Fmt.pf ppf
    "@[<v>DIVERGENCE in case %s (seed %d, profile %s)@,\
     executor %s disagrees with rtc after %d packets:@,\
     %s@,\
     replay: %s@]"
    d.d_case d.d_seed d.d_profile d.d_exec d.d_packets d.d_detail d.d_repro
