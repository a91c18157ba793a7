(* Crash-tolerant scale-out: core-failure injection with checkpoint/replay
   recovery.

   A recovery case runs one generated (or spec-assembled) program across a
   share-nothing multi-core platform: RSS pins each flow to one core
   ({!Gunfu.Platform.Recovery.owner}), cores own disjoint flow subsets of
   a common universe, and each core can journal its input stream — a state
   checkpoint every [epoch] pulls plus a bounded replay log of the pulls
   since (the {!Gunfu.Platform.Recovery} journal).

   The chaos axis kills one core mid-run ({!Faultgen.decide_kill}): the
   victim's stream is truncated right after global pull [g_kill] and a
   surviving core adopts its flows — restore the victim's last checkpoint
   through the Migration layer, replay the logged suffix (re-arming the
   injections the victim recorded, never re-drawing or re-corrupting),
   then absorb the victim's redirected remainder. Replayed completions are
   deduplicated by run-local packet id (log clones keep their id precisely
   so a replay looks like the same packet) and verified content-equal to
   the victim's originals: the exactly-once emit policy.

   Correctness is judged against a *failure-free reference*: the same
   platform, sharding and injection schedule without the kill. A recovered
   run must match it on per-flow emit-content streams and on a
   location-independent state digest — per-flow NF state read from each
   flow's final owner, commutative counters summed over live cores —
   while {!Invariants.check_recovery} enforces the replay-aware
   conservation law (live completions = offered + replayed).

   Executors are RTC per core: a checkpoint taken between pulls is
   quiescent (every previously pulled packet has fully completed), which
   is what makes the journal's pull-boundary snapshots consistent. *)

open Gunfu

(* ----- per-core instances ----- *)

(* One core's freshly built copy of the program, populated with only the
   flows that core owns, plus the closures the recovery engine needs:
   export/import of per-flow state (universe flow ids -> named snapshot
   blobs through the Migration layer), commutative counters (import ADDS
   — victim increments and adopter increments are disjoint), and a
   location-independent per-flow digest. *)
type core_instance = {
  ci_worker : Worker.t;
  ci_program : Program.t;
  ci_pool : Netcore.Packet.Pool.pool;
  ci_export : int list -> (string * string) list;
  ci_import : (string * string) list -> unit;
  ci_apply : (string * string) list -> unit;
      (* SCR update upsert: overwrite resident flows, admit absent ones
         (the Migration apply surface) — unlike ci_import, safe on an
         instance that already holds the flow *)
  ci_counters : unit -> (string * int) list;
  ci_restore : (string * int) list -> unit;
  ci_flow_digest : Fingerprint.t -> int -> unit;
}

type rcase = {
  r_name : string;
  r_seed : int;
  r_packets : int;
  r_universe : int;  (* flow/session universe size; hints are [0, universe) *)
  r_cfg : Worker.cfg;  (* per-core config before LLC partitioning *)
  r_trace : unit -> Workload.item list;
      (* the case's global input stream, pristine packets; traced once per
         check and shared (as clones) by the reference and killed passes,
         so packet ids line up across both *)
  r_build : Worker.t -> owned:int array -> core_instance;
  r_selector : string;  (* the CLI flags that select this case *)
}

(* ----- tracing ----- *)

let drain (source : Workload.source) =
  let rec go acc = match source () with Some it -> go (it :: acc) | None -> List.rev acc in
  go []

let owned_ids ~cores ~universe core =
  Array.of_list
    (List.filter
       (fun i -> Platform.Recovery.owner ~cores i = core)
       (List.init universe Fun.id))

(* ----- generated cases (Progen.recipe) ----- *)

(* GSYN1: the synthetic unit's per-flow state on the wire — key (u64),
   universe flow id (u32), sequence number (u32), scratch accumulator
   (u64). A flow's id is [syn_ident] of its slot, which is the id the
   recovery plane asked for. *)
let syn_codec : Progen.syn_state Nfs.Migration.codec =
  {
    Nfs.Migration.magic = "GSYN1";
    entry_bytes = 24;
    label = "synthetic";
    arena = "state";
    classifier = (fun st -> st.Progen.syn_classifier);
    encode =
      (fun st b off slot ->
        Bytes.set_int32_le b (off + 8) (Int32.of_int st.Progen.syn_ident.(slot));
        Bytes.set_int32_le b (off + 12) (Int32.of_int st.Progen.syn_seqs.(slot));
        Bytes.set_int64_le b (off + 16) (Int64.of_int st.Progen.syn_scratch.(slot)));
    validate = None;
    decode =
      (fun st s off slot ->
        st.Progen.syn_ident.(slot) <- Int32.to_int (String.get_int32_le s (off + 8));
        st.Progen.syn_seqs.(slot) <- Int32.to_int (String.get_int32_le s (off + 12));
        st.Progen.syn_scratch.(slot) <- Int64.to_int (String.get_int64_le s (off + 16)));
    capacity = (fun st -> Array.length st.Progen.syn_seqs);
    next_free = (fun st -> st.Progen.syn_next);
    set_next_free = (fun st v -> st.Progen.syn_next <- v);
    recycling = None;
    feed =
      (fun st fp slot ->
        Fingerprint.feed_int fp st.Progen.syn_seqs.(slot);
        Fingerprint.feed_int fp st.Progen.syn_scratch.(slot));
  }

(* A core's instance of a catalog-built composition: every stateful NF's
   snapshotter is the state plane. *)
let catalog_instance worker (built : Nfs.Catalog.built) ~flow ~owned =
  built.Nfs.Catalog.populate (Array.map flow owned);
  let snaps = built.Nfs.Catalog.snapshots in
  let each f blobs =
    List.iter
      (fun (sn : Nfs.Catalog.snapshotter) ->
        Option.iter (f sn) (List.assoc_opt sn.Nfs.Catalog.sn_name blobs))
      snaps
  in
  {
    ci_worker = worker;
    ci_program = built.Nfs.Catalog.program;
    ci_pool = Netcore.Packet.Pool.create (Worker.layout worker) ~count:256;
    ci_export =
      (fun ids ->
        let flows = List.map flow ids in
        List.map
          (fun (sn : Nfs.Catalog.snapshotter) ->
            (sn.Nfs.Catalog.sn_name, sn.Nfs.Catalog.sn_export flows))
          snaps);
    ci_import = each (fun sn blob -> ignore (sn.Nfs.Catalog.sn_import blob : int));
    ci_apply = each (fun sn blob -> ignore (sn.Nfs.Catalog.sn_apply blob : int));
    ci_counters = (fun () -> []);
    ci_restore = (fun _ -> ());
    ci_flow_digest =
      (fun fp i ->
        List.iter
          (fun (sn : Nfs.Catalog.snapshotter) -> sn.Nfs.Catalog.sn_flow_digest fp (flow i))
          snaps);
  }

let synthetic_instance ~seed ~shape ~gen worker ~owned =
  let layout = Worker.layout worker in
  let flow i = Traffic.Flowgen.flow gen i in
  let unit, _digest, st =
    Progen.synthetic_unit layout ~seed ~sh:shape ~ident:owned
      ~flows:(Array.map flow owned) ()
  in
  let program =
    Nfs.Nf_unit.compile ~opts:shape.Progen.syn_opts ~name:"gen-syn" [ unit ]
  in
  let blob f blobs =
    Option.iter (fun b -> ignore (f syn_codec st b : int)) (List.assoc_opt "syn" blobs)
  in
  {
    ci_worker = worker;
    ci_program = program;
    ci_pool = Netcore.Packet.Pool.create layout ~count:256;
    ci_export = (fun ids -> [ ("syn", Nfs.Migration.export syn_codec st (List.map flow ids)) ]);
    ci_import = blob Nfs.Migration.import;
    ci_apply = blob Nfs.Migration.apply;
    ci_counters = (fun () -> [ ("syn.total", !(st.Progen.syn_total)) ]);
    ci_restore =
      List.iter (fun (name, v) ->
          if String.equal name "syn.total" then
            st.Progen.syn_total := !(st.Progen.syn_total) + v);
    ci_flow_digest = (fun fp i -> Nfs.Migration.flow_digest syn_codec st fp (flow i));
  }

let gen_rcase ~seed ~profile ~packets : rcase =
  let recipe = Progen.recipe ~seed in
  Progen.check_recipe ~seed recipe;
  let universe =
    match recipe with
    | Progen.Chain { n_flows; _ } -> n_flows
    | Progen.Synthetic { shape } -> shape.Progen.syn_flows
  in
  let gen () = Progen.flowgen_for ~profile ~seed ~n_flows:universe in
  {
    r_name =
      Printf.sprintf "rec-gen-%s-%d"
        (match recipe with Progen.Chain _ -> "chain" | Progen.Synthetic _ -> "syn")
        seed;
    r_seed = seed;
    r_packets = packets;
    r_universe = universe;
    r_cfg = { Worker.default_cfg with Worker.mem_cfg = Progen.small_mem_cfg };
    r_trace =
      (fun () ->
        let worker = Progen.fresh_worker () in
        let pool = Netcore.Packet.Pool.create (Worker.layout worker) ~count:256 in
        drain (Progen.make_source ~profile ~seed ~gen:(gen ()) ~pool ~packets));
    r_build =
      (match recipe with
      | Progen.Chain { families; n_flows; opts } ->
          fun worker ~owned ->
            let gen = gen () in
            let built =
              Nfs.Catalog.build (Worker.layout worker) ~nf:(Progen.chain_spec families)
                ~modules:(Lazy.force Progen.builtin_modules) ~n_flows ~opts ()
            in
            catalog_instance worker built ~flow:(Traffic.Flowgen.flow gen) ~owned
      | Progen.Synthetic { shape } ->
          fun worker ~owned ->
            synthetic_instance ~seed ~shape ~gen:(gen ()) worker ~owned);
    r_selector = Progen.gen_selector ~profile;
  }

(* ----- cases over the on-disk specs/ compositions ----- *)

let spec_universe = 64

let upf_instance ~specs_dir ~mgw worker ~owned =
  let layout = Worker.layout worker in
  let upf, instances, nf =
    Progen.upf_assembly ~capacity:spec_universe layout ~specs_dir ~mgw
  in
  Array.iter
    (fun i ->
      let s = Traffic.Mgw.session mgw i in
      match
        Nfs.Upf.install_session upf ~ue_ip:s.Traffic.Mgw.ue_ip ~teid:s.Traffic.Mgw.teid
      with
      | Ok _ -> ()
      | Error cause ->
          invalid_arg (Printf.sprintf "recovery: UPF session install rejected (cause %d)" cause))
    owned;
  let ue_ips ids = List.map (fun i -> (Traffic.Mgw.session mgw i).Traffic.Mgw.ue_ip) ids in
  let upf_blob f blobs = Option.iter f (List.assoc_opt "upf" blobs) in
  {
    ci_worker = worker;
    ci_program = Compiler.compile ~name:nf.Spec.n_name instances nf;
    ci_pool = Netcore.Packet.Pool.create layout ~count:256;
    ci_export = (fun ids -> [ ("upf", Nfs.Migration.export_upf upf (ue_ips ids)) ]);
    ci_import = upf_blob (fun blob -> ignore (Nfs.Migration.import_upf upf blob : int));
    ci_apply = upf_blob (fun blob -> ignore (Nfs.Migration.apply_upf upf blob : int));
    ci_counters =
      (fun () ->
        [
          ("upf.encapsulated", upf.Nfs.Upf.encapsulated);
          ("upf.decapsulated", upf.Nfs.Upf.decapsulated);
        ]);
    ci_restore =
      List.iter (fun (name, v) ->
          if String.equal name "upf.encapsulated" then
            upf.Nfs.Upf.encapsulated <- upf.Nfs.Upf.encapsulated + v
          else if String.equal name "upf.decapsulated" then
            upf.Nfs.Upf.decapsulated <- upf.Nfs.Upf.decapsulated + v);
    ci_flow_digest =
      (fun fp i ->
        (* the export blob IS the session's identity (UE IP, TEID) when
           present, and a zero-count header when not: location-independent
           either way *)
        Fingerprint.feed_string fp (Nfs.Migration.export_upf upf (ue_ips [ i ])));
  }

let spec_rcase ~specs_dir ~name ~seed ~packets : rcase =
  let trace source () =
    let worker = Worker.create ~id:0 () in
    let pool = Netcore.Packet.Pool.create (Worker.layout worker) ~count:256 in
    drain (source ~pool)
  in
  let case ~trace ~build =
    {
      r_name = "rec-spec-" ^ name;
      r_seed = seed;
      r_packets = packets;
      r_universe = spec_universe;
      r_cfg = Worker.default_cfg;
      r_trace = trace;
      r_build = build;
      r_selector = "--spec " ^ name;
    }
  in
  match name with
  | "upf_downlink" ->
      let mgw = Traffic.Mgw.create ~seed ~n_sessions:spec_universe ~n_pdrs:4 () in
      case
        ~trace:(trace (fun ~pool -> Workload.of_mgw_downlink mgw ~pool ~count:packets))
        ~build:(fun worker ~owned -> upf_instance ~specs_dir ~mgw worker ~owned)
  | _ ->
      let profile = "zipf" in
      let gen () = Progen.flowgen_for ~profile ~seed ~n_flows:spec_universe in
      case
        ~trace:(trace (fun ~pool ->
            Progen.make_source ~profile ~seed ~gen:(gen ()) ~pool ~packets))
        ~build:(fun worker ~owned ->
          let built =
            Nfs.Catalog.build_from_files (Worker.layout worker)
              ~nf_file:(Filename.concat specs_dir (name ^ ".yaml"))
              ~specs_dir ~n_flows:spec_universe ()
          in
          catalog_instance worker built ~flow:(Traffic.Flowgen.flow (gen ())) ~owned)

(* ----- the engine ----- *)

(* Victim checkpoint payload: named per-NF snapshot blobs, commutative
   counters (absolute at checkpoint time; restore ADDS) and the fault
   plane's per-flow containment state. *)
type ckpt = {
  ck_snaps : (string * string) list;
  ck_counters : (string * int) list;
  ck_containment : (int * int * bool) list;
}

let take_ckpt (ci : core_instance) plane owned () =
  let ids = Array.to_list owned in
  {
    ck_snaps = ci.ci_export ids;
    ck_counters = ci.ci_counters ();
    ck_containment = Fault.export_containment plane ids;
  }

(* What a core's source does next. [Deliver] hands out a clone of a traced
   item (rolling the chaos plan at the item's GLOBAL index, so the
   schedule is sharding-independent); [Replay] re-presents a logged clone,
   re-arming the injection the victim recorded without re-corrupting (the
   bytes are already mangled in the log copy); [Adopt] runs the
   checkpoint-import thunk between two pulls — a quiescent point under
   RTC. *)
type op =
  | Deliver of int * Workload.item
  | Replay of Platform.Recovery.entry
  | Adopt of (unit -> unit)

let make_source ?plan ~plane ~pool ?journal ops : Workload.source =
  let ops = ref ops in
  let rec next () =
    match !ops with
    | [] -> None
    | Adopt f :: rest ->
        ops := rest;
        f ();
        next ()
    | Replay e :: rest ->
        ops := rest;
        let pkt = Option.map Netcore.Packet.clone e.Platform.Recovery.e_pkt in
        Option.iter (Netcore.Packet.Pool.assign pool) pkt;
        (match (e.Platform.Recovery.e_inj, pkt) with
        | Some inj, Some p -> Fault.inject plane ~packet_id:p.Netcore.Packet.id inj
        | _ -> ());
        Some
          {
            Workload.packet = pkt;
            aux = e.Platform.Recovery.e_aux;
            flow_hint = e.Platform.Recovery.e_hint;
          }
    | Deliver (g, item) :: rest ->
        ops := rest;
        (match journal with
        | Some (j, snapshot) ->
            if Platform.Recovery.boundary j then
              Platform.Recovery.checkpoint j (snapshot ())
        | None -> ());
        let pkt = Option.map Netcore.Packet.clone item.Workload.packet in
        Option.iter (Netcore.Packet.Pool.assign pool) pkt;
        let inj =
          match (plan, pkt) with
          | Some fg, Some p -> Faultgen.arm fg ~plane ~index:g p
          | _ -> None
        in
        (match journal with
        | Some (j, _) ->
            Platform.Recovery.record j
              {
                Platform.Recovery.e_pkt = Option.map Netcore.Packet.clone pkt;
                e_hint = item.Workload.flow_hint;
                e_aux = item.Workload.aux;
                e_inj = inj;
              }
        | None -> ());
        Some
          {
            Workload.packet = pkt;
            aux = item.Workload.aux;
            flow_hint = item.Workload.flow_hint;
          }
  in
  next

(* Run one core to completion under RTC, recording the same observables
   as the single-core oracle. *)
let observe_core ~label ~plane (ci : core_instance) source : Oracle.observation =
  Oracle.record ~label (Worker.ctx ci.ci_worker) source (fun ~on_complete source ->
      Exec.run ~fault:plane ~on_complete `Rtc ci.ci_worker ci.ci_program source)

(* Named counters summed across cores, sorted by name. *)
let sum_counters (per_core : (string * int) list list) =
  let totals : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (name, v) ->
         Hashtbl.replace totals name
           (v + Option.value ~default:0 (Hashtbl.find_opt totals name))))
    per_core;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals [] |> List.sort compare

(* Location-independent final-state digest: each universe flow's NF state
   read from the core that finally owns it, its containment state, then
   the commutative counters summed over live cores. *)
let state_digest ~universe ~owner_of ~live (cis : core_instance array)
    (planes : Fault.t array) =
  Fingerprint.of_fn (fun fp ->
      for i = 0 to universe - 1 do
        let c = owner_of i in
        cis.(c).ci_flow_digest fp i;
        Fingerprint.feed_int fp (Fault.consecutive_faults planes.(c) i);
        Fingerprint.feed_bool fp (Fault.poisoned planes.(c) i)
      done;
      Array.to_list cis
      |> List.filteri (fun c _ -> live c)
      |> List.map (fun ci -> ci.ci_counters ())
      |> sum_counters
      |> List.iter (fun (name, v) ->
             Fingerprint.feed_string fp name;
             Fingerprint.feed_int fp v))

type content = int * int * string * bool * int * string

(* One full platform pass, merged and digested. *)
type pass = {
  p_obs : (string * Oracle.observation) list;  (* live cores, core order *)
  p_streams : (int * content list) list;  (* merged per-flow emit contents *)
  p_digest : string;
}

(* One instance per core of a fresh [cores]-core platform, core [c]
   holding the flows [owned c]. *)
let instances (rc : rcase) ~cores ~owned =
  let plat = Platform.create ~cfg:rc.r_cfg ~cores () in
  Array.init cores (fun c -> rc.r_build (Platform.worker plat c) ~owned:(owned c))

let indexed items = List.mapi (fun g item -> (g, item)) items

let delivers ~cores ~core ?lo ?hi items =
  List.filter_map
    (fun (g, item) ->
      let mine = Platform.Recovery.owner ~cores item.Workload.flow_hint = core in
      let above = match lo with Some l -> g > l | None -> true in
      let below = match hi with Some h -> g <= h | None -> true in
      if mine && above && below then Some (Deliver (g, item)) else None)
    items

(* The failure-free platform pass: every core processes its owned slice of
   the global stream. [journal] turns on checkpoint/replay bookkeeping on
   every core without consuming it — the inertness axis: journaling is
   pure reads and clones, so observations must be byte-identical with it
   on or off (pinned by test). *)
let platform_pass ?plan ?(journal = false)
    ?(rplan = Platform.Recovery.default_plan) ~cores ~items (rc : rcase) : pass =
  let items = indexed items in
  let cis = instances rc ~cores ~owned:(owned_ids ~cores ~universe:rc.r_universe) in
  let planes = Array.init cores (fun _ -> Fault.create ()) in
  let obs =
    Array.to_list
      (Array.init cores (fun c ->
           let jopt =
             if journal then
               Some
                 ( Platform.Recovery.journal rplan,
                   take_ckpt cis.(c) planes.(c)
                     (owned_ids ~cores ~universe:rc.r_universe c) )
             else None
           in
           let source =
             make_source ?plan ~plane:planes.(c) ~pool:cis.(c).ci_pool ?journal:jopt
               (delivers ~cores ~core:c items)
           in
           let label = Printf.sprintf "core%d" c in
           (label, observe_core ~label ~plane:planes.(c) cis.(c) source)))
  in
  let emits = List.concat_map (fun (_, o) -> o.Oracle.o_emits) obs in
  {
    p_obs = obs;
    p_streams = Oracle.per_flow_streams emits;
    p_digest =
      state_digest ~universe:rc.r_universe
        ~owner_of:(Platform.Recovery.owner ~cores)
        ~live:(fun _ -> true) cis planes;
  }

let observe_platform ?plan ?journal ?rplan ?items ~cores (rc : rcase) : pass =
  let items = match items with Some l -> l | None -> rc.r_trace () in
  platform_pass ?plan ?journal ?rplan ~cores ~items rc

let pass_totals (p : pass) =
  List.fold_left
    (fun (pk, dr, fl, wb) (_, (o : Oracle.observation)) ->
      let r = o.Oracle.o_run in
      ( pk + r.Metrics.packets,
        dr + r.Metrics.drops,
        fl + r.Metrics.faulted,
        wb + r.Metrics.wire_bytes ))
    (0, 0, 0, 0) p.p_obs

(* First difference between the reference pass and the [variant] pass, or
   [None]: with [~totals], the completion/drop/fault/wire-byte totals
   first; then the per-flow streams and the state digest. A recovered
   pass skips the totals — its live cores complete the replayed suffix
   twice. *)
let diff_passes ?(totals = false) ~variant ~(reference : pass) (obs : pass) :
    string option =
  let rp, rd, rf, rw = if totals then pass_totals reference else (0, 0, 0, 0) in
  let vp, vd, vf, vw = if totals then pass_totals obs else (0, 0, 0, 0) in
  let differ what r v =
    Some (Printf.sprintf "%s differ: %d (reference) vs %d (%s)" what r v variant)
  in
  let rec diff_streams a b =
    match (a, b) with
    | [], [] -> None
    | (fa, _) :: _, [] -> Some (Printf.sprintf "flow %d missing from %s run" fa variant)
    | [], (fb, _) :: _ -> Some (Printf.sprintf "%s run invented flow %d" variant fb)
    | (fa, sa) :: ra, (fb, sb) :: rb ->
        if fa <> fb then
          Some (Printf.sprintf "flow sets differ: %d (reference) vs %d (%s)" fa fb variant)
        else if List.length sa <> List.length sb then
          Some
            (Printf.sprintf "flow %d: %d completions (reference) vs %d (%s)" fa
               (List.length sa) (List.length sb) variant)
        else if sa <> sb then
          Some (Printf.sprintf "flow %d: emit-content streams differ" fa)
        else diff_streams ra rb
  in
  if rp <> vp then differ "completion counts" rp vp
  else if rd <> vd then differ "drop counts" rd vd
  else if rf <> vf then differ "faulted counts" rf vf
  else if rw <> vw then differ "wire bytes" rw vw
  else
    match diff_streams reference.p_streams obs.p_streams with
    | Some d -> Some d
    | None ->
        if String.equal reference.p_digest obs.p_digest then None
        else
          Some
            (Printf.sprintf "state digests differ: %s (reference) vs %s (%s)"
               reference.p_digest obs.p_digest variant)

(* Every live core's observation through the oracle's invariants. *)
let pass_violations (p : pass) = List.concat_map (fun (_, o) -> Oracle.violations o) p.p_obs

(* ----- the platform outcome, shared by the recovery, SCR and adaptive axes ----- *)

type 'x outcome = {
  oc_case : string;
  oc_packets : int;
  oc_summary : string;
  oc_verdict : string;
  oc_reference : pass;
  oc_variant : pass;
  oc_violations : (string * Oracle.violation) list;
  oc_divergence : string option;
  oc_repro : string;
  oc_extra : 'x;
}

let passed oc = oc.oc_violations = [] && oc.oc_divergence = None

let pp_outcome ppf oc =
  Fmt.pf ppf "%s %s: %s" oc.oc_case oc.oc_summary
    (if passed oc then oc.oc_verdict
     else
       let why =
         match (oc.oc_divergence, oc.oc_violations) with
         | Some d, _ -> "DIVERGED: " ^ d
         | None, (where, viol) :: _ ->
             Fmt.str "INVARIANT VIOLATIONS (%d; first under %s: %a)"
               (List.length oc.oc_violations) where Oracle.pp_violation viol
         | None, [] -> "INVARIANT VIOLATIONS"
       in
       why ^ "; replay: " ^ oc.oc_repro)

let repro (rc : rcase) ~command flags =
  Oracle.repro ~command ~selector:rc.r_selector ~seed:rc.r_seed ~packets:rc.r_packets
    flags

(* ----- the recovery axis ----- *)

type kill = {
  k_cores : int;
  k_kill : (int * int) option;  (* (victim, global kill index) *)
  k_replayed : int;  (* journal-suffix completions replayed by the adopter *)
  k_checkpoints : int;  (* checkpoints the victim took *)
}

(* The chaos pass: same platform, same schedule, but core [victim] dies
   right after global pull [g_kill] and core [(victim + 1) mod cores]
   adopts its flows — checkpoint restore, suffix replay, redirected
   remainder — all in the adopter's single run. *)
let kill_pass ?plan ~rplan ~cores ~items ~packets (rc : rcase) (victim, g_kill) =
  if victim < 0 || victim >= cores then
    invalid_arg "Recovery.check_case: victim out of range";
  let adopter = (victim + 1) mod cores in
  let ixitems = indexed items in
  let cis = instances rc ~cores ~owned:(owned_ids ~cores ~universe:rc.r_universe) in
  let planes = Array.init cores (fun _ -> Fault.create ()) in
  (* 1. The victim runs its truncated stream, journaling every pull. *)
  let j = Platform.Recovery.journal rplan in
  let checkpoints = ref 0 in
  let victim_owned = owned_ids ~cores ~universe:rc.r_universe victim in
  let snapshot () =
    incr checkpoints;
    take_ckpt cis.(victim) planes.(victim) victim_owned ()
  in
  let vobs =
    observe_core
      ~label:(Printf.sprintf "core%d" victim)
      ~plane:planes.(victim) cis.(victim)
      (make_source ?plan ~plane:planes.(victim) ~pool:cis.(victim).ci_pool
         ~journal:(j, snapshot)
         (delivers ~cores ~core:victim ~hi:g_kill ixitems))
  in
  let ck =
    match Platform.Recovery.last_checkpoint j with
    | Some ck -> ck
    | None -> snapshot () (* victim died before its first pull *)
  in
  let suffix = Platform.Recovery.suffix j in
  (* 2. The adopter: own pre-kill slice, then checkpoint import +
     suffix replay, then the merged post-kill remainder (its own items
     and the victim's redirected ones, in global order). *)
  let adopt () =
    cis.(adopter).ci_import ck.ck_snaps;
    cis.(adopter).ci_restore ck.ck_counters;
    Fault.restore_containment planes.(adopter) ck.ck_containment
  in
  let post_kill =
    List.filter_map
      (fun (g, item) ->
        let owner = Platform.Recovery.owner ~cores item.Workload.flow_hint in
        if g > g_kill && (owner = adopter || owner = victim) then
          Some (Deliver (g, item))
        else None)
      ixitems
  in
  let adopter_ops =
    delivers ~cores ~core:adopter ~hi:g_kill ixitems
    @ (Adopt adopt :: List.map (fun e -> Replay e) suffix)
    @ post_kill
  in
  let aobs =
    observe_core
      ~label:(Printf.sprintf "core%d" adopter)
      ~plane:planes.(adopter) cis.(adopter)
      (make_source ?plan ~plane:planes.(adopter) ~pool:cis.(adopter).ci_pool
         adopter_ops)
  in
  (* 3. Bystander cores, unaffected. *)
  let others =
    List.filter_map
      (fun c ->
        if c = victim || c = adopter then None
        else
          Some
            ( Printf.sprintf "core%d" c,
              observe_core
                ~label:(Printf.sprintf "core%d" c)
                ~plane:planes.(c) cis.(c)
                (make_source ?plan ~plane:planes.(c) ~pool:cis.(c).ci_pool
                   (delivers ~cores ~core:c ixitems)) ))
      (List.init cores Fun.id)
  in
  (* 4. Exactly-once: every replayed completion is a duplicate of one
     the victim already emitted — suppress it from the merged stream,
     keep the pair for content verification. *)
  let replay_ids : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Platform.Recovery.entry) ->
      match e.Platform.Recovery.e_pkt with
      | Some p -> Hashtbl.replace replay_ids p.Netcore.Packet.id ()
      | None -> ())
    suffix;
  let victim_by_id : (int, Oracle.emit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Oracle.emit) -> Hashtbl.replace victim_by_id e.Oracle.e_pktid e)
    vobs.Oracle.o_emits;
  let suppressed, adopter_kept =
    List.partition_map
      (fun (e : Oracle.emit) ->
        if e.Oracle.e_pktid >= 0 && Hashtbl.mem replay_ids e.Oracle.e_pktid then
          Either.Left (e, Hashtbl.find_opt victim_by_id e.Oracle.e_pktid)
        else Either.Right e)
      aobs.Oracle.o_emits
  in
  (* Merged stream: victim first (its pre-kill emits made the wire),
     then the adopter minus replays, then bystanders. Flow sets are
     disjoint across cores, so per-flow order is concatenation order
     only within the victim -> adopter pair, which matches global
     arrival order. *)
  let live_obs =
    ((Printf.sprintf "core%d" victim, vobs)
    :: (Printf.sprintf "core%d" adopter, aobs) :: others)
  in
  let merged =
    vobs.Oracle.o_emits @ adopter_kept
    @ List.concat_map (fun (_, o) -> o.Oracle.o_emits) others
  in
  let recovered =
    {
      p_obs = live_obs;
      p_streams = Oracle.per_flow_streams merged;
      p_digest =
        state_digest ~universe:rc.r_universe
          ~owner_of:(fun i ->
            let c = Platform.Recovery.owner ~cores i in
            if c = victim then adopter else c)
          ~live:(fun c -> c <> victim) cis planes;
    }
  in
  let recovery_violations =
    List.map
      (fun viol -> ("recovery", viol))
      (Invariants.check_recovery ~offered:packets ~live:live_obs ~deduped:merged
         ~suppressed)
  in
  ( recovered,
    List.length suffix,
    !checkpoints,
    pass_violations recovered @ recovery_violations )

let check_case ?plan ?kill ?(rplan = Platform.Recovery.default_plan) ~cores
    (rc : rcase) : kill outcome =
  let items = rc.r_trace () in
  let packets = List.length items in
  let kill =
    match kill with
    | Some _ as k -> k
    | None -> Option.bind plan (fun fg -> Faultgen.decide_kill fg ~cores ~packets)
  in
  let reference = platform_pass ?plan ~rplan ~cores ~items rc in
  let recovered, replayed, checkpoints, violations =
    match kill with
    | None -> (reference, 0, 0, [])
    | Some k -> kill_pass ?plan ~rplan ~cores ~items ~packets rc k
  in
  {
    oc_case = rc.r_name;
    oc_packets = packets;
    oc_summary =
      Printf.sprintf "cores=%d packets=%d %s replayed=%d ckpts=%d" cores packets
        (match kill with
        | Some (v, g) -> Printf.sprintf "kill=core%d@%d" v g
        | None -> "kill=none")
        replayed checkpoints;
    oc_verdict = "recovered";
    oc_reference = reference;
    oc_variant = recovered;
    oc_violations = violations;
    oc_divergence = diff_passes ~variant:"recovered" ~reference recovered;
    oc_repro =
      repro rc ~command:"chaos --kill-cores"
        ((Printf.sprintf "--cores %d" cores :: Oracle.plan_flags plan)
        @ [ Printf.sprintf "--epoch %d" rplan.Platform.Recovery.epoch ]);
    oc_extra =
      {
        k_cores = cores;
        k_kill = kill;
        k_replayed = replayed;
        k_checkpoints = checkpoints;
      };
  }

(* ----- building blocks of the SCR and adaptive axes ----- *)

(* A core instance as an SCR replica. *)
let replica (ci : core_instance) =
  {
    Scaleout.Scr.sc_worker = ci.ci_worker;
    sc_program = ci.ci_program;
    sc_pool = ci.ci_pool;
    sc_export = (fun i -> ci.ci_export [ i ]);
    sc_apply = (fun r -> ci.ci_apply r.Scaleout.Update_log.u_payload);
    sc_counters = ci.ci_counters;
    sc_flow_digest = ci.ci_flow_digest;
  }

(* The traced stream as one core's source: each pull clones the pristine
   packet into [pool] and arms the plan at the item's global index. *)
let deliver ?plan ~plane ~pool items =
  make_source ?plan ~plane ~pool (List.mapi (fun g item -> Deliver (g, item)) items)

(* ----- case selection ----- *)

type _ cases = Oracle_cases : Oracle.case cases | Platform_cases : rcase cases

let select : type c.
    c cases -> specs_dir:string -> programs:int -> seed:int -> packets:int ->
    ?profile:string -> ?spec:string -> unit -> c list =
 fun kind ~specs_dir ~programs ~seed ~packets ?profile ?spec () ->
  if packets < 1 then invalid_arg "--packets must be positive";
  let spec_case name : c =
    match kind with
    | Oracle_cases -> Progen.spec_case ~specs_dir ~name ~seed ~packets ()
    | Platform_cases -> spec_rcase ~specs_dir ~name ~seed ~packets
  in
  let gen_case (seed, profile) : c =
    match kind with
    | Oracle_cases -> Progen.case ~seed ~profile ~packets
    | Platform_cases -> gen_rcase ~seed ~profile ~packets
  in
  match spec with
  | Some "all" -> List.map spec_case Progen.spec_names
  | Some name when List.mem name Progen.spec_names -> [ spec_case name ]
  | Some name ->
      invalid_arg
        (Printf.sprintf "unknown composition %s (expected %s or all)" name
           (String.concat ", " Progen.spec_names))
  | None ->
      if programs < 1 then invalid_arg "--programs must be positive";
      let profiles =
        match profile with
        | None -> Progen.profiles
        | Some p when List.mem p Progen.profiles -> [ p ]
        | Some p ->
            invalid_arg
              (Printf.sprintf "unknown profile %s (expected one of: %s)" p
                 (String.concat ", " Progen.profiles))
      in
      let seeds = List.init programs (fun i -> seed + i) in
      (* The oracle has always swept seed-major, the platform axes
         profile-major; the gates' output order depends on it. *)
      List.map gen_case
        (match kind with
        | Oracle_cases ->
            List.concat_map (fun s -> List.map (fun p -> (s, p)) profiles) seeds
        | Platform_cases ->
            List.concat_map (fun p -> List.map (fun s -> (s, p)) seeds) profiles)
