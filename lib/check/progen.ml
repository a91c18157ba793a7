(* Deterministic generation of random-but-valid NF programs and
   adversarial traffic for the differential oracle.

   Two program shapes, both driven by one splitmix seed:

   - catalog chains: 1-3 NFs drawn from the shipped families (static NAT,
     LB, firewall, monitor), composed through {!Nfs.Catalog.build} with the
     real module specs and randomized compiler options — the Fig 4 workflow
     with a generated composition;

   - synthetic modules: a random forward-DAG FSM behind a real cuckoo
     classifier, with random prefetch bindings and per-state actions whose
     branching, drops, state writes and packet rewrites are pure functions
     of (seed, flow, per-flow sequence number) — deterministic for any
     executor interleaving that preserves per-flow order, which is exactly
     the property under test.

   Generated programs deliberately avoid cross-flow-order-dependent state
   (e.g. the dynamic NAT learner's shared allocator): for those, different
   legal interleavings legitimately produce different final state, so they
   cannot serve as oracle subjects. *)

open Gunfu
module Rng = Memsim.Rng

let profiles = [ "uniform"; "zipf"; "burst"; "mix" ]
let spec_names = [ "nat"; "sfc4"; "upf_downlink" ]
let wire_len = 128

(* ----- adversarial traffic ----- *)

(* A fresh source over [gen]'s flow universe. Profiles beyond the plain
   generator draws: single-flow bursts and tightly interleaved flow mixes,
   the patterns most likely to expose per-flow ordering races. *)
let make_source ~profile ~seed ~(gen : Traffic.Flowgen.t) ~pool ~packets =
  let n_flows = Traffic.Flowgen.n_flows gen in
  let item idx =
    let pkt = Netcore.Packet.make ~flow:(Traffic.Flowgen.flow gen idx) ~wire_len () in
    Netcore.Packet.Pool.assign pool pkt;
    { Workload.packet = Some pkt; aux = 0; flow_hint = idx }
  in
  match profile with
  | "uniform" | "zipf" -> Workload.of_flowgen gen ~pool ~count:packets
  | "burst" ->
      (* Runs of 8 consecutive packets from one flow. *)
      let rng = Rng.create (seed * 2654435761 + 17) in
      let current = ref 0 in
      let i = ref 0 in
      Workload.limited packets (fun () ->
          if !i mod 8 = 0 then current := Rng.int rng n_flows;
          incr i;
          item !current)
  | "mix" ->
      (* Two hot flows strictly alternating, with a random third every
         fourth packet — maximal inter-flow interleave pressure. *)
      let rng = Rng.create (seed * 1099511627 + 29) in
      let hot_a = 0 and hot_b = min 1 (n_flows - 1) in
      let i = ref 0 in
      Workload.limited packets (fun () ->
          let n = !i in
          incr i;
          if n mod 4 = 3 && n_flows > 2 then item (Rng.int rng n_flows)
          else item (if n mod 2 = 0 then hot_a else hot_b))
  | p -> invalid_arg (Printf.sprintf "Progen.make_source: unknown profile %s" p)

let flowgen_for ~profile ~seed ~n_flows =
  let popularity =
    match profile with
    | "zipf" -> Traffic.Flowgen.Zipf 1.2
    | _ -> Traffic.Flowgen.Uniform
  in
  Traffic.Flowgen.create ~seed ~popularity ~size_model:(Traffic.Flowgen.Fixed wire_len)
    ~n_flows ()

(* Generated cases run on a scaled-down hierarchy: same shape and
   latencies as the default Xeon model, but without its 33 MB LLC — the
   sweep builds thousands of fresh workers, and the smaller caches miss
   more, stressing the overlap machinery harder. Spec cases keep the
   default config. *)
let small_mem_cfg =
  {
    Memsim.Hierarchy.default_config with
    Memsim.Hierarchy.l2_size = 256 * 1024;
    llc_size = 2 * 1024 * 1024;
    llc_assoc = 16;
  }

let fresh_worker () =
  Worker.create ~cfg:{ Worker.default_cfg with Worker.mem_cfg = small_mem_cfg } ~id:0 ()

(* ----- shape A: catalog chains ----- *)

type family = F_nat | F_lb | F_fw | F_nm

let all_families = [| F_nat; F_lb; F_fw; F_nm |]

let family_module = function
  | F_nat -> ("map", "flow_mapper")
  | F_lb -> ("fwd", "lb_forwarder")
  | F_fw -> ("flt", "fw_filter")
  | F_nm -> ("acc", "nm_counter")

let builtin_modules =
  lazy
    [
      ("flow_classifier", Lazy.force Nfs.Classifier.spec);
      ("flow_mapper", Lazy.force Nfs.Nat.mapper_spec);
      ("lb_forwarder", Lazy.force Nfs.Lb.spec);
      ("fw_filter", Lazy.force Nfs.Firewall.spec);
      ("nm_counter", Lazy.force Nfs.Monitor.spec);
    ]

(* Compose a generated chain the way specs/*.yaml compositions do: per NF a
   classifier wired to its data module on MATCH_SUCCESS, data modules
   chained on their "packet" exit. *)
let chain_spec families =
  let prefixes = List.mapi (fun i _ -> Printf.sprintf "g%d" i) families in
  let modules =
    List.concat
      (List.map2
         (fun p f ->
           let role, mtype = family_module f in
           [ (p ^ "_cls", "flow_classifier"); (p ^ "_" ^ role, mtype) ])
         prefixes families)
  in
  let rec wire = function
    | [] -> []
    | (p, f) :: rest ->
        let role, _ = family_module f in
        let data = p ^ "_" ^ role in
        let next =
          match rest with (q, _) :: _ -> q ^ "_cls" | [] -> Spec.end_state
        in
        { Spec.src = p ^ "_cls"; event = "MATCH_SUCCESS"; dst = data }
        :: { Spec.src = data; event = "packet"; dst = next }
        :: wire rest
  in
  {
    Spec.n_name = "gen-chain";
    n_modules = modules;
    n_transitions = wire (List.combine prefixes families);
  }

(* The three draws are part of seed reproducibility: keep them in this
   one record expression, whose evaluation order fixes the draw order.
   Specialization is exercised by the oracle's explicit axis, not
   randomized here: cases stay interpreted by default so the
   interp-vs-spec cross-check has a genuine baseline. *)
let random_opts rng =
  {
    Compiler.match_removal = Rng.bool rng;
    prefetch_dedup = Rng.bool rng;
    prefetching = Rng.bool rng;
  }

(* The chain shape's draws ({!recipe}'s chain branch). Draw order is
   part of seed reproducibility — do not reorder. *)
let chain_params ~rng =
  let len = Rng.int_in_range rng ~lo:1 ~hi:3 in
  let families =
    List.init len (fun _ -> all_families.(Rng.int rng (Array.length all_families)))
  in
  let n_flows = [| 8; 32; 128 |].(Rng.int rng 3) in
  let opts = random_opts rng in
  (families, n_flows, opts)

let build_chain ~families ~n_flows ~opts ~seed ~profile ~packets =
  let nf = chain_spec families in
  fun ~packets:budget ->
    let worker = fresh_worker () in
    let layout = Worker.layout worker in
    let built =
      Nfs.Catalog.build layout ~nf ~modules:(Lazy.force builtin_modules) ~n_flows ~opts ()
    in
    let gen = flowgen_for ~profile ~seed ~n_flows in
    built.Nfs.Catalog.populate (Traffic.Flowgen.flows gen);
    let pool = Netcore.Packet.Pool.create layout ~count:256 in
    {
      Oracle.worker;
      program = built.Nfs.Catalog.program;
      source = make_source ~profile ~seed ~gen ~pool ~packets:(min budget packets);
      digest = built.Nfs.Catalog.digest;
    }

(* ----- shape B: synthetic random FSMs ----- *)

(* Mixer for per-action decisions: a pure function of the case seed, the
   flow, the flow-local sequence number and the control state, so every
   executor computes identical branches, drops and writes for a given
   packet as long as per-flow order is preserved. *)
let mix seed flow seq state =
  let z = ref (Int64.of_int ((seed * 0x9e3779b9) lxor (flow * 0x85ebca6b) lxor (seq * 0xc2b2ae35) lxor state)) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xbf58476d1ce4e5b9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94d049bb133111ebL;
  Int64.to_int (Int64.logand (Int64.logxor !z (Int64.shift_right_logical !z 31)) 0x3fffffffffffffffL)

(* Per-state shape of the random DAG. The backbone edge ("lo" to the next
   state) keeps every state reachable and End always reachable; optional
   "hi" skip edges and early-DROP exits randomize control flow. *)
type sstate = { s_hi : int option; s_drop : bool }

let seq_reg = 7 (* NFTask temp register holding the flow-local sequence no. *)

(* The synthetic shape's draws plus the module spec they determine. Draw
   order is part of seed reproducibility — do not reorder. *)
type syn_shape = {
  syn_k : int;
  syn_states : sstate array;
  syn_mspec : Spec.module_spec;
  syn_flows : int;
  syn_opts : Compiler.opts;
}

let state_name i = Printf.sprintf "s%d" i

let synthetic_shape ~rng =
  let k = Rng.int_in_range rng ~lo:2 ~hi:5 in
  let shape =
    Array.init k (fun i ->
        if i = k - 1 then { s_hi = None; s_drop = true }
        else
          {
            s_hi =
              (if i + 1 < k - 1 && Rng.bool rng then
                 Some (Rng.int_in_range rng ~lo:(i + 1) ~hi:(k - 1))
               else None);
            s_drop = Rng.int rng 3 = 0;
          })
  in
  (* Random fetching declaration per state: per-flow scratch, packet
     header, both, or nothing. *)
  let fetch_kind = Array.init k (fun _ -> Rng.int rng 4) in
  let n_flows = [| 8; 32; 128 |].(Rng.int rng 3) in
  let opts = random_opts rng in
  let transitions =
    List.concat
      (List.init k (fun i ->
           let s = shape.(i) in
           let base =
             if i = k - 1 then
               [
                 { Spec.src = state_name i; event = "EMIT"; dst = Spec.end_state };
                 { Spec.src = state_name i; event = "DROP"; dst = Spec.end_state };
               ]
             else
               [ { Spec.src = state_name i; event = "lo"; dst = state_name (i + 1) } ]
           in
           let hi =
             match s.s_hi with
             | Some j -> [ { Spec.src = state_name i; event = "hi"; dst = state_name j } ]
             | None -> []
           in
           let drop =
             if s.s_drop && i < k - 1 then
               [ { Spec.src = state_name i; event = "DROP"; dst = Spec.end_state } ]
             else []
           in
           base @ hi @ drop))
  in
  let fetching =
    List.filter_map
      (fun i ->
        match fetch_kind.(i) with
        | 0 -> None
        | 1 -> Some (state_name i, [ "scratch" ])
        | 2 -> Some (state_name i, [ "pkt" ])
        | _ -> Some (state_name i, [ "scratch"; "pkt" ]))
      (List.init k Fun.id)
  in
  let mspec =
    {
      Spec.m_name = "syn_dag";
      m_category = "StatefulNF";
      m_parameters = [];
      m_transitions =
        { Spec.src = Spec.start_state; event = "MATCH_SUCCESS"; dst = state_name 0 }
        :: transitions;
      m_fetching = fetching;
      m_states = [ ("scratch", "per_flow"); ("pkt", "packet_state") ];
      m_nfc = [];
    }
  in
  Spec.validate_module mspec;
  { syn_k = k; syn_states = shape; syn_mspec = mspec; syn_flows = n_flows; syn_opts = opts }

(* The synthetic unit's mutable state, exposed so the recovery plane can
   checkpoint it and re-home flows onto another core. Arrays are indexed
   by *local slot* (the classifier's value); [syn_ident] maps a slot back
   to the flow's universe id, which is what the action mixer keys on — so
   a flow's behaviour is identical no matter which slot (on which core)
   currently holds its state. *)
type syn_state = {
  syn_classifier : Nfs.Classifier.t;
  syn_seqs : int array;
  syn_scratch : int array;
  syn_total : int ref;  (* commutative cross-flow sum *)
  syn_ident : int array;  (* slot -> universe flow id *)
  mutable syn_next : int;  (* first free slot (bump allocator) *)
}

(* The synthetic unit behind the shape: real classifier, state arena and
   per-state actions. [flows] populates the classifier (empty for
   compile-only uses like translation validation); [ident] gives each
   populated slot's universe flow id (defaults to the slot index — the
   single-core layout). Returns the unit, the observable-state digest for
   the oracle, and the state handle for the recovery plane. *)
let synthetic_unit layout ~seed ~(sh : syn_shape) ?ident ~flows () =
  let k = sh.syn_k in
  let shape = sh.syn_states in
  let n_flows = sh.syn_flows in
  let classifier =
    Nfs.Classifier.create layout ~name:"syn_cls" ~key_kind:"five_tuple"
      ~key_fn:Nfs.Classifier.five_tuple_key ~capacity:n_flows ()
  in
  ignore (Nfs.Classifier.populate_flows classifier flows : int);
  let arena =
    Structures.State_arena.create layout ~label:"syn.per_flow" ~entry_bytes:16
      ~count:n_flows ()
  in
  let seqs = Array.make n_flows 0 in
  let scratch = Array.make n_flows 0 in
  let total = ref 0 in
  let ident =
    match ident with
    | Some ids ->
        let a = Array.init n_flows Fun.id in
        Array.blit ids 0 a 0 (Array.length ids);
        a
    | None -> Array.init n_flows Fun.id
  in
  let st =
    {
      syn_classifier = classifier;
      syn_seqs = seqs;
      syn_scratch = scratch;
      syn_total = total;
      syn_ident = ident;
      syn_next = Array.length flows;
    }
  in
  let action i =
    let s = shape.(i) in
    Action.make ~base_cycles:10 ~base_instrs:8 ~name:(Printf.sprintf "syn.s%d" i)
      (fun ctx task ->
        let flow = Nfs.Nf_common.per_flow_read ctx task arena ~name:"syn" in
        if i = 0 then begin
          seqs.(flow) <- seqs.(flow) + 1;
          task.Nftask.temps.Nftask.regs.(seq_reg) <- seqs.(flow)
        end;
        let seq = task.Nftask.temps.Nftask.regs.(seq_reg) in
        let h = mix seed ident.(flow) seq i in
        (* Per-flow state: order-dependent only within its own flow.
           Global total: addition, commutative across flows. *)
        scratch.(flow) <- (scratch.(flow) * 31) + (h land 0xffff);
        total := !total + (h land 0xff);
        ignore (Nfs.Nf_common.per_flow_write ctx task arena ~name:"syn");
        Nfs.Nf_common.packet_read ctx task ~bytes:64;
        (match task.Nftask.packet with
        | Some p when p.Netcore.Packet.hdr_len > 0 ->
            Bytes.set p.Netcore.Packet.buf
              (p.Netcore.Packet.hdr_len - 1)
              (Char.chr (h land 0xff))
        | Some _ | None -> ());
        if i = k - 1 then
          if h mod 7 = 0 then Event.Drop_packet else Event.Emit_packet
        else if s.s_drop && h mod 13 = 0 then Event.Drop_packet
        else
          match s.s_hi with
          | Some _ when h mod 3 = 0 -> Event.User "hi"
          | _ -> Event.User "lo")
  in
  let syn_inst =
    {
      Compiler.i_name = "syn_dag0";
      i_spec = sh.syn_mspec;
      i_actions = List.init k (fun i -> (state_name i, action i));
      i_bindings =
        [
          ("scratch", Prefetch.Per_flow (arena, []));
          ("pkt", Prefetch.Packet_header 64);
        ];
      i_key_kind = None;
    }
  in
  let unit =
    {
      Nfs.Nf_unit.instances = [ Nfs.Classifier.instance classifier; syn_inst ];
      entry = "syn_cls";
      exits = [ ("syn_dag0", "EMIT"); ("syn_dag0", "DROP") ];
      internal =
        [ { Spec.src = "syn_cls"; event = "MATCH_SUCCESS"; dst = "syn_dag0" } ];
    }
  in
  let digest fp =
    Fingerprint.feed_int_array fp scratch;
    Fingerprint.feed_int_array fp seqs;
    Fingerprint.feed_int fp !total
  in
  (unit, digest, st)

let build_synthetic ~sh ~seed ~profile ~packets =
  fun ~packets:budget ->
    let worker = fresh_worker () in
    let layout = Worker.layout worker in
    let gen = flowgen_for ~profile ~seed ~n_flows:sh.syn_flows in
    let unit, digest, _st =
      synthetic_unit layout ~seed ~sh ~flows:(Traffic.Flowgen.flows gen) ()
    in
    let program = Nfs.Nf_unit.compile ~opts:sh.syn_opts ~name:"gen-syn" [ unit ] in
    let pool = Netcore.Packet.Pool.create layout ~count:256 in
    {
      Oracle.worker;
      program;
      source = make_source ~profile ~seed ~gen ~pool ~packets:(min budget packets);
      digest;
    }

(* ----- cases ----- *)

(* The generated program behind a seed, as data rather than a built
   instance — the recovery plane rebuilds the same program once per core,
   each populated with only that core's flow subset. The draw sequence
   (Rng.create, shape coin, then the shape's own draws) is the whole of
   a case's randomness, so [recipe ~seed] and [case ~seed ...] describe
   the same program. *)
type gen_recipe =
  | Chain of { families : family list; n_flows : int; opts : Compiler.opts }
  | Synthetic of { shape : syn_shape }

let recipe ~seed =
  let rng = Rng.create seed in
  if Rng.bool rng then Synthetic { shape = synthetic_shape ~rng }
  else
    let families, n_flows, opts = chain_params ~rng in
    Chain { families; n_flows; opts }

(* The recipe's program compiled under [opts] for the analyzers: a fresh
   layout and no flows, neither of which the compile reads. *)
let recipe_view ~seed ~opts = function
  | Chain { families; n_flows; _ } ->
      Nfs.Catalog.view (Memsim.Layout.create ()) ~nf:(chain_spec families)
        ~modules:(Lazy.force builtin_modules) ~n_flows ~opts ()
  | Synthetic { shape } ->
      let unit, _digest, _st =
        synthetic_unit (Memsim.Layout.create ()) ~seed ~sh:shape ~flows:[||] ()
      in
      Nfs.Nf_unit.view ~opts ~name:"gen-syn" [ unit ]

(* Generated programs must be lint-clean and pass translation validation
   under their own random opts. The compile is deterministic, so one
   check when the case is drawn covers every rebuild of it. *)
let check_recipe ~seed recipe =
  let opts =
    match recipe with Chain { opts; _ } -> opts | Synthetic { shape } -> shape.syn_opts
  in
  Analysis.Register.check (recipe_view ~seed ~opts recipe)

let gen_selector ~profile = "--programs 1 --profile " ^ profile

let case ~seed ~profile ~packets : Oracle.case =
  let recipe = recipe ~seed in
  check_recipe ~seed recipe;
  let kind, build =
    match recipe with
    | Synthetic { shape } -> ("syn", build_synthetic ~sh:shape ~seed ~profile ~packets)
    | Chain { families; n_flows; opts } ->
        ("chain", build_chain ~families ~n_flows ~opts ~seed ~profile ~packets)
  in
  {
    Oracle.c_name = Printf.sprintf "gen-%s-%d" kind seed;
    c_seed = seed;
    c_profile = profile;
    c_packets = packets;
    c_build = build;
    c_selector = gen_selector ~profile;
  }

(* ----- cases built from the on-disk specs/ compositions ----- *)

let catalog_spec_case ?opts ~specs_dir ~name ~seed ~packets () : Oracle.case =
  let profile = "zipf" in
  {
    Oracle.c_name = "spec-" ^ name;
    c_seed = seed;
    c_profile = profile;
    c_packets = packets;
    c_build =
      (fun ~packets:budget ->
        let worker = Worker.create ~id:0 () in
        let layout = Worker.layout worker in
        let built =
          Nfs.Catalog.build_from_files layout
            ~nf_file:(Filename.concat specs_dir (name ^ ".yaml"))
            ~specs_dir ~n_flows:64 ?opts ()
        in
        let gen = flowgen_for ~profile ~seed ~n_flows:64 in
        built.Nfs.Catalog.populate (Traffic.Flowgen.flows gen);
        let pool = Netcore.Packet.Pool.create layout ~count:256 in
        {
          Oracle.worker;
          program = built.Nfs.Catalog.program;
          source = make_source ~profile ~seed ~gen ~pool ~packets:(min budget packets);
          digest = built.Nfs.Catalog.digest;
        });
    c_selector = "--spec " ^ name;
  }

(* The UPF downlink composition: instances from the shipped UPF, module
   FSMs substituted from the on-disk specs, wiring from upf_downlink.yaml
   — so the oracle (and the lint subcommand) genuinely works on the files
   under specs/. *)
let upf_assembly ?(capacity = -1) layout ~specs_dir ~mgw =
  let upf =
    if capacity >= 0 then
      (* Recovery-plane variant: an empty UPF whose sessions arrive through
         the normal PFCP admission path (per-core subsets, re-homing). *)
      Nfs.Upf.create_empty layout ~name:"upf" ~capacity ~n_pdrs:4 ()
    else begin
      let upf =
        Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw)
          ~n_pdrs:4 ()
      in
      Nfs.Upf.populate upf;
      upf
    end
  in
  let modules = Nfs.Catalog.load_modules specs_dir in
  let instances =
    List.map
      (fun (inst : Compiler.instance) ->
        match List.assoc_opt inst.Compiler.i_spec.Spec.m_name modules with
        | Some on_disk -> { inst with Compiler.i_spec = on_disk }
        | None -> inst)
      (Nfs.Upf.unit upf).Nfs.Nf_unit.instances
  in
  let nf =
    Spec.nf_spec_of_string
      (Nfs.Catalog.read_file (Filename.concat specs_dir "upf_downlink.yaml"))
  in
  (upf, instances, nf)

let upf_spec_case ?opts ~specs_dir ~seed ~packets () : Oracle.case =
  {
    Oracle.c_name = "spec-upf_downlink";
    c_seed = seed;
    c_profile = "mgw";
    c_packets = packets;
    c_build =
      (fun ~packets:budget ->
        let worker = Worker.create ~id:0 () in
        let layout = Worker.layout worker in
        let mgw = Traffic.Mgw.create ~seed ~n_sessions:64 ~n_pdrs:4 () in
        let upf, instances, nf = upf_assembly layout ~specs_dir ~mgw in
        let program = Compiler.compile ?opts ~name:nf.Spec.n_name instances nf in
        let pool = Netcore.Packet.Pool.create layout ~count:256 in
        {
          Oracle.worker;
          program;
          source = Workload.of_mgw_downlink mgw ~pool ~count:(min budget packets);
          digest =
            (fun fp ->
              Fingerprint.feed_int fp upf.Nfs.Upf.encapsulated;
              Fingerprint.feed_int fp upf.Nfs.Upf.decapsulated;
              Fingerprint.feed_int fp upf.Nfs.Upf.n_active);
        });
    c_selector = "--spec upf_downlink";
  }

(* One oracle case per composition under [specs_dir]; the module specs the
   compositions reference are all loaded from disk too, so every file in
   specs/ is exercised. *)
let spec_cases ?opts ~specs_dir ~seed ~packets () : Oracle.case list =
  [
    catalog_spec_case ?opts ~specs_dir ~name:"nat" ~seed ~packets ();
    catalog_spec_case ?opts ~specs_dir ~name:"sfc4" ~seed ~packets ();
    upf_spec_case ?opts ~specs_dir ~seed ~packets ();
  ]

let spec_case ?opts ~specs_dir ~name ~seed ~packets () : Oracle.case =
  match name with
  | "nat" | "sfc4" -> catalog_spec_case ?opts ~specs_dir ~name ~seed ~packets ()
  | "upf_downlink" -> upf_spec_case ?opts ~specs_dir ~seed ~packets ()
  | n -> invalid_arg (Printf.sprintf "Progen.spec_case: unknown composition %s" n)

(* ----- analyzer inputs ----- *)

(* All passes on: each program is proven across the full
   {match_removal, prefetch_dedup, specialize} axis. *)
let verify_opts = { Compiler.match_removal = true; prefetch_dedup = true; prefetching = true }

let specialized (v : Compiler.view) =
  Specialize.install v.Compiler.v_program;
  v

(* The same program shapes the oracle fuzzes (same seed, same draws),
   compiled with every pass enabled, specialized hot path included. *)
let gen_view ~seed = specialized (recipe_view ~seed ~opts:verify_opts (recipe ~seed))

(* The lint and verifyeq subcommands' entry point for the on-disk
   compositions: the same assembly the oracle cases run. The seed only
   feeds session-table sizing, never the FSM shape, so findings are
   stable. *)
let spec_view ~opts ~specs_dir ~name () =
  let layout = Memsim.Layout.create () in
  specialized
    (match name with
    | "upf_downlink" ->
        let mgw = Traffic.Mgw.create ~seed:1 ~n_sessions:64 ~n_pdrs:4 () in
        let _, instances, nf = upf_assembly layout ~specs_dir ~mgw in
        Compiler.view ~opts ~name:nf.Spec.n_name instances nf
    | _ ->
        Nfs.Catalog.view_from_files layout
          ~nf_file:(Filename.concat specs_dir (name ^ ".yaml"))
          ~specs_dir ~n_flows:64 ~opts ())

(* ----- random NF-C programs (parser round-trip property) ----- *)

(* A random well-formed NF-C AST, built through {!Gunfu.Nfc.of_body} so
   the temporaries list matches what [parse] would collect. Constants are
   non-negative (the grammar has no unary minus) and identifiers avoid
   the statement keywords. *)
let random_nfc ~seed =
  let rng = Rng.create seed in
  let scopes =
    [| Nfc.Packet; Nfc.Per_flow; Nfc.Sub_flow; Nfc.Control; Nfc.Temp; Nfc.Match_state |]
  in
  let fields = [| "a"; "b"; "len"; "port"; "x0"; "count" |] in
  let ops =
    [|
      Nfc.Add; Nfc.Sub; Nfc.Mul; Nfc.Mod; Nfc.And; Nfc.Eq; Nfc.Ne; Nfc.Lt; Nfc.Gt;
      Nfc.Le; Nfc.Ge;
    |]
  in
  let events = [| "Event_Packet"; "Event_Drop"; "EMIT"; "hash_done" |] in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let rec expr depth =
    if depth = 0 || Rng.int rng 3 = 0 then
      if Rng.bool rng then Nfc.Int (Rng.int rng 65)
      else Nfc.Ref (pick scopes, pick fields)
    else Nfc.Bin (pick ops, expr (depth - 1), expr (depth - 1))
  in
  let rec stmts depth n =
    List.init n (fun _ ->
        match Rng.int rng (if depth = 0 then 3 else 4) with
        | 0 -> Nfc.Assign (pick scopes, pick fields, expr 3)
        | 1 -> Nfc.Emit (pick events)
        | 2 -> Nfc.Drop
        | _ ->
            Nfc.If
              ( expr 2,
                stmts (depth - 1) (1 + Rng.int rng 2),
                stmts (depth - 1) (Rng.int rng 2) ))
  in
  Nfc.of_body ~action_name:"gen" (stmts 2 (1 + Rng.int rng 4))
