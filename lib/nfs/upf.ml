(* 5G User Plane Function, downlink handler (Fig 6(f)): three granularly
   decomposed modules —

     session classifier : cuckoo hash, UE IP -> PFCP session (per-flow)
     pdr_matcher        : MDI interval tree, 5-tuple -> PDR (sub-flow)
     upf_encap          : FAR application, GTP-U encapsulation to the RAN

   The PDR trees form a forest: one logical rule shape shared by all
   sessions, with session-private node addresses, so every lookup pointer-
   chases through that session's own cache lines (the behaviour EXP A
   profiles). *)

open Gunfu
open Structures

let pdr_spec_text =
  {|
module: pdr_matcher
category: StatefulClassifier
parameters:
- n_pdrs
transitions:
- Start,MATCH_SUCCESS->locate_tree
- locate_tree,tree_ready->tree_step
- tree_step,descend->tree_step
- tree_step,MATCH_SUCCESS->End
- tree_step,MATCH_FAIL->End
fetching:
  locate_tree:
  - session
  tree_step:
  - node
states:
  session: per_flow
  node: match
|}

let encap_spec_text =
  {|
module: upf_encap
category: StatefulNF
parameters:
- upf_n3_addr
transitions:
- Start,MATCH_SUCCESS->encap
- encap,packet->End
fetching:
  encap:
  - far
  - header
states:
  far: sub_flow
  header: packet
|}

let decap_spec_text =
  {|
module: upf_decap
category: StatefulNF
parameters:
- n6_gateway
transitions:
- Start,MATCH_SUCCESS->decap
- decap,packet->End
- decap,DROP->End
fetching:
  decap:
  - session
  - header
states:
  session: per_flow
  header: packet
|}

let pdr_spec = lazy (Spec.module_spec_of_string pdr_spec_text)
let encap_spec = lazy (Spec.module_spec_of_string encap_spec_text)
let decap_spec = lazy (Spec.module_spec_of_string decap_spec_text)

type t = {
  name : string;
  classifier : Classifier.t;      (* downlink: UE IP -> PFCP session *)
  uplink_classifier : Classifier.t;  (* uplink: GTP-U TEID -> PFCP session *)
  session_arena : State_arena.t;  (* PFCP session state, 1 line/session *)
  pdr_arena : State_arena.t;      (* PDR+FAR state, 1 line/PDR *)
  forest : Mdi_tree.Forest.forest;
  sessions : Traffic.Mgw.session array;
  n_pdrs : int;
  upf_n3_addr : Netcore.Ipv4.addr;
  ran_addrs : Netcore.Ipv4.addr array;
  mutable encapsulated : int;
  mutable decapsulated : int;
  mutable n_active : int;  (* installed sessions (slots 0..n_active-1) *)
  seid_table : (int64, Netcore.Ipv4.addr) Hashtbl.t;  (* PFCP F-SEID -> UE IP *)
}

let session_bytes = 64
let pdr_bytes = 64

(* PDR rules: the sessions' detection rules partition the remote source-port
   space (the MGW workload shape); rule value is the local PDR index. *)
let pdr_rules ~n_pdrs =
  List.init n_pdrs (fun j ->
      let lo, hi = Traffic.Mgw.pdr_port_range ~n_pdrs ~pdr:j in
      {
        Mdi_tree.src_ip = Mdi_tree.full_range;
        src_port = Mdi_tree.range ~lo ~hi;
        dst_port = Mdi_tree.full_range;
        proto = Mdi_tree.range ~lo:Netcore.Ipv4.proto_udp ~hi:Netcore.Ipv4.proto_udp;
        value = j;
      })

(* Uplink match key: the GTP-U TEID, parsed from the real outer headers. *)
let teid_key (task : Nftask.t) =
  let p = Nftask.packet_exn task in
  let gtpu_off =
    Netcore.Ethernet.header_bytes + Netcore.Ipv4.header_bytes
    + Netcore.L4.udp_header_bytes
  in
  let g = Netcore.Gtpu.decode p.Netcore.Packet.buf ~off:gtpu_off in
  Bytes.set_int64_le task.Nftask.temps.Nftask.key 0
    (Int64.logand (Int64.of_int32 g.Netcore.Gtpu.teid) 0xFFFFFFFFL)

let create layout ~name ~sessions ~n_pdrs () =
  let n_sessions = Array.length sessions in
  if n_sessions = 0 then invalid_arg "Upf.create: no sessions";
  if n_pdrs < 1 then invalid_arg "Upf.create: n_pdrs must be positive";
  let classifier =
    Classifier.create layout ~name:(name ^ "_cls") ~key_kind:"ue_ip"
      ~key_fn:Classifier.dst_ip_key ~capacity:n_sessions ()
  in
  let uplink_classifier =
    Classifier.create layout ~name:(name ^ "_ucls") ~key_kind:"gtpu_teid"
      ~key_fn:teid_key ~capacity:n_sessions ()
  in
  let session_arena =
    State_arena.create layout ~label:(name ^ ".pfcp_session") ~entry_bytes:session_bytes
      ~count:n_sessions ()
  in
  let pdr_arena =
    State_arena.create layout ~label:(name ^ ".pdr") ~entry_bytes:pdr_bytes
      ~count:(n_sessions * n_pdrs) ()
  in
  let forest =
    Mdi_tree.Forest.create layout ~label:(name ^ ".mdi") ~rules:(pdr_rules ~n_pdrs)
      ~members:n_sessions ()
  in
  {
    name;
    classifier;
    uplink_classifier;
    session_arena;
    pdr_arena;
    forest;
    sessions;
    n_pdrs;
    upf_n3_addr = Netcore.Ipv4.addr_of_string "10.200.0.1";
    ran_addrs = Array.init 8 (fun i -> Int32.of_int (0x0AC80100 lor i)) (* 10.200.1.x *);
    encapsulated = 0;
    decapsulated = 0;
    n_active = n_sessions;
    seid_table = Hashtbl.create 64;
  }

(* A UPF with pre-sized capacity but no installed sessions: sessions arrive
   at runtime over PFCP (see {!handle_pfcp}). *)
let create_empty layout ~name ~capacity ~n_pdrs () =
  if capacity <= 0 then invalid_arg "Upf.create_empty";
  if n_pdrs < 1 then invalid_arg "Upf.create: n_pdrs must be positive";
  let placeholder =
    { Traffic.Mgw.ue_ip = 0l; teid = 0l; n_pdrs }
  in
  let t = create layout ~name ~sessions:(Array.make capacity placeholder) ~n_pdrs () in
  t.n_active <- 0;
  t

let populate t =
  let (_shed : int) =
    Classifier.populate t.classifier
      (Array.to_list
         (Array.mapi
            (fun i (s : Traffic.Mgw.session) ->
              (Int64.logand (Int64.of_int32 s.Traffic.Mgw.ue_ip) 0xFFFFFFFFL, i))
            t.sessions))
  in
  let (_shed : int) =
    Classifier.populate t.uplink_classifier
      (Array.to_list
         (Array.mapi
            (fun i (s : Traffic.Mgw.session) ->
              (Int64.logand (Int64.of_int32 s.Traffic.Mgw.teid) 0xFFFFFFFFL, i))
            t.sessions))
  in
  ()

(* ----- runtime session management (driven by PFCP) ----- *)

let install_session t ~ue_ip ~teid =
  if t.n_active >= Array.length t.sessions then Error Netcore.Pfcp.cause_no_resources
  else
    let key = Int64.logand (Int64.of_int32 ue_ip) 0xFFFFFFFFL in
    let upkey = Int64.logand (Int64.of_int32 teid) 0xFFFFFFFFL in
    let down = Classifier.table t.classifier in
    let up = Classifier.table t.uplink_classifier in
    if Structures.Cuckoo.lookup down key <> None then
      Error Netcore.Pfcp.cause_request_rejected (* duplicate UE IP *)
    else if Structures.Cuckoo.lookup up upkey <> None then
      (* A duplicate TEID would silently overwrite the owning session's
         uplink route (cuckoo insert updates in place on key collision). *)
      Error Netcore.Pfcp.cause_request_rejected
    else begin
      let idx = t.n_active in
      let saved = t.sessions.(idx) in
      t.sessions.(idx) <- { Traffic.Mgw.ue_ip; teid; n_pdrs = t.n_pdrs };
      let ok1 = Structures.Cuckoo.insert down ~key ~value:idx in
      let ok2 = ok1 && Structures.Cuckoo.insert up ~key:upkey ~value:idx in
      if ok1 && ok2 then begin
        t.n_active <- idx + 1;
        Ok idx
      end
      else begin
        (* All-or-nothing: a rejected install must leave no trace, or a
           later session landing in this slot would be reachable through
           the dead UE IP (and Migration.import_upf's rollback would be
           unable to restore the pre-import state). *)
        if ok1 then ignore (Structures.Cuckoo.delete down key);
        t.sessions.(idx) <- saved;
        Error Netcore.Pfcp.cause_no_resources
      end
    end

let remove_session t ~ue_ip =
  let key = Int64.logand (Int64.of_int32 ue_ip) 0xFFFFFFFFL in
  match Structures.Cuckoo.lookup (Classifier.table t.classifier) key with
  | None -> false
  | Some idx ->
      ignore (Structures.Cuckoo.delete (Classifier.table t.classifier) key);
      ignore
        (Structures.Cuckoo.delete
           (Classifier.table t.uplink_classifier)
           (Int64.logand (Int64.of_int32 t.sessions.(idx).Traffic.Mgw.teid) 0xFFFFFFFFL));
      true

(* The request's PDRs must be expressible in this UPF's (fixed) per-session
   rule shape: same count, same port partition. *)
let pdrs_match_shape t (pdrs : Netcore.Pfcp.create_pdr list) =
  List.length pdrs = t.n_pdrs
  && List.for_all
       (fun (p : Netcore.Pfcp.create_pdr) ->
         p.Netcore.Pfcp.pdr_id >= 0
         && p.Netcore.Pfcp.pdr_id < t.n_pdrs
         &&
         let lo, hi = Traffic.Mgw.pdr_port_range ~n_pdrs:t.n_pdrs ~pdr:p.Netcore.Pfcp.pdr_id in
         p.Netcore.Pfcp.pdi.Netcore.Pfcp.src_port_lo = lo
         && p.Netcore.Pfcp.pdi.Netcore.Pfcp.src_port_hi = hi)
       pdrs

(* The UPF's N4 agent: decode a PFCP request, act, encode the response. *)
let handle_pfcp t (request : string) =
  let respond ~seid ~seq payload =
    Netcore.Pfcp.encode { Netcore.Pfcp.seid; seq; payload }
  in
  match Netcore.Pfcp.decode request with
  | exception Netcore.Pfcp.Malformed _ ->
      respond ~seid:0L ~seq:0
        (Netcore.Pfcp.Establishment_response
           { cause = Netcore.Pfcp.cause_request_rejected; up_seid = 0L })
  | { Netcore.Pfcp.seid = _; seq; payload = Netcore.Pfcp.Establishment_request e } ->
      let cause, up_seid =
        if not (pdrs_match_shape t e.Netcore.Pfcp.pdrs) then
          (Netcore.Pfcp.cause_request_rejected, 0L)
        else
          match
            (* The FAR carries the tunnel: use the first forwarding FAR. *)
            List.find_opt (fun f -> f.Netcore.Pfcp.forward) e.Netcore.Pfcp.fars
          with
          | None -> (Netcore.Pfcp.cause_request_rejected, 0L)
          | Some far -> (
              match
                install_session t ~ue_ip:e.Netcore.Pfcp.ue_ip
                  ~teid:far.Netcore.Pfcp.outer_teid
              with
              | Error cause -> (cause, 0L)
              | Ok idx ->
                  let up_seid = Int64.of_int (idx + 1) in
                  Hashtbl.replace t.seid_table up_seid e.Netcore.Pfcp.ue_ip;
                  (Netcore.Pfcp.cause_accepted, up_seid))
      in
      respond ~seid:e.Netcore.Pfcp.cp_seid ~seq
        (Netcore.Pfcp.Establishment_response { cause; up_seid })
  | { Netcore.Pfcp.seid; seq; payload = Netcore.Pfcp.Deletion_request } ->
      let cause =
        match Hashtbl.find_opt t.seid_table seid with
        | Some ue_ip when remove_session t ~ue_ip ->
            Hashtbl.remove t.seid_table seid;
            Netcore.Pfcp.cause_accepted
        | Some _ | None -> Netcore.Pfcp.cause_session_not_found
      in
      respond ~seid ~seq (Netcore.Pfcp.Deletion_response { cause })
  | { Netcore.Pfcp.seid; seq; payload = _ } ->
      respond ~seid ~seq
        (Netcore.Pfcp.Establishment_response
           { cause = Netcore.Pfcp.cause_request_rejected; up_seid = 0L })

(* ----- PDR matcher actions ----- *)

(* The shape has at least one rule ([create] rejects [n_pdrs < 1]), so
   every session's tree has a root. *)
let locate_tree_action t =
  Action.make ~kind:Action.Match_action ~base_cycles:16 ~base_instrs:14
    ~invalidates:[ `Match_addrs ] ~name:(t.name ^ ".locate_tree")
    (fun ctx task ->
      (* Read the PFCP session entry to find this session's PDR tree. *)
      let si = Nf_common.per_flow_read ctx task t.session_arena ~name:t.name in
      let root = Mdi_tree.root (Mdi_tree.Forest.shape t.forest) in
      task.Nftask.temps.Nftask.cursor <- root;
      Nftask.set_match task
        ~addr:(Mdi_tree.Forest.node_addr t.forest ~member:si root)
        ~bytes:Mdi_tree.node_bytes;
      Event.User "tree_ready")

let tree_step_action t =
  Action.make ~kind:Action.Match_action ~base_cycles:14 ~base_instrs:14
    ~invalidates:[ `Match_addrs; `Sub_flow ] ~name:(t.name ^ ".tree_step")
    (fun ctx task ->
      Nf_common.match_read ctx task;
      let shape = Mdi_tree.Forest.shape t.forest in
      let si = task.Nftask.matched in
      let flow = (Nftask.packet_exn task).Netcore.Packet.flow in
      let r =
        Mdi_tree.step shape ~node:task.Nftask.temps.Nftask.cursor
          ~src_ip:(Int32.to_int flow.Netcore.Flow.src_ip land 0xFFFFFFFF)
          ~src_port:flow.Netcore.Flow.src_port ~dst_port:flow.Netcore.Flow.dst_port
          ~proto:flow.Netcore.Flow.proto
      in
      if r >= 0 then begin
        task.Nftask.sub_matched <- (si * t.n_pdrs) + r;
        Event.Match_success
      end
      else if r = Mdi_tree.miss then Event.Match_fail
      else begin
        let next = Mdi_tree.descend_to r in
        task.Nftask.temps.Nftask.cursor <- next;
        Nftask.set_match task
          ~addr:(Mdi_tree.Forest.node_addr t.forest ~member:si next)
          ~bytes:Mdi_tree.node_bytes;
        Event.User "descend"
      end)

let pdr_instance t : Compiler.instance =
  {
    Compiler.i_name = t.name ^ "_pdr";
    i_spec = Lazy.force pdr_spec;
    i_actions =
      [ ("locate_tree", locate_tree_action t); ("tree_step", tree_step_action t) ];
    i_bindings =
      [
        ("session", Prefetch.Per_flow (t.session_arena, []));
        ("node", Prefetch.Match_addrs);
      ];
    i_key_kind = Some "five_tuple_pdr";
  }

(* ----- encapsulator ----- *)

let encap_action t =
  Action.make ~base_cycles:60 ~base_instrs:55 ~name:(t.name ^ ".encap")
    (fun ctx task ->
      (* Read the PDR's forwarding action rule (FAR). *)
      let pdr_idx = Nf_common.sub_flow_read ctx task t.pdr_arena ~name:t.name in
      let si = pdr_idx / t.n_pdrs in
      let session = t.sessions.(si) in
      let p = Nftask.packet_exn task in
      (* RAN address keyed by the session's TEID, not its slot index: the
         slot a session occupies is a placement accident (and changes when
         state is re-homed after a core failure), while the TEID is the
         session's identity — the outer header must survive migration. *)
      let ran =
        t.ran_addrs.(Int32.to_int session.Traffic.Mgw.teid land 0xFF
                     mod Array.length t.ran_addrs)
      in
      Netcore.Packet.encapsulate_gtpu p ~outer_src:t.upf_n3_addr ~outer_dst:ran
        ~teid:session.Traffic.Mgw.teid;
      Nf_common.packet_write ctx task ~bytes:64;
      t.encapsulated <- t.encapsulated + 1;
      Event.Packet_arrival)

let encap_instance t : Compiler.instance =
  {
    Compiler.i_name = t.name ^ "_enc";
    i_spec = Lazy.force encap_spec;
    i_actions = [ ("encap", encap_action t) ];
    i_bindings =
      [
        ("far", Prefetch.Sub_flow (t.pdr_arena, []));
        ("header", Prefetch.Packet_header 64);
      ];
    i_key_kind = None;
  }

(* ----- uplink decapsulator ----- *)

let decap_action t =
  Action.make ~base_cycles:40 ~base_instrs:38 ~name:(t.name ^ ".decap")
    (fun ctx task ->
      (* Validate against the PFCP session before stripping the tunnel. *)
      let si = Nf_common.per_flow_read ctx task t.session_arena ~name:t.name in
      let session = t.sessions.(si) in
      let p = Nftask.packet_exn task in
      let teid = Netcore.Packet.decapsulate_gtpu p in
      Nf_common.packet_write ctx task ~bytes:64;
      if Int32.equal teid session.Traffic.Mgw.teid then begin
        t.decapsulated <- t.decapsulated + 1;
        Event.Packet_arrival
      end
      else
        (* TEID/session mismatch: invalid tunnel, drop. *)
        Event.Drop_packet)

let decap_instance t : Compiler.instance =
  {
    Compiler.i_name = t.name ^ "_dec";
    i_spec = Lazy.force decap_spec;
    i_actions = [ ("decap", decap_action t) ];
    i_bindings =
      [
        ("session", Prefetch.Per_flow (t.session_arena, []));
        ("header", Prefetch.Packet_header 64);
      ];
    i_key_kind = None;
  }

(* The uplink handler: TEID classifier -> decapsulator. *)
let uplink_unit t =
  Nf_unit.classified
    ~classifier:(Classifier.instance t.uplink_classifier)
    ~data_instance:(decap_instance t)

let uplink_program ?(opts = Compiler.default_opts) t =
  Nf_unit.compile ~opts ~name:(t.name ^ "_uplink") [ uplink_unit t ]

(* The downlink handler: classifier -> PDR matcher -> encapsulator. *)
let unit t =
  {
    Nf_unit.instances =
      [ Classifier.instance t.classifier; pdr_instance t; encap_instance t ];
    entry = t.classifier.Classifier.name;
    exits = [ (t.name ^ "_enc", "packet") ];
    internal =
      [
        {
          Spec.src = t.classifier.Classifier.name;
          event = "MATCH_SUCCESS";
          dst = t.name ^ "_pdr";
        };
        { Spec.src = t.name ^ "_pdr"; event = "MATCH_SUCCESS"; dst = t.name ^ "_enc" };
      ];
  }

let program ?(opts = Compiler.default_opts) t = Nf_unit.compile ~opts ~name:t.name [ unit t ]

let tree_depth t = Mdi_tree.depth (Mdi_tree.Forest.shape t.forest)
