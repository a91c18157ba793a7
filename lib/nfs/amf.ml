(* 5G Access and Mobility Management Function — the state-complexity
   workhorse of EXP B / Fig 12.

   The per-UE context is large (> 20 cache lines, as the paper measures for
   Free5GC-derived state) and each initial-registration message touches a
   different slice of it. Granular decomposition makes those slices
   explicit: the dispatch action classifies the message, and the fetching
   function of each handler control state names exactly the fields the
   handler will read — so the runtime prefetches precisely them, and data
   packing (§VI-B) co-locates each handler's fields into few cache lines.

   The handlers genuinely drive a per-UE registration state machine (and
   are unit-tested against out-of-order messages). *)

open Gunfu
open Structures

(* ----- UE context layout (sizes in bytes; total ~1.3 KiB = 21 lines) ----- *)

let context_fields =
  [
    ("supi", 16); ("suci", 32); ("guti", 16); ("pei", 16); ("tmsi", 8);
    ("auth_vector", 64); ("rand", 16); ("res_star", 16); ("kamf", 32);
    ("kseaf", 32); ("abba", 8);
    ("nas_sec_ctx", 96); ("ul_nas_count", 8); ("dl_nas_count", 8); ("sec_algs", 8);
    ("reg_state", 8); ("rm_state", 8); ("cm_state", 8); ("proc_state", 16);
    ("retry_counters", 16);
    ("tai", 8); ("plmn", 8); ("nssai", 64); ("cap_5gmm", 16); ("ue_radio_cap", 192);
    ("pdu_sessions", 256); ("sm_contexts", 128); ("event_subs", 64);
    ("pcf_binding", 32); ("last_msg", 96);
  ]

let field_bytes name =
  match List.assoc_opt name context_fields with
  | Some b -> b
  | None -> invalid_arg ("Amf.field_bytes: unknown field " ^ name)

(* Which context fields each message touches. *)
let message_fields = function
  | Traffic.Mgw.Registration_request ->
      [ "supi"; "suci"; "guti"; "reg_state"; "rm_state"; "proc_state"; "cap_5gmm";
        "ue_radio_cap"; "tai"; "plmn"; "last_msg" ]
  | Traffic.Mgw.Authentication_response ->
      [ "auth_vector"; "rand"; "res_star"; "kamf"; "kseaf"; "abba"; "proc_state" ]
  | Traffic.Mgw.Security_mode_complete ->
      [ "nas_sec_ctx"; "ul_nas_count"; "dl_nas_count"; "sec_algs"; "kamf"; "proc_state" ]
  | Traffic.Mgw.Registration_complete ->
      [ "reg_state"; "rm_state"; "cm_state"; "guti"; "tmsi"; "tai"; "nssai"; "proc_state" ]
  | Traffic.Mgw.Pdu_session_request ->
      [ "pdu_sessions"; "sm_contexts"; "cm_state"; "nssai"; "pcf_binding"; "ul_nas_count" ]
  | Traffic.Mgw.Service_request ->
      [ "guti"; "tmsi"; "nas_sec_ctx"; "ul_nas_count"; "cm_state"; "proc_state" ]
  | Traffic.Mgw.Periodic_update ->
      [ "guti"; "reg_state"; "tai"; "plmn"; "retry_counters"; "proc_state" ]
  | Traffic.Mgw.Context_release -> [ "cm_state"; "event_subs"; "proc_state" ]
  | Traffic.Mgw.Deregistration_request ->
      [ "supi"; "guti"; "reg_state"; "rm_state"; "cm_state"; "pdu_sessions";
        "sm_contexts"; "event_subs"; "proc_state" ]

(* Handler compute weight (cycles). NAS message handling is compute-heavy:
   integrity verification and ciphering (AES/SNOW over the NAS PDU), key
   derivation on the security-procedure messages, ASN.1/NAS codec work —
   which is why the paper's AMF gain (Fig 12, ~60%) is far smaller than the
   UPF's: state access is a large but not overwhelming share of the
   message-processing time. *)
let message_cycles = function
  | Traffic.Mgw.Registration_request -> 2000
  | Traffic.Mgw.Authentication_response -> 3200
  | Traffic.Mgw.Security_mode_complete -> 2800
  | Traffic.Mgw.Registration_complete -> 1200
  | Traffic.Mgw.Pdu_session_request -> 2000
  | Traffic.Mgw.Service_request -> 1400  (* NAS integrity check + paging state *)
  | Traffic.Mgw.Periodic_update -> 900
  | Traffic.Mgw.Context_release -> 500
  | Traffic.Mgw.Deregistration_request -> 1100

let all_msgs = Traffic.Mgw.all_amf_msgs

(* Packing input: each message's field set, weighted by how often it occurs
   (uniform across the registration sequence). *)
let packing_accesses =
  List.map
    (fun m ->
      { Packing.fields = message_fields m; weight = 1.0 })
    all_msgs

let packing_fields =
  List.map (fun (name, bytes) -> { Packing.name; bytes }) context_fields

(* ----- spec ----- *)

let handler_cs m = "handle_" ^ String.lowercase_ascii (Traffic.Mgw.amf_msg_name m)
let msg_event m = "msg_" ^ String.lowercase_ascii (Traffic.Mgw.amf_msg_name m)
let state_name m = "ue_" ^ String.lowercase_ascii (Traffic.Mgw.amf_msg_name m)

(* The dispatch event of each message, by [Workload.amf_msg_code], built
   once: a per-message string would allocate on every dispatch, and
   [Specialize]'s physical-equality memo could never hit. *)
let msg_events =
  Array.init (List.length all_msgs) (fun code ->
      Event.User (msg_event (Workload.amf_msg_of_code code)))

let spec_text =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "module: amf_handler\ncategory: StatefulNF\nparameters:\n- plmn\n- served_guami\ntransitions:\n- Start,MATCH_SUCCESS->dispatch\n";
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "- dispatch,%s->%s\n- %s,packet->End\n" (msg_event m)
           (handler_cs m) (handler_cs m)))
    all_msgs;
  Buffer.add_string buf "fetching:\n  dispatch:\n  - header\n";
  List.iter
    (fun m ->
      Buffer.add_string buf (Printf.sprintf "  %s:\n  - %s\n" (handler_cs m) (state_name m)))
    all_msgs;
  Buffer.add_string buf "states:\n  header: packet\n";
  List.iter
    (fun m -> Buffer.add_string buf (Printf.sprintf "  %s: per_flow\n" (state_name m)))
    all_msgs;
  Buffer.contents buf

let spec = lazy (Spec.module_spec_of_string spec_text)

(* ----- instance state ----- *)

type t = {
  name : string;
  classifier : Classifier.t;
  arena : State_arena.t;
  packed : bool;
  n_ues : int;
  progress : int array;  (* per-UE position in the registration sequence *)
  registrations : int array;  (* completed registrations per UE *)
  mutable protocol_errors : int;
}

(* The per-UE lifecycle FSM the handlers drive (phases: 0..4 registration
   sequence, 5 = CM-CONNECTED, 6 = CM-IDLE; same encoding as the
   generator's). Returns the next phase when [msg] is valid in [phase]. *)
let connected = Traffic.Mgw.phase_connected
let idle = Traffic.Mgw.phase_idle

let lifecycle_step ~phase (msg : Traffic.Mgw.amf_msg) =
  match msg with
  | Traffic.Mgw.Registration_request when phase = 0 -> Some 1
  | Traffic.Mgw.Authentication_response when phase = 1 -> Some 2
  | Traffic.Mgw.Security_mode_complete when phase = 2 -> Some 3
  | Traffic.Mgw.Registration_complete when phase = 3 -> Some 4
  | Traffic.Mgw.Pdu_session_request when phase = 4 -> Some connected
  | Traffic.Mgw.Pdu_session_request when phase = connected -> Some connected
  | Traffic.Mgw.Periodic_update when phase = connected -> Some connected
  | Traffic.Mgw.Context_release when phase = connected -> Some idle
  | Traffic.Mgw.Service_request when phase = idle -> Some connected
  | Traffic.Mgw.Deregistration_request when phase = connected || phase = idle -> Some 0
  | _ -> None

(* Where to resynchronise after an out-of-order message. *)
let resync_phase (msg : Traffic.Mgw.amf_msg) =
  match msg with
  | Traffic.Mgw.Registration_request -> 1
  | Traffic.Mgw.Authentication_response -> 2
  | Traffic.Mgw.Security_mode_complete -> 3
  | Traffic.Mgw.Registration_complete -> 4
  | Traffic.Mgw.Pdu_session_request | Traffic.Mgw.Service_request
  | Traffic.Mgw.Periodic_update ->
      connected
  | Traffic.Mgw.Context_release -> idle
  | Traffic.Mgw.Deregistration_request -> 0

(* AMF looks UEs up by their NGAP id; the workload carries it in
   [flow_hint]. *)
let ue_key (task : Nftask.t) =
  Bytes.set_int64_le task.Nftask.temps.Nftask.key 0
    (Int64.of_int (task.Nftask.flow_hint + 1))

let create layout ~name ?(packed = false) ~n_ues () =
  let classifier =
    Classifier.create layout ~name:(name ^ "_cls") ~key_kind:"amf_ue_id" ~key_fn:ue_key
      ~capacity:n_ues ()
  in
  let field_offsets, record_bytes =
    if packed then Packing.pack ~line_bytes:64 packing_fields packing_accesses
    else Packing.sequential packing_fields
  in
  let arena =
    State_arena.create_record layout ~label:(name ^ ".ue_context") ~field_offsets
      ~record_bytes ~count:n_ues ()
  in
  {
    name;
    classifier;
    arena;
    packed;
    n_ues;
    progress = Array.make n_ues 0;
    registrations = Array.make n_ues 0;
    protocol_errors = 0;
  }

let populate t =
  let (_shed : int) =
    Classifier.populate t.classifier
      (List.init t.n_ues (fun i -> (Int64.of_int (i + 1), i)))
  in
  ()

(* ----- actions ----- *)

let dispatch_action t =
  Action.make ~base_cycles:30 ~base_instrs:26 ~name:(t.name ^ ".dispatch")
    (fun ctx task ->
      Nf_common.packet_read ctx task ~bytes:80;
      (* Parse the NAS PDU from the actual bytes when a packet is present
         (the workload also carries the code in [aux] for non-packet
         drivers and cross-checks). *)
      let msg =
        match task.Nftask.packet with
        | Some p -> (
            let nas_off =
              p.Netcore.Packet.l4_off + Netcore.L4.tcp_header_bytes
            in
            match Netcore.Nas.decode p.Netcore.Packet.buf ~off:nas_off with
            | nas -> (
                match Workload.msg_of_nas_type nas.Netcore.Nas.msg_type with
                | Some m -> m
                | None -> Workload.amf_msg_of_code task.Nftask.aux)
            | exception Netcore.Nas.Malformed _ ->
                Workload.amf_msg_of_code task.Nftask.aux)
        | None -> Workload.amf_msg_of_code task.Nftask.aux
      in
      msg_events.(Workload.amf_msg_code msg))

let handler_action t msg =
  let fields = message_fields msg in
  Action.make ~base_cycles:(message_cycles msg)
    ~base_instrs:(message_cycles msg * 4 / 5)
    ~name:(t.name ^ "." ^ handler_cs msg)
    (fun ctx task ->
      let ue = Nf_common.matched_exn task t.name in
      (* Touch exactly the declared context slice. *)
      List.iter
        (fun f ->
          Exec_ctx.read ctx ~cls:Sref.Per_flow
            ~addr:(State_arena.field_addr t.arena ue f)
            ~bytes:(field_bytes f))
        fields;
      (* Drive the UE lifecycle state machine. *)
      (match lifecycle_step ~phase:t.progress.(ue) msg with
      | Some next ->
          t.progress.(ue) <- next;
          if msg = Traffic.Mgw.Registration_complete then
            t.registrations.(ue) <- t.registrations.(ue) + 1
      | None ->
          (* Out-of-order NAS message: count and resynchronise. *)
          t.protocol_errors <- t.protocol_errors + 1;
          t.progress.(ue) <- resync_phase msg);
      (* Persist the updated procedure state. *)
      Exec_ctx.write ctx ~cls:Sref.Per_flow
        ~addr:(State_arena.field_addr t.arena ue "proc_state")
        ~bytes:(field_bytes "proc_state");
      Event.Packet_arrival)

let handler_instance t : Compiler.instance =
  let fields_with_bytes m = List.map (fun f -> (f, field_bytes f)) (message_fields m) in
  {
    Compiler.i_name = t.name ^ "_hdl";
    i_spec = Lazy.force spec;
    i_actions =
      ("dispatch", dispatch_action t)
      :: List.map (fun m -> (handler_cs m, handler_action t m)) all_msgs;
    i_bindings =
      (* 80 bytes: the TCP/IP headers plus the NAS PDU dispatch parses. *)
      ("header", Prefetch.Packet_header 80)
      :: List.map
           (fun m -> (state_name m, Prefetch.Per_flow (t.arena, fields_with_bytes m)))
           all_msgs;
    i_key_kind = None;
  }

let unit t =
  Nf_unit.classified
    ~classifier:(Classifier.instance t.classifier)
    ~data_instance:(handler_instance t)

let program ?(opts = Compiler.default_opts) t = Nf_unit.compile ~opts ~name:t.name [ unit t ]

(* Cache lines per message under this instance's layout — the quantity data
   packing optimises (reported in Fig 12's discussion). *)
let lines_per_message t msg =
  let offsets = List.map (fun (n, _) -> (n, State_arena.field_offset t.arena n)) context_fields in
  Packing.lines_touched ~line_bytes:64 packing_fields offsets
    { Packing.fields = message_fields msg; weight = 1.0 }
