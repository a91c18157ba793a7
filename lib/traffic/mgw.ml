(* Mobile-gateway workloads, after the Telco Pipeline Benchmarking System
   (Lévai et al.) MGW use cases the paper extends:

   - UPF downlink: a population of PFCP sessions (one per UE, keyed by UE
     IP, carrying a GTP-U TEID towards the RAN), each with [n_pdrs] Packet
     Detection Rules that partition the remote source-port space. Generated
     packets are N6-side downlink IP packets whose 5-tuple selects exactly
     one (session, PDR) pair.

   - AMF initial registration: per-UE NGAP/NAS message sequences; each
     message type touches a different slice of the (large) UE context. *)

open Netcore

type session = { ue_ip : Ipv4.addr; teid : int32; n_pdrs : int }

type t = {
  sessions : session array;
  rng : Memsim.Rng.t;
  zipf : Zipf.t option;
  wire_len : int;
}

let ue_ip_of_index i = Int32.of_int (0x64000000 lor (i land 0xFFFFFF)) (* 100.x.y.z *)
let teid_of_index i = Int32.of_int (0x1000 + i)

(* PDR [j] of a session matches remote source ports in [port_lo, port_hi]:
   [span] ports from [1024 + j * span]. *)
let pdr_span n_pdrs = 49152 / n_pdrs

let pdr_port_range ~n_pdrs ~pdr =
  if pdr < 0 || pdr >= n_pdrs then invalid_arg "Mgw.pdr_port_range";
  let span = pdr_span n_pdrs in
  let lo = 1024 + (pdr * span) in
  (lo, lo + span - 1)

let create ?(seed = 11) ?(popularity = Flowgen.Uniform) ?(wire_len = 128)
    ~n_sessions ~n_pdrs () =
  if n_sessions <= 0 || n_pdrs <= 0 then invalid_arg "Mgw.create";
  let sessions =
    Array.init n_sessions (fun i ->
        { ue_ip = ue_ip_of_index i; teid = teid_of_index i; n_pdrs })
  in
  let zipf =
    match popularity with
    | Flowgen.Uniform -> None
    | Flowgen.Zipf s -> Some (Zipf.create ~n:n_sessions ~s)
  in
  { sessions; rng = Memsim.Rng.create seed; zipf; wire_len }

let sessions t = t.sessions
let session t i = t.sessions.(i)

(* A downlink pull is two draws, in this order: the session index, then
   the packet (its PDR and source port). They are separate calls so that
   a pull builds no tuple. *)
let next_session t =
  match t.zipf with
  | None -> Memsim.Rng.int t.rng (Array.length t.sessions)
  | Some z -> Zipf.sample z t.rng

(* The 512 data-network hosts 8.8.0.0-8.8.1.255 that talk to UEs, one
   shared box each: session [si] talks to [remotes.(si mod 512)]. *)
let remotes = Array.init 512 (fun k -> Int32.of_int (0x08080000 lor k))

(* A downlink packet towards session [si]'s UE, hitting a sampled PDR, as
   a work item's option; with [arena], the recycled slot's stored [Some]. *)
let downlink ?arena t si =
  let s = t.sessions.(si) in
  let pdr = Memsim.Rng.int t.rng s.n_pdrs in
  (* [pdr_port_range], without allocating its pair. *)
  let span = pdr_span s.n_pdrs in
  let lo = 1024 + (pdr * span) in
  let src_port = Memsim.Rng.int_in_range t.rng ~lo ~hi:(lo + span - 1) in
  let flow =
    Flow.make ~src_ip:remotes.(si mod 512) ~dst_ip:s.ue_ip ~src_port
      ~dst_port:(10000 + (si mod 1000)) ~proto:Ipv4.proto_udp
  in
  Packet.make_some ?arena ~flow ~wire_len:t.wire_len ()

(* An uplink packet: UE -> data network, GTP-U encapsulated by the RAN
   towards the UPF's N3 address. *)
let next_uplink t ~ran_ip ~upf_ip =
  let si = next_session t in
  let s = t.sessions.(si) in
  let flow =
    Flow.make ~src_ip:s.ue_ip ~dst_ip:remotes.(si mod 512)
      ~src_port:(10000 + (si mod 1000))
      ~dst_port:(Memsim.Rng.int_in_range t.rng ~lo:1024 ~hi:50175)
      ~proto:Ipv4.proto_udp
  in
  let pkt = Packet.make ~flow ~wire_len:t.wire_len () in
  Packet.encapsulate_gtpu pkt ~outer_src:ran_ip ~outer_dst:upf_ip ~teid:s.teid;
  (si, pkt)

(* ----- session churn storms ----- *)

(* A seeded teardown/re-setup storm over the session population. Each step
   rolls an independent churn RNG: with probability [rate_ppm] / 1e6 the
   storm flips one session (live -> torn down, or torn down -> re-setup);
   otherwise it emits a plain downlink data packet via [downlink] —
   which may well target a torn-down session, exercising the consumer's
   session-miss path exactly like traffic racing a PFCP deletion. *)
type churn_event =
  | Churn_teardown of int
  | Churn_setup of int
  | Churn_data of int * Packet.t

type churn = {
  c_mgw : t;
  c_rng : Memsim.Rng.t;
  c_rate_ppm : int;
  c_down : bool array;
  mutable c_n_down : int;
  mutable c_events : int;
}

let churn ?(seed = 29) ~rate_ppm t =
  if rate_ppm < 0 || rate_ppm > 1_000_000 then invalid_arg "Mgw.churn";
  {
    c_mgw = t;
    c_rng = Memsim.Rng.create seed;
    c_rate_ppm = rate_ppm;
    c_down = Array.make (Array.length t.sessions) false;
    c_n_down = 0;
    c_events = 0;
  }

let churn_next ?arena c =
  if Memsim.Rng.int c.c_rng 1_000_000 < c.c_rate_ppm then begin
    let i = Memsim.Rng.int c.c_rng (Array.length c.c_mgw.sessions) in
    c.c_events <- c.c_events + 1;
    if c.c_down.(i) then begin
      c.c_down.(i) <- false;
      c.c_n_down <- c.c_n_down - 1;
      Churn_setup i
    end
    else begin
      c.c_down.(i) <- true;
      c.c_n_down <- c.c_n_down + 1;
      Churn_teardown i
    end
  end
  else
    let si = next_session c.c_mgw in
    Churn_data (si, Option.get (downlink ?arena c.c_mgw si))

let churn_live c i = not c.c_down.(i)
let churn_down_count c = c.c_n_down
let churn_events c = c.c_events

(* ----- AMF initial-registration call flow ----- *)

(* The state-access-heavy messages of the Free5GC initial registration test
   cases the paper ports to DPDK (§II-B, EXP B), plus the steady-state
   lifecycle messages (service request, periodic update, AN release,
   deregistration) that make the workload genuinely heterogeneous — the
   "different user behaviors, hence different state lookup methods,
   application logic executed and states accessed" of §II-C. *)
type amf_msg =
  | Registration_request
  | Authentication_response
  | Security_mode_complete
  | Registration_complete
  | Pdu_session_request
  | Service_request  (* idle UE resumes *)
  | Periodic_update  (* periodic registration update *)
  | Context_release  (* AN release: connected -> idle *)
  | Deregistration_request

let registration_sequence =
  [|
    Registration_request;
    Authentication_response;
    Security_mode_complete;
    Registration_complete;
    Pdu_session_request;
  |]

let amf_msg_name = function
  | Registration_request -> "RegistrationRequest"
  | Authentication_response -> "AuthenticationResponse"
  | Security_mode_complete -> "SecurityModeComplete"
  | Registration_complete -> "RegistrationComplete"
  | Pdu_session_request -> "PDUSessionRequest"
  | Service_request -> "ServiceRequest"
  | Periodic_update -> "PeriodicRegistrationUpdate"
  | Context_release -> "UEContextRelease"
  | Deregistration_request -> "DeregistrationRequest"

let all_amf_msgs =
  Array.to_list registration_sequence
  @ [ Service_request; Periodic_update; Context_release; Deregistration_request ]

(* Per-UE lifecycle phase, mirrored by the AMF implementation:
   0..4 = position in the registration sequence, 5 = CM-CONNECTED,
   6 = CM-IDLE. *)
let phase_connected = 5
let phase_idle = 6

type amf_gen = {
  progress : int array;  (* per-UE lifecycle phase *)
  amf_rng : Memsim.Rng.t;
  amf_zipf : Zipf.t option;
}

let amf_create ?(seed = 23) ?(popularity = Flowgen.Uniform) ~n_ues () =
  if n_ues <= 0 then invalid_arg "Mgw.amf_create";
  let amf_zipf =
    match popularity with
    | Flowgen.Uniform -> None
    | Flowgen.Zipf s -> Some (Zipf.create ~n:n_ues ~s)
  in
  { progress = Array.make n_ues 0; amf_rng = Memsim.Rng.create seed; amf_zipf }

(* Next (ue, message). Fresh UEs walk the 5-message registration sequence;
   registered UEs then live a connected/idle lifecycle with occasional
   deregistration (after which they register anew). Always emits a message
   that is valid for the UE's current phase. *)
let amf_next g =
  let ue =
    match g.amf_zipf with
    | None -> Memsim.Rng.int g.amf_rng (Array.length g.progress)
    | Some z -> Zipf.sample z g.amf_rng
  in
  let phase = g.progress.(ue) in
  let msg =
    if phase < Array.length registration_sequence then begin
      g.progress.(ue) <-
        (if phase + 1 = Array.length registration_sequence then phase_connected
         else phase + 1);
      registration_sequence.(phase)
    end
    else if phase = phase_idle then begin
      g.progress.(ue) <- phase_connected;
      Service_request
    end
    else
      (* CM-CONNECTED *)
      match Memsim.Rng.int g.amf_rng 10 with
      | 0 | 1 | 2 | 3 -> Pdu_session_request
      | 4 | 5 -> Periodic_update
      | 6 | 7 ->
          g.progress.(ue) <- phase_idle;
          Context_release
      | 8 ->
          g.progress.(ue) <- 0;
          Deregistration_request
      | _ -> Periodic_update
  in
  (ue, msg)
