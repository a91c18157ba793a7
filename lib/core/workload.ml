(* Work sources feeding the executors. An item is one unit of NF input — a
   packet (for data-plane NFs) and/or an auxiliary code (e.g. the AMF
   message type). Sources are pull-based: [None] means the run is over. *)

open Netcore

type item = {
  packet : Packet.t option;
  aux : int;
  flow_hint : int;  (* generator's flow/session/UE index, for cross-checks *)
}

type source = unit -> item option

(* At most [count] items from a producer. *)
let limited count (produce : unit -> item) : source =
  let left = ref count in
  fun () ->
    if !left <= 0 then None
    else begin
      decr left;
      Some (produce ())
    end

(* Observe every item as it is pulled, without changing the stream. The
   oracle uses this to record the exact input sequence each executor saw. *)
let tap f (src : source) : source =
 fun () ->
  match src () with
  | None -> None
  | Some item ->
      f item;
      Some item

let total_items (items : item list) : source =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let assign pool = function Some p -> Packet.Pool.assign pool p | None -> ()

(* Generic flows (NAT / LB / FW / NM / SFC experiments). The index is
   drawn before the packet, and the packet arrives as the item's option
   (an arena slot's stored [Some]), so a pull allocates only the item and
   its [Some]. *)
let of_flowgen ?arena gen ~pool ~count : source =
  limited count (fun () ->
      let idx = Traffic.Flowgen.next_idx gen in
      let packet = Traffic.Flowgen.packet ?arena gen idx in
      assign pool packet;
      { packet; aux = 0; flow_hint = idx })

(* UPF downlink (MGW workload): flow_hint is the PFCP session index. *)
let of_mgw_downlink ?arena mgw ~pool ~count : source =
  limited count (fun () ->
      let si = Traffic.Mgw.next_session mgw in
      let packet = Traffic.Mgw.downlink ?arena mgw si in
      assign pool packet;
      { packet; aux = 0; flow_hint = si })

(* AMF signalling: aux encodes the message type; small NAS packets. *)
let amf_msg_code = function
  | Traffic.Mgw.Registration_request -> 0
  | Traffic.Mgw.Authentication_response -> 1
  | Traffic.Mgw.Security_mode_complete -> 2
  | Traffic.Mgw.Registration_complete -> 3
  | Traffic.Mgw.Pdu_session_request -> 4
  | Traffic.Mgw.Service_request -> 5
  | Traffic.Mgw.Periodic_update -> 6
  | Traffic.Mgw.Context_release -> 7
  | Traffic.Mgw.Deregistration_request -> 8

let amf_msg_of_code = function
  | 0 -> Traffic.Mgw.Registration_request
  | 1 -> Traffic.Mgw.Authentication_response
  | 2 -> Traffic.Mgw.Security_mode_complete
  | 3 -> Traffic.Mgw.Registration_complete
  | 4 -> Traffic.Mgw.Pdu_session_request
  | 5 -> Traffic.Mgw.Service_request
  | 6 -> Traffic.Mgw.Periodic_update
  | 7 -> Traffic.Mgw.Context_release
  | 8 -> Traffic.Mgw.Deregistration_request
  | n -> invalid_arg (Printf.sprintf "amf_msg_of_code: %d" n)

(* NAS message type on the wire for each workload message. *)
let nas_type_of_msg = function
  | Traffic.Mgw.Registration_request -> Nas.mt_registration_request
  | Traffic.Mgw.Authentication_response -> Nas.mt_authentication_response
  | Traffic.Mgw.Security_mode_complete -> Nas.mt_security_mode_complete
  | Traffic.Mgw.Registration_complete -> Nas.mt_registration_complete
  | Traffic.Mgw.Pdu_session_request -> Nas.mt_ul_nas_transport
  | Traffic.Mgw.Service_request -> Nas.mt_service_request
  | Traffic.Mgw.Periodic_update -> Nas.mt_periodic_update
  | Traffic.Mgw.Context_release -> Nas.mt_context_release
  | Traffic.Mgw.Deregistration_request -> Nas.mt_deregistration_request

let msg_of_nas_type ty =
  if ty = Nas.mt_registration_request then Some Traffic.Mgw.Registration_request
  else if ty = Nas.mt_authentication_response then Some Traffic.Mgw.Authentication_response
  else if ty = Nas.mt_security_mode_complete then Some Traffic.Mgw.Security_mode_complete
  else if ty = Nas.mt_registration_complete then Some Traffic.Mgw.Registration_complete
  else if ty = Nas.mt_ul_nas_transport then Some Traffic.Mgw.Pdu_session_request
  else if ty = Nas.mt_service_request then Some Traffic.Mgw.Service_request
  else if ty = Nas.mt_periodic_update then Some Traffic.Mgw.Periodic_update
  else if ty = Nas.mt_context_release then Some Traffic.Mgw.Context_release
  else if ty = Nas.mt_deregistration_request then Some Traffic.Mgw.Deregistration_request
  else None

(* Build the NGAP/NAS signalling packet for (ue, msg): real TCP/SCTP-port
   headers with a genuine NAS-lite PDU as payload — the AMF's dispatch
   action parses it back out of the bytes. *)
let amf_packet ?arena ~ue ~msg () =
  let flow =
    Flow.make
      ~src_ip:(Int32.of_int (0x0A640000 lor (ue land 0xFFFF)))
      ~dst_ip:(Ipv4.addr_of_string "10.250.0.1")
      ~src_port:(38412 + (ue mod 1000))
      ~dst_port:38412 ~proto:Ipv4.proto_tcp
  in
  let pkt = Packet.make ?arena ~flow ~wire_len:120 () in
  let nas =
    { Nas.msg_type = nas_type_of_msg msg; ue_id = ue; payload_len = 64 }
  in
  Nas.encode nas pkt.Packet.buf ~off:pkt.Packet.hdr_len;
  pkt.Packet.hdr_len <- pkt.Packet.hdr_len + Nas.encoded_bytes;
  pkt

let of_amf ?arena gen ~pool ~count : source =
  limited count (fun () ->
      let ue, msg = Traffic.Mgw.amf_next gen in
      let pkt = amf_packet ?arena ~ue ~msg () in
      Packet.Pool.assign pool pkt;
      { packet = Some pkt; aux = amf_msg_code msg; flow_hint = ue })
