(* SMF-lite: the session management function's N4 side. Builds PFCP
   Session Establishment / Deletion requests (matching the UPF's PDR
   shape), drives them against a UPF's N4 agent, and tracks the
   established sessions by their UP F-SEID. *)

exception Smf_error of string

type established = {
  up_seid : int64;
  e_ue_ip : Netcore.Ipv4.addr;
  e_teid : int32;
}

let smf_addr = Netcore.Ipv4.addr_of_string "10.250.1.1"

type t = {
  mutable next_seid : int64;
  mutable next_seq : int;
  mutable sessions : established list;
  mutable rejected : int;
}

let create () =
  { next_seid = 1L; next_seq = 1; sessions = []; rejected = 0 }

let n_established t = List.length t.sessions

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* Build the Create PDR / Create FAR set for a session with [n_pdrs]
   detection rules partitioning the source-port space (the MGW shape). *)
let rules ~n_pdrs ~teid ~ran_ip =
  let far_id = 1l in
  let pdrs =
    List.init n_pdrs (fun j ->
        let lo, hi = Traffic.Mgw.pdr_port_range ~n_pdrs ~pdr:j in
        {
          Netcore.Pfcp.pdr_id = j;
          precedence = Int32.of_int (100 + j);
          pdi =
            {
              Netcore.Pfcp.src_port_lo = lo;
              src_port_hi = hi;
              proto = Netcore.Ipv4.proto_udp;
            };
          far_id;
        })
  in
  let fars =
    [ { Netcore.Pfcp.far_id_v = far_id; forward = true; outer_teid = teid; outer_ipv4 = ran_ip } ]
  in
  (pdrs, fars)

let establishment_request t ~ue_ip ~teid ~n_pdrs ~ran_ip =
  let cp_seid = t.next_seid in
  t.next_seid <- Int64.add t.next_seid 1L;
  let pdrs, fars = rules ~n_pdrs ~teid ~ran_ip in
  Netcore.Pfcp.encode
    {
      Netcore.Pfcp.seid = 0L (* establishment addresses the node *);
      seq = fresh_seq t;
      payload =
        Netcore.Pfcp.Establishment_request
          Netcore.Pfcp.{ cp_seid; cp_addr = smf_addr; ue_ip; pdrs; fars };
    }

(* Drive a full establishment exchange against a UPF's N4 agent. *)
let establish t (upf : Upf.t) ~ue_ip ~teid ~ran_ip =
  let request = establishment_request t ~ue_ip ~teid ~n_pdrs:upf.Upf.n_pdrs ~ran_ip in
  match Netcore.Pfcp.decode (Upf.handle_pfcp upf request) with
  | { Netcore.Pfcp.payload = Netcore.Pfcp.Establishment_response r; _ } ->
      if r.cause = Netcore.Pfcp.cause_accepted then begin
        t.sessions <-
          { up_seid = r.up_seid; e_ue_ip = ue_ip; e_teid = teid } :: t.sessions;
        Ok r.up_seid
      end
      else begin
        t.rejected <- t.rejected + 1;
        Error r.cause
      end
  | _ -> raise (Smf_error "unexpected response to establishment request")
  | exception Netcore.Pfcp.Malformed msg -> raise (Smf_error ("bad response: " ^ msg))

let delete t (upf : Upf.t) ~up_seid =
  let request =
    Netcore.Pfcp.encode
      { Netcore.Pfcp.seid = up_seid; seq = fresh_seq t; payload = Netcore.Pfcp.Deletion_request }
  in
  match Netcore.Pfcp.decode (Upf.handle_pfcp upf request) with
  | { Netcore.Pfcp.payload = Netcore.Pfcp.Deletion_response r; _ } ->
      if r.cause = Netcore.Pfcp.cause_accepted then
        t.sessions <- List.filter (fun s -> s.up_seid <> up_seid) t.sessions;
      r.cause
  | _ -> raise (Smf_error "unexpected response to deletion request")
  | exception Netcore.Pfcp.Malformed msg -> raise (Smf_error ("bad response: " ^ msg))
