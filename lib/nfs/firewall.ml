(* Stateful firewall: a policy (ordered rules over 5-tuple ranges) is
   evaluated once when a flow is admitted; the resulting verdict is the
   per-flow state every subsequent packet reads. Different SFC positions
   use different policies (the paper's length-5/6 chains add FW instances
   "with different firewall policies"). *)

open Gunfu
open Structures

let spec_text =
  {|
module: fw_filter
category: StatefulNF
parameters:
- policy
transitions:
- Start,MATCH_SUCCESS->filter
- filter,packet->End
- filter,DROP->End
fetching:
  filter:
  - verdict
states:
  verdict: per_flow
|}

let spec = lazy (Spec.module_spec_of_string spec_text)

type verdict = Accept | Deny

type rule = {
  src_ip_mask : int32 * int32;  (* value, mask *)
  dst_port_range : int * int;
  proto : int option;
  rule_verdict : verdict;
}

type policy = { rules : rule list; default : verdict }

(* First-match policy evaluation — the real thing, exercised at flow
   admission and unit-tested directly. *)
let evaluate policy (flow : Netcore.Flow.t) =
  let matches r =
    let v, m = r.src_ip_mask in
    Int32.equal (Int32.logand flow.Netcore.Flow.src_ip m) (Int32.logand v m)
    && (let lo, hi = r.dst_port_range in
        flow.Netcore.Flow.dst_port >= lo && flow.Netcore.Flow.dst_port <= hi)
    && match r.proto with None -> true | Some p -> p = flow.Netcore.Flow.proto
  in
  match List.find_opt matches policy.rules with
  | Some r -> r.rule_verdict
  | None -> policy.default

(* A permissive default policy that denies a slice of traffic (so the DROP
   path is genuinely exercised): block a /28 of sources towards low ports. *)
let default_policy =
  {
    rules =
      [
        {
          src_ip_mask = (Int32.of_int 0x0A000010, Int32.of_int 0xFFFFFFF0);
          dst_port_range = (0, 1023);
          proto = None;
          rule_verdict = Deny;
        };
      ];
    default = Accept;
  }

(* A stricter policy variant for deeper chain positions. *)
let strict_policy =
  {
    rules =
      [
        {
          src_ip_mask = (Int32.of_int 0x0A000000, Int32.of_int 0xFFFFFF00);
          dst_port_range = (0, 79);
          proto = Some Netcore.Ipv4.proto_tcp;
          rule_verdict = Deny;
        };
        {
          src_ip_mask = (0l, 0l);
          dst_port_range = (0, 65535);
          proto = Some Netcore.Ipv4.proto_icmp;
          rule_verdict = Deny;
        };
      ];
    default = Accept;
  }

type t = {
  name : string;
  classifier : Classifier.t;
  arena : State_arena.t;
  policy : policy;
  verdicts : bool array;  (* true = accept *)
  mutable next_free : int;  (* first unused verdict slot (bump allocator) *)
}

let state_bytes = 16

let create layout ~name ?arena ?(policy = default_policy) ~n_flows () =
  let classifier =
    Classifier.create layout ~name:(name ^ "_cls") ~key_kind:"five_tuple"
      ~key_fn:Classifier.five_tuple_key ~capacity:n_flows ()
  in
  let arena =
    match arena with
    | Some a -> a
    | None ->
        State_arena.create layout ~label:(name ^ ".per_flow") ~entry_bytes:state_bytes
          ~count:n_flows ()
  in
  { name; classifier; arena; policy; verdicts = Array.make n_flows true;
    next_free = 0 }

let populate t flows =
  Array.iteri
    (fun i flow -> t.verdicts.(i) <- evaluate t.policy flow = Accept)
    flows;
  t.next_free <- max t.next_free (Array.length flows);
  ignore (Classifier.populate_flows t.classifier flows : int)

let filter_action t =
  Action.make ~base_cycles:14 ~base_instrs:12 ~name:(t.name ^ ".filter")
    (fun ctx task ->
      let idx = Nf_common.per_flow_read ctx task t.arena ~name:t.name in
      if t.verdicts.(idx) then Event.Packet_arrival else Event.Drop_packet)

let filter_instance t : Compiler.instance =
  {
    Compiler.i_name = t.name ^ "_flt";
    i_spec = Lazy.force spec;
    i_actions = [ ("filter", filter_action t) ];
    i_bindings = [ ("verdict", Prefetch.Per_flow (t.arena, [])) ];
    i_key_kind = None;
  }

let unit t =
  Nf_unit.classified
    ~classifier:(Classifier.instance t.classifier)
    ~data_instance:(filter_instance t)

let program ?(opts = Compiler.default_opts) t = Nf_unit.compile ~opts ~name:t.name [ unit t ]
