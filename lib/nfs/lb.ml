(* Stateful L4 load balancer (Maglev-style consistency is out of scope; what
   matters here is the state shape): the per-flow state pins a flow to a
   backend so connections never move, and the data action rewrites the
   destination address to that backend. *)

open Gunfu
open Structures

let spec_text =
  {|
module: lb_forwarder
category: StatefulNF
parameters:
- backends
transitions:
- Start,MATCH_SUCCESS->forward
- forward,packet->End
fetching:
  forward:
  - assignment
  - header
states:
  assignment: per_flow
  header: packet
|}

let spec = lazy (Spec.module_spec_of_string spec_text)

type t = {
  name : string;
  classifier : Classifier.t;
  arena : State_arena.t;
  backends : int32 array;
  maglev : Maglev.t;
  assignment : int array;  (* flow index -> backend index *)
  mutable next_free : int;  (* first unused assignment slot (bump allocator) *)
}

let state_bytes = 8

let backends =
  Array.init 16 (fun i -> Int32.of_int (0xC0A86400 lor (i + 1))) (* 192.168.100.x *)

let create layout ~name ?arena ~n_flows () =
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
  {
    name;
    classifier;
    arena;
    backends;
    (* Small Maglev table: plenty for our backend counts and fast to build
       per worker. *)
    maglev = Maglev.build ~table_size:4099 ~n_backends:(Array.length backends) ();
    assignment = Array.make n_flows 0;
    next_free = 0;
  }

let populate t flows =
  Array.iteri
    (fun i flow ->
      (* Maglev consistent hashing: a flow always lands on the same
         backend, including across table rebuilds with small backend-set
         changes. *)
      t.assignment.(i) <- Maglev.lookup t.maglev (Netcore.Flow.key64 flow))
    flows;
  t.next_free <- max t.next_free (Array.length flows);
  ignore (Classifier.populate_flows t.classifier flows : int)

let backend_of t idx = t.backends.(t.assignment.(idx))

let forward_action t =
  Action.make ~base_cycles:18 ~base_instrs:16 ~name:(t.name ^ ".forward")
    (fun ctx task ->
      let idx = Nf_common.per_flow_read ctx task t.arena ~name:t.name in
      let p = Nftask.packet_exn task in
      Netcore.Ipv4.rewrite_dst p.Netcore.Packet.buf ~off:p.Netcore.Packet.l3_off
        ~dst:(backend_of t idx);
      Nf_common.packet_write ctx task ~bytes:4;
      Event.Packet_arrival)

let forwarder_instance t : Compiler.instance =
  {
    Compiler.i_name = t.name ^ "_fwd";
    i_spec = Lazy.force spec;
    i_actions = [ ("forward", forward_action t) ];
    i_bindings =
      [
        ("assignment", Prefetch.Per_flow (t.arena, []));
        ("header", Prefetch.Packet_header 64);
      ];
    i_key_kind = None;
  }

let unit t =
  Nf_unit.classified
    ~classifier:(Classifier.instance t.classifier)
    ~data_instance:(forwarder_instance t)

let program ?(opts = Compiler.default_opts) t = Nf_unit.compile ~opts ~name:t.name [ unit t ]
