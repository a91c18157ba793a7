(* Network monitor: per-flow packet/byte accounting — the read-modify-write
   per-flow pattern (counters are both read and written every packet). *)

open Gunfu
open Structures

let spec_text =
  {|
module: nm_counter
category: StatefulNF
parameters:
- counters
transitions:
- Start,MATCH_SUCCESS->account
- account,packet->End
fetching:
  account:
  - counters
states:
  counters: per_flow
|}

let spec = lazy (Spec.module_spec_of_string spec_text)

type t = {
  name : string;
  classifier : Classifier.t;
  arena : State_arena.t;
  pkt_count : int array;
  byte_count : int array;
  mutable next_free : int;  (* first unused counter slot (bump allocator) *)
}

let state_bytes = 16

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
    pkt_count = Array.make n_flows 0;
    byte_count = Array.make n_flows 0;
    next_free = 0;
  }

let populate t flows =
  ignore (Classifier.populate_flows t.classifier flows : int);
  t.next_free <- max t.next_free (Array.length flows)

let account_action t =
  Action.make ~base_cycles:12 ~base_instrs:10 ~name:(t.name ^ ".account")
    (fun ctx task ->
      let idx = Nf_common.per_flow_read ctx task t.arena ~name:t.name in
      t.pkt_count.(idx) <- t.pkt_count.(idx) + 1;
      t.byte_count.(idx) <-
        t.byte_count.(idx) + (Nftask.packet_exn task).Netcore.Packet.wire_len;
      ignore (Nf_common.per_flow_write ctx task t.arena ~name:t.name);
      Event.Packet_arrival)

let counter_instance t : Compiler.instance =
  {
    Compiler.i_name = t.name ^ "_acc";
    i_spec = Lazy.force spec;
    i_actions = [ ("account", account_action t) ];
    i_bindings = [ ("counters", Prefetch.Per_flow (t.arena, [])) ];
    i_key_kind = None;
  }

let unit t =
  Nf_unit.classified
    ~classifier:(Classifier.instance t.classifier)
    ~data_instance:(counter_instance t)

let program ?(opts = Compiler.default_opts) t = Nf_unit.compile ~opts ~name:t.name [ unit t ]

let stats t idx = (t.pkt_count.(idx), t.byte_count.(idx))
