(* Synthetic flow universes and packet streams.

   A generator owns a fixed population of distinct 5-tuple flows; packets
   sample a flow (uniformly or Zipf-skewed) and a wire size from a size
   model, then materialise real header bytes via {!Netcore.Packet.make}. *)

open Netcore

type size_model =
  | Fixed of int
  | Mix of (int * int) list  (* (wire_bytes, weight) *)

(* The classic simple IMIX: 7:4:1 of 64/576/1500-byte frames. *)
let imix = Mix [ (64, 7); (576, 4); (1500, 1) ]

let mean_size = function
  | Fixed n -> float_of_int n
  | Mix weighted ->
      let wsum = List.fold_left (fun a (_, w) -> a + w) 0 weighted in
      List.fold_left (fun a (sz, w) -> a +. (float_of_int (sz * w))) 0.0 weighted
      /. float_of_int wsum

type popularity = Uniform | Zipf of float

type t = {
  flows : Flow.t array;
  rng : Memsim.Rng.t;
  zipf : Zipf.t option;
  size_table : int array;  (* flattened weights for O(1) sampling *)
}

(* The 251 server addresses, one shared box each: every flow towards a
   server points at the same [int32], so a universe of any size keeps only
   251 of them. *)
let servers = Array.init 251 (fun k -> Int32.of_int (0xC0A80000 lor k))

(* Distinct flows: client i gets a unique (src_ip, src_port) pair towards a
   small set of servers — the shape of south-north datacenter traffic. *)
let make_flow i =
  let src_ip = Int32.of_int (0x0A000000 lor (i land 0xFFFFFF)) in
  let dst_ip = servers.(i mod 251) in
  let src_port = 1024 + (i mod 60000) in
  let dst_port = 80 + (i mod 16) in
  let proto = if i mod 8 = 0 then Ipv4.proto_tcp else Ipv4.proto_udp in
  Flow.make ~src_ip ~dst_ip ~src_port ~dst_port ~proto

(* Reject a size model a pull could not sample: every size and weight
   must be positive and a mix needs at least one entry. [who] names the
   rejecting function. *)
let check_size_model ~who model =
  let reject fmt = Printf.ksprintf (fun m -> invalid_arg (who ^ ": " ^ m)) fmt in
  let check_size sz = if sz <= 0 then reject "size %d must be positive" sz in
  match model with
  | Fixed n -> check_size n
  | Mix [] -> reject "Mix must have at least one size"
  | Mix weighted ->
      List.iter
        (fun (sz, w) ->
          check_size sz;
          if w <= 0 then reject "weight %d of size %d must be positive" w sz)
        weighted

let size_table_of_model = function
  | Fixed n -> [| n |]
  | Mix weighted ->
      let total = List.fold_left (fun a (_, w) -> a + w) 0 weighted in
      let table = Array.make total 0 in
      let pos = ref 0 in
      List.iter
        (fun (sz, w) ->
          for _ = 1 to w do
            table.(!pos) <- sz;
            incr pos
          done)
        weighted;
      table

let create ?(seed = 42) ?(popularity = Uniform) ?(size_model = Fixed 64) ~n_flows () =
  if n_flows <= 0 then invalid_arg "Flowgen.create: n_flows must be positive";
  check_size_model ~who:"Flowgen.create" size_model;
  let rng = Memsim.Rng.create seed in
  let flows = Array.init n_flows make_flow in
  (* Shuffle so that Zipf rank is uncorrelated with address layout. *)
  Memsim.Rng.shuffle rng flows;
  let zipf =
    match popularity with
    | Uniform -> None
    | Zipf s -> Some (Zipf.create ~n:n_flows ~s)
  in
  { flows; rng; zipf; size_table = size_table_of_model size_model }

let n_flows t = Array.length t.flows
let flows t = t.flows
let flow t i = t.flows.(i)

(* A pull is two draws, in this order: the flow index, then the packet
   (its wire size). They are separate calls so that a pull builds no
   (index, packet) pair; callers keep the index to cross-check state
   lookups. *)
let next_idx t =
  match t.zipf with
  | None -> Memsim.Rng.int t.rng (Array.length t.flows)
  | Some z -> Zipf.sample z t.rng

let sample_size t =
  if Array.length t.size_table = 1 then t.size_table.(0)
  else t.size_table.(Memsim.Rng.int t.rng (Array.length t.size_table))

(* Flow [i]'s packet as a work item's option; with [arena], the recycled
   slot's stored [Some]. *)
let packet ?arena t i =
  let wire_len = sample_size t in
  Packet.make_some ?arena ~flow:t.flows.(i) ~wire_len ()

let next t = Option.get (packet t (next_idx t))

(* Pre-generate a batch (the RX burst the runtime receives). *)
let batch t n = Array.init n (fun _ -> next t)

(* Deterministic alpha sweep over ONE shared flow universe: the
   population (and its rank shuffle) is built once — million-flow
   capable, the per-flow array being the only O(n) allocation shared by
   every point — and each alpha gets its own generator with an
   independently seeded rng, so sweep points differ only in skew. *)
let alpha_sweep ?(seed = 42) ?(size_model = Fixed 64) ~n_flows alphas =
  if n_flows <= 0 then invalid_arg "Flowgen.alpha_sweep: n_flows must be positive";
  check_size_model ~who:"Flowgen.alpha_sweep" size_model;
  let rng = Memsim.Rng.create seed in
  let flows = Array.init n_flows make_flow in
  Memsim.Rng.shuffle rng flows;
  let size_table = size_table_of_model size_model in
  List.mapi
    (fun k alpha ->
      if alpha < 0.0 then
        invalid_arg "Flowgen.alpha_sweep: alpha must be non-negative";
      let zipf = if alpha = 0.0 then None else Some (Zipf.create ~n:n_flows ~s:alpha) in
      ( alpha,
        {
          flows;
          rng = Memsim.Rng.create (seed + (7919 * (k + 1)));
          zipf;
          size_table;
        } ))
    alphas
