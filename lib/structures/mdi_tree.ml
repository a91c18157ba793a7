(* Multi-dimensional interval (MDI) tree — the paper's sub-flow match
   structure (Fig 6(a)): maps a 5-tuple to a PDR.

   Rules carry an interval per dimension (src ip / src port / dst port /
   proto). The tree is a balanced BST over the *discriminating* dimension
   (source port for the MGW workload — PDR port ranges are disjoint there);
   each node additionally verifies the remaining dimensions. Every node
   occupies its own cache line, and node placement in simulated memory is
   deliberately shuffled so a root-to-leaf walk is a genuine pointer chase:
   each step's target address only becomes known when the parent has been
   read. This is the access pattern whose misses dominate Fig 2/10. *)

type range = { lo : int; hi : int }

let range ~lo ~hi =
  if lo > hi then invalid_arg "Mdi_tree.range: lo > hi";
  { lo; hi }

let full_range = { lo = 0; hi = max_int }

let contains r v = v >= r.lo && v <= r.hi

type rule = {
  src_ip : range;
  src_port : range;
  dst_port : range;
  proto : range;
  value : int;
}

type key = { k_src_ip : int; k_src_port : int; k_dst_port : int; k_proto : int }

type node = {
  rule : rule;
  left : int;   (* node index, -1 = none *)
  right : int;
}

type t = {
  nodes : node array;
  root : int;  (* -1 when empty *)
  base_addr : int;
  placement : int array;  (* node index -> line slot, shuffled *)
}

let node_bytes = 64

let rule_matches r ~src_ip ~src_port ~dst_port ~proto =
  contains r.src_port src_port
  && contains r.src_ip src_ip
  && contains r.dst_port dst_port
  && contains r.proto proto

(* Build a balanced BST from rules sorted by src_port.lo. Rules must be
   disjoint along src_port — the discriminating dimension — and carry
   non-negative values, which {!step} returns in the same int as its other
   outcomes. *)
let create layout ~label ~rules () =
  let rules = Array.of_list rules in
  if Array.exists (fun r -> r.value < 0) rules then
    invalid_arg "Mdi_tree.create: rule values must be non-negative";
  Array.sort (fun a b -> compare a.src_port.lo b.src_port.lo) rules;
  for i = 1 to Array.length rules - 1 do
    if rules.(i).src_port.lo <= rules.(i - 1).src_port.hi then
      invalid_arg "Mdi_tree.create: rules overlap on the discriminating dimension"
  done;
  let n = Array.length rules in
  let nodes = Array.make n { rule = { src_ip = full_range; src_port = full_range;
                                      dst_port = full_range; proto = full_range;
                                      value = -1 }; left = -1; right = -1 } in
  let next = ref 0 in
  let rec build lo hi =
    if lo > hi then -1
    else begin
      let mid = (lo + hi) / 2 in
      let idx = !next in
      incr next;
      (* Children are built after the parent so indices are preorder-ish;
         physical placement is shuffled below regardless. *)
      let left = build lo (mid - 1) in
      let right = build (mid + 1) hi in
      nodes.(idx) <- { rule = rules.(mid); left; right };
      idx
    end
  in
  let root = build 0 (n - 1) in
  let base_addr =
    Memsim.Layout.alloc_array layout ~align:64 ~label ~stride:node_bytes
      ~count:(max n 1) ()
  in
  let placement = Array.init (max n 1) (fun i -> i) in
  Memsim.Rng.shuffle (Memsim.Rng.create 1299721) placement;
  { nodes; root; base_addr; placement }

let size t = Array.length t.nodes
let root t = t.root

let node_addr t idx = t.base_addr + (t.placement.(idx) * node_bytes)

(* One node visit: the granular-decomposed tree-walk action. The caller
   charges a read of [node_addr t idx] before calling. The outcome is one
   int, so a walk allocates nothing: the matched rule's value (>= 0), -1
   for a miss, or [-2 - child] to descend ({!descend_to} decodes it). *)
let miss = -1
let descend_to r = -2 - r

let step t ~node:idx ~src_ip ~src_port ~dst_port ~proto =
  let n = t.nodes.(idx) in
  if rule_matches n.rule ~src_ip ~src_port ~dst_port ~proto then n.rule.value
  else
    let child = if src_port < n.rule.src_port.lo then n.left else n.right in
    if child >= 0 then -2 - child else miss

(* Full walk (pure); {!lookup} and tests use this. Returns the matched
   value and the list of node indices visited, root first. *)
let lookup_path t key =
  let rec go idx acc =
    if idx < 0 then (None, List.rev acc)
    else
      let r =
        step t ~node:idx ~src_ip:key.k_src_ip ~src_port:key.k_src_port
          ~dst_port:key.k_dst_port ~proto:key.k_proto
      in
      if r >= 0 then (Some r, List.rev (idx :: acc))
      else if r = miss then (None, List.rev (idx :: acc))
      else go (descend_to r) (idx :: acc)
  in
  go t.root []

let lookup t key = fst (lookup_path t key)

let depth t =
  let rec go idx = if idx < 0 then 0 else 1 + max (go t.nodes.(idx).left) (go t.nodes.(idx).right) in
  go t.root

module Forest = struct
  (* Many sessions share one rule *shape* (e.g. every PFCP session's PDRs
     partition the port space the same way) but each session's tree lives
     at its own simulated addresses — 130k sessions x 128 PDRs of distinct
     node state without 16M OCaml records. Lookups still pointer-chase
     through session-private cache lines. *)
  type forest = { shape : t; bases : int array; members : int }

  let create layout ~label ~rules ~members () =
    if members <= 0 then invalid_arg "Mdi_tree.Forest.create";
    let shape = create layout ~label:(label ^ ".shape") ~rules () in
    let n = max (Array.length shape.nodes) 1 in
    let base0 =
      Memsim.Layout.alloc_array layout ~align:64 ~label ~stride:(n * node_bytes)
        ~count:members ()
    in
    let bases = Array.init members (fun m -> base0 + (m * n * node_bytes)) in
    { shape; bases; members }

  let shape f = f.shape
  let members f = f.members

  let node_addr f ~member idx =
    if member < 0 || member >= f.members then invalid_arg "Mdi_tree.Forest.node_addr";
    f.bases.(member) + (f.shape.placement.(idx) * node_bytes)
end
