(* Data-packing (§VI-B): group state variables that are accessed
   contemporaneously into the same cache line, following the
   cache-conscious structure definition approach of Chilimbi et al.

   Input: the record's fields and, from the granular decomposition's
   visibility, which fields each NFAction touches and how often. Output: a
   field -> offset layout minimising the number of distinct lines each
   action must fetch. *)

type field = { name : string; bytes : int }

type access = { fields : string list; weight : float }

(* Declaration-order layout with natural alignment — what a C struct (and
   the unoptimised baseline) gets. *)
let sequential fields =
  let align_of bytes = min 8 (max 1 bytes) in
  let offsets, total =
    List.fold_left
      (fun (acc, off) f ->
        let a = align_of f.bytes in
        let off = (off + a - 1) / a * a in
        ((f.name, off) :: acc, off + f.bytes))
      ([], 0) fields
  in
  (List.rev offsets, total)

(* Reference-affinity clustering: fields with the same access signature
   (the set of actions that touch them) are always fetched together, so
   they are laid out contiguously as one cluster. Clusters are ordered by
   the similarity of their signatures to the previous cluster's (greedy
   chaining), so that clusters co-accessed by the same actions sit in
   adjacent — often shared — cache lines. *)
let pack ~line_bytes fields accesses =
  let signature f =
    List.mapi (fun i a -> (i, a)) accesses
    |> List.filter_map (fun (i, a) -> if List.mem f.name a.fields then Some i else None)
  in
  (* Group fields by signature, preserving declaration order within. *)
  let clusters : (int list * field list ref) list ref = ref [] in
  List.iter
    (fun f ->
      let s = signature f in
      match List.assoc_opt s !clusters with
      | Some members -> members := f :: !members
      | None -> clusters := !clusters @ [ (s, ref [ f ]) ])
    fields;
  let clusters =
    List.map (fun (s, members) -> (s, List.rev !members)) !clusters
  in
  let cluster_weight (s, _) =
    List.fold_left (fun acc i -> acc +. (List.nth accesses i).weight) 0.0 s
  in
  let overlap (s1, _) (s2, _) =
    List.length (List.filter (fun i -> List.mem i s2) s1)
  in
  (* Start from the heaviest cluster, then repeatedly append the remaining
     cluster sharing the most accesses with the last-placed one. *)
  let ordered =
    match
      List.stable_sort (fun a b -> compare (cluster_weight b) (cluster_weight a)) clusters
    with
    | [] -> []
    | first :: rest ->
        let rec chain placed last = function
          | [] -> List.rev placed
          | remaining ->
              let best =
                List.fold_left
                  (fun acc c ->
                    match acc with
                    | None -> Some c
                    | Some b -> if overlap last c > overlap last b then Some c else acc)
                  None remaining
              in
              let b = Option.get best in
              let remaining = List.filter (fun c -> c != b) remaining in
              chain (b :: placed) b remaining
        in
        chain [ first ] first rest
  in
  (* Lay clusters out contiguously, but start a cluster on a fresh cache
     line when it would otherwise straddle one more line than necessary —
     that alignment is what buys the fewer-lines-per-access win. *)
  let cluster_bytes members =
    List.fold_left
      (fun off f ->
        let a = min 8 (max 1 f.bytes) in
        let off = (off + a - 1) / a * a in
        off + f.bytes)
      0 members
  in
  let offsets, total =
    List.fold_left
      (fun (acc, off) (_, members) ->
        let size = cluster_bytes members in
        let off =
          if size <= line_bytes && (off mod line_bytes) + size > line_bytes then
            (off + line_bytes - 1) / line_bytes * line_bytes
          else off
        in
        List.fold_left
          (fun (acc, off) f ->
            let a = min 8 (max 1 f.bytes) in
            let off = (off + a - 1) / a * a in
            ((f.name, off) :: acc, off + f.bytes))
          (acc, off) members)
      ([], 0) ordered
  in
  (List.rev offsets, total)

(* Number of distinct cache lines an access touches under [offsets]. *)
let lines_touched ~line_bytes fields offsets access =
  let module IS = Set.Make (Int) in
  let find_field n = List.find (fun f -> f.name = n) fields in
  let set =
    List.fold_left
      (fun acc fname ->
        match List.assoc_opt fname offsets with
        | None -> acc
        | Some off ->
            let f = find_field fname in
            let first = off / line_bytes in
            let last = (off + max f.bytes 1 - 1) / line_bytes in
            let rec add acc l = if l > last then acc else add (IS.add l acc) (l + 1) in
            add acc first)
      IS.empty access.fields
  in
  IS.cardinal set
