(* Maglev consistent hashing (Eisenbud et al., NSDI'16) — the connection
   scheduler of the stateful load balancer. Builds the lookup table with
   each backend's (offset, skip) permutation and greedy filling; guarantees
   near-perfect balance and minimal disruption when the backend set
   changes. *)

type t = {
  table : int array;  (* slot -> backend index *)
  n_backends : int;
}

(* Table size must be prime and >> backends; 65537 is Maglev's small size. *)
let default_table_size = 65537

let is_prime n =
  if n < 2 then false
  else
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
    go 2

let mix h seed =
  let h = Int64.mul (Int64.of_int (h lxor seed)) 0x9E3779B97F4A7C15L in
  Int64.to_int (Int64.shift_right_logical h 33)

(* Permutation parameters per backend, from its identity hash. *)
let offset_skip ~table_size backend =
  let h1 = mix backend 0x5bd1e995 and h2 = mix backend 0x1b873593 in
  (h1 mod table_size, 1 + (h2 mod (table_size - 1)))

let build ?(table_size = default_table_size) ~n_backends () =
  if n_backends <= 0 then invalid_arg "Maglev.build: no backends";
  if not (is_prime table_size) then invalid_arg "Maglev.build: table size must be prime";
  if n_backends > table_size then invalid_arg "Maglev.build: more backends than slots";
  let table = Array.make table_size (-1) in
  let next = Array.make n_backends 0 in
  let params = Array.init n_backends (fun b -> offset_skip ~table_size b) in
  let filled = ref 0 in
  (* Round-robin over backends; each takes its next preferred empty slot. *)
  let rec fill () =
    if !filled < table_size then begin
      for b = 0 to n_backends - 1 do
        if !filled < table_size then begin
          let offset, skip = params.(b) in
          let rec claim () =
            let slot = (offset + (next.(b) * skip)) mod table_size in
            next.(b) <- next.(b) + 1;
            if table.(slot) >= 0 then claim ()
            else begin
              table.(slot) <- b;
              incr filled
            end
          in
          claim ()
        end
      done;
      fill ()
    end
  in
  fill ();
  { table; n_backends }

let table_size t = Array.length t.table

(* Backend for a 64-bit flow key. *)
let lookup t key =
  let slot = Int64.to_int (Int64.rem (Int64.logand key Int64.max_int)
                             (Int64.of_int (Array.length t.table))) in
  t.table.(slot)

(* Fraction of table slots owned by each backend (balance diagnostics). *)
let shares t =
  let counts = Array.make t.n_backends 0 in
  Array.iter (fun b -> counts.(b) <- counts.(b) + 1) t.table;
  Array.map (fun c -> float_of_int c /. float_of_int (Array.length t.table)) counts

(* Fraction of slots that map to a different backend in [t'] — the
   disruption metric Maglev minimises. *)
let disruption t t' =
  if Array.length t.table <> Array.length t'.table then
    invalid_arg "Maglev.disruption: incomparable tables";
  let moved = ref 0 in
  Array.iteri (fun i b -> if t'.table.(i) <> b then incr moved) t.table;
  float_of_int !moved /. float_of_int (Array.length t.table)
