(* Composition glue: a unit is one network function's worth of module
   instances (typically classifier + data module) with declared entry and
   exit points. [chain] wires units into an SFC-level NF specification
   (Fig 6(e)/(f)), which the compiler then flattens — and, with
   redundant-matching removal enabled, prunes. *)

open Gunfu

type t = {
  instances : Compiler.instance list;
  entry : string;  (* instance receiving the packet *)
  exits : (string * string) list;  (* (instance, event) pairs leaving the unit *)
  internal : Spec.transition list;  (* wiring between this unit's instances *)
}

(* The standard classifier + data-module unit. *)
let classified ~classifier ~data_instance =
  {
    instances = [ classifier; data_instance ];
    entry = classifier.Compiler.i_name;
    exits = [ (data_instance.Compiler.i_name, "packet") ];
    internal =
      [
        {
          Spec.src = classifier.Compiler.i_name;
          event = "MATCH_SUCCESS";
          dst = data_instance.Compiler.i_name;
        };
      ];
  }

(* Chain units into one NF spec: unit k's exits feed unit k+1's entry; the
   last unit's exits terminate the service chain. *)
let chain ~name units =
  if units = [] then invalid_arg "Nf_unit.chain: empty chain";
  let instances = List.concat_map (fun u -> u.instances) units in
  let modules =
    List.map (fun i -> (i.Compiler.i_name, i.Compiler.i_spec.Spec.m_name)) instances
  in
  let rec wire = function
    | [] -> []
    | [ last ] ->
        last.internal
        @ List.map
            (fun (src, event) -> { Spec.src; event; dst = Spec.end_state })
            last.exits
    | u :: (next :: _ as rest) ->
        u.internal
        @ List.map (fun (src, event) -> { Spec.src; event; dst = next.entry }) u.exits
        @ wire rest
  in
  let nf = { Spec.n_name = name; n_modules = modules; n_transitions = wire units } in
  (nf, instances)

(* Compile a chain: its compiler view, and the program alone. *)
let view ?opts ~name units =
  let nf, instances = chain ~name units in
  Compiler.view ?opts ~name instances nf

let compile ?opts ~name units = (view ?opts ~name units).Compiler.v_program
