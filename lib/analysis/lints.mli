(** nflint rules (the analyzer proper). Two entry points:

    - {!of_module} checks a single module spec in isolation, using the
      declared fetching classes as the available-state abstraction. It
      deliberately does NOT require {!Gunfu.Spec.validate_module} to
      pass first — broken fixtures (unreachable states, nondeterministic
      Δ) are reported as findings instead of exceptions.
    - {!of_build} checks a flattened composition (a
      {!Gunfu.Compiler.view}, with its declared pre-dedup prefetch
      policy): concrete prefetch targets, action
      kill sets, and the cross-instance FSM, on the same
      {!Gunfu.Dataflow} fixpoint the optimizer uses.

    Rules and severities:
    - [cold-access] (error): an NF-C body touches Packet / match /
      per-flow / sub-flow state that no dominating fetch covers — the
      access demand-misses on every path.
    - [temp-escape] (error): a TempState field is read before any state
      has definitely written it on some path.
    - [missing-transition] (error): the body may emit an event Δ does
      not define for that state.
    - [nfc-syntax] / [fsm-nondeterminism] (error): the spec itself is
      ill-formed.
    - [interleaving-conflict] (warning): two control states read/write
      the same ControlState field with at least one writer — interleaved
      function streams race on it across suspension points. One finding
      per field, anchored at the first writer.
    - [unreachable-state] / [no-done-path] (warning): FSM hygiene.
    - [dead-edge] (warning): a transition labelled with an event the
      source state's body can never emit.
    - [constant-condition] (warning): an [If] whose condition the
      symbolic simplifier ({!Sym}) decides to the same truth value on
      every path reaching it — one branch is dead code.
    - [short-distance] (info, build-level only): a prefetch issued on
      the transition into the very state whose action first uses it —
      too late to hide DRAM latency within one stream — while a
      predecessor state could host it. *)

open Gunfu

(** Findings are returned in {!Report.sort} order. *)
val of_module : Spec.module_spec -> Report.finding list

val of_build : Compiler.view -> Report.finding list
