(** Translation validation for the compiler's observation-rewriting
    passes: given a {!Compiler.view} (the program before and after
    compilation), prove match-removal, prefetch-dedup, and — when
    {!Gunfu.Specialize.install} attached one to the program — the
    specialize jump-table/fused-dispatch path preserved observations.

    A refutation is an [Error]-severity finding carrying a path witness
    that names the control state and the diverging scope write; an
    [Unknown] verdict (the symbolic engine out of its decidable fragment)
    is a [Warning]-severity finding — the dynamic oracle still covers
    that program. *)

type result = {
  findings : Report.finding list;
  proved : string list;
      (** of ["match_removal"], ["prefetch_dedup"], ["specialize"]: the
          passes that ran and verified cleanly *)
  unknowns : int;
      (** Unknown verdicts issued (a subset of the Warning findings) *)
}

val check : Gunfu.Compiler.view -> result
