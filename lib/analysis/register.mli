(** The analyzer's verdict on one compile: {!Lints.of_build}, then
    {!Symcheck.check}. Findings of warning severity print to stderr;
    the first error-severity finding (a lint error, then a refuted pass)
    raises {!Gunfu.Compiler.Compile_error} naming [nflint] or
    [verifyeq]. Unknown verifier verdicts are warnings — those programs
    fall back to the dynamic oracle. *)
val check : Gunfu.Compiler.view -> unit
