(** Hooks the analyzer into the compiler. {!Gunfu.Compiler} cannot
    depend on this library (the analysis depends on the compiler), so
    compiles reach it through {!Gunfu.Compiler.set_lint_hook}; linking
    the library is not enough — ocamlopt drops unreferenced units from
    archives, so an executable that wants linted compiles must call
    {!install} (idempotent) once at startup. *)

(** Install {!Lints.of_build} as the compiler's lint hook and
    {!Symcheck.check} as its translation-validation hook. A compile with
    [opts.lint] (resp. [opts.verify_passes]) set prints findings of
    warning severity and above to stderr, and error-severity findings
    (lint errors, refuted passes) raise {!Gunfu.Compiler.Compile_error}.
    Unknown verifier verdicts are warnings — those programs fall back to
    the dynamic oracle. *)
val install : unit -> unit
