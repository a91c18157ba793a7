(* The analyzer's verdict on one compile. Info findings stay silent here —
   they are program-shape notes for the lint subcommand, not something
   every generated case should print. *)

open Gunfu

let print_findings findings =
  List.iter
    (fun f ->
      if Report.severity_rank f.Report.severity >= Report.severity_rank Report.Warning
      then Fmt.epr "nflint: %a@." Report.pp_finding f)
    (Report.sort findings)

(* Print the findings below error severity, and fail on the first
   error-severity one. *)
let fail_on_errors ~name ~tool ~kind findings =
  let errors, rest = List.partition (fun f -> f.Report.severity = Report.Error) findings in
  print_findings rest;
  match Report.sort errors with
  | [] -> ()
  | first :: _ ->
      let n = List.length errors in
      raise
        (Compiler.Compile_error
           (Fmt.str "nf %s: %s: %d %s%s, first: %a" name tool n kind
              (if n = 1 then "" else "s")
              Report.pp_finding first))

(* Lint, then translation validation. Refutations are Error findings;
   Unknown verdicts are Warnings and never fail — those programs are
   exactly the ones the dynamic oracle exists for. *)
let check (v : Compiler.view) =
  let name = v.Compiler.v_name in
  fail_on_errors ~name ~tool:"nflint" ~kind:"error finding" (Lints.of_build v);
  fail_on_errors ~name ~tool:"verifyeq" ~kind:"refuted pass finding"
    (Symcheck.check v).Symcheck.findings
