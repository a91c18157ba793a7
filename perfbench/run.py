#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload nat-il16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds perfbench/perfbench.exe with dune (the first build compiles the
library and takes longest), then runs one workload and passes its output
through unchanged: human-readable lines, then one JSON object as the last
line. With `--workload all` it runs the three in turn and ends with a table
of every end-to-end metric by workload instead. The exit code is the benchmark's own (1 when an output check fails);
2 means the benchmark could not be built or started.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("nat-il16", "upf-rtc", "scr-zipf")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or 'all' to run each in turn and tabulate")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the repository root (dune-project and lib/ not found)")

    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        return fail("build failed")

    # The GC-time probe of the traced run keeps its event ring in a file;
    # put it next to the build output (the runtime removes it at exit).
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.join("_build", "default", "perfbench")

    def cmd(workload):
        return [
            EXE, "run",
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]

    if args.workload != "all":
        try:
            run = subprocess.run(cmd(args.workload), env=env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return fail(f"run exceeded {RUN_TIMEOUT_S} s")
        return run.returncode

    # Every workload in turn, then one table of every metric by workload.
    # Exits non-zero when any workload's output checks fail.
    results, worst = {}, 0
    for workload in WORKLOADS:
        try:
            run = subprocess.run(cmd(workload), env=env, timeout=RUN_TIMEOUT_S,
                                 stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return fail(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        print(run.stdout, end="", flush=True)
        worst = max(worst, run.returncode)
        lines = run.stdout.strip().splitlines()
        if run.returncode not in (0, 1) or not lines:
            return fail(f"{workload} did not produce a result")
        results[workload] = json.loads(lines[-1])
    print(f"\n{'metric':32s} {'unit':8s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name, m in results[WORKLOADS[0]]["metrics"].items():
        values = "".join(f"{results[w]['metrics'][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name:32s} {m['unit']:8s}{values}")
    print(f"{'correct':32s} {'':8s}"
          + "".join(f"{str(results[w]['correct']):>16s}" for w in WORKLOADS))
    return worst


if __name__ == "__main__":
    sys.exit(main())
