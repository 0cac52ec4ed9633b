"""Command-line fuzz runner.

Usage::

    python -m repro.fuzz --seed 0 --runs 25
    python -m repro.fuzz --planted skip_drain_gate --runs 5
    python -m repro.fuzz --repro fuzz-repros/repro-seed-12.json
    python -m repro.fuzz list

Each seed generates one scenario, runs it under every invariant
checker and, on violation, delta-debugs it down to a minimal repro
written as JSON under ``--out`` (replayable exactly via ``--repro``).
Exit status is 0 only when every run was violation-free.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..invariants import CHECKERS
from .planted import PLANTED_FAULTS
from .runner import FuzzRunResult, run_scenario
from .scenario import Scenario, generate_scenario
from .shrink import shrink

__all__ = ["main"]

#: Max probe runs the shrinker may spend on one violating scenario.
SHRINK_BUDGET = 40


def _print_result(label: str, result: FuzzRunResult) -> None:
    stats = result.stats
    shape = result.scenario.describe()
    if result.ok:
        print(f"{label}: ok   [{shape}] "
              f"get_ok={stats['get_ok']:g} post_ok={stats['post_ok']:g} "
              f"takeovers={stats['takeovers']:g}")
        return
    broken = ", ".join(sorted(result.violated_checkers()))
    print(f"{label}: FAIL [{shape}] checkers: {broken}")
    for violation in result.violations[:5]:
        print(f"    {violation}")
    if len(result.violations) > 5:
        print(f"    ... and {len(result.violations) - 5} more")


def _write_repro(out_dir: str, scenario: Scenario, tag: str,
                 trace=None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"repro-{tag}.json")
    doc = scenario.to_dict()
    if trace is not None:
        # The violating run's tail-kept traces, embedded so the repro
        # file documents *which requests* broke, not just how to rerun.
        doc["trace"] = trace
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Deterministic chaos fuzzing of the release machinery")
    parser.add_argument("command", nargs="?", default="run",
                        help="'run' (default) or 'list' (checkers/plants)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed of the range")
    parser.add_argument("--runs", type=int, default=25,
                        help="number of consecutive seeds to run")
    parser.add_argument("--planted", default=None,
                        help="apply a planted code fault to every run "
                             "(see 'list')")
    parser.add_argument("--out", default="fuzz-repros",
                        help="directory for shrunken repro JSON files")
    parser.add_argument("--no-shrink", action="store_true",
                        help="emit the original scenario, skip shrinking")
    parser.add_argument("--repro", metavar="FILE", default=None,
                        help="replay one repro JSON file instead of "
                             "generating scenarios")
    args = parser.parse_args(argv)

    if args.command == "list":
        print("checkers:")
        for name in CHECKERS:
            print(f"  {name}")
        print("planted faults (--planted):")
        for name in sorted(PLANTED_FAULTS):
            print(f"  {name}")
        return 0
    if args.command != "run":
        print(f"unknown command {args.command!r}; try 'list'",
              file=sys.stderr)
        return 2

    if args.repro is not None:
        with open(args.repro, "r", encoding="utf-8") as handle:
            scenario = Scenario.from_json(handle.read())
        result = run_scenario(scenario)
        _print_result(f"repro {args.repro}", result)
        return 0 if result.ok else 1

    if args.planted is not None and args.planted not in PLANTED_FAULTS:
        print(f"unknown planted fault {args.planted!r}; try 'list'",
              file=sys.stderr)
        return 2

    failures = 0
    for seed in range(args.seed, args.seed + args.runs):
        scenario = generate_scenario(seed, planted=args.planted)
        result = run_scenario(scenario)
        _print_result(f"seed {seed}", result)
        if result.ok:
            continue
        failures += 1
        emitted = scenario
        trace = result.trace
        if not args.no_shrink:
            shrunk = shrink(scenario,
                            target_checkers=result.violated_checkers(),
                            run_budget=SHRINK_BUDGET)
            emitted = shrunk.scenario
            print(f"    shrunk in {shrunk.runs} probe runs: "
                  f"[{emitted.describe()}]")
            if emitted is not scenario:
                # The embedded trace must match the scenario the file
                # replays, so re-run the shrunken one to capture it.
                trace = run_scenario(emitted).trace
        path = _write_repro(args.out, emitted, f"seed-{seed}", trace=trace)
        print(f"    repro written: {path}")

    total = args.runs
    print(f"{total - failures}/{total} runs clean"
          + (f", {failures} violating (repros in {args.out}/)"
             if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
