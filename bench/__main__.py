"""``python -m bench`` — the repo's benchmark (see ``bench/README.md``).

Three ways to run it, all from the repo root:

* ``python -m bench`` — the whole suite: four workloads × (``--reps``
  untraced repetitions + one traced run), every metric printed by name
  with its unit, output checks, a run record under ``bench/results/``.
  ``--smoke`` is the same at one-tenth clients with one repetition.
* ``python -m bench --compare A.json B.json`` — compare two records.
* ``python -m bench --workload W --seed N --seconds S --trace 0|1`` —
  one workload the way the benchmark driver runs it; the last line of
  stdout is one JSON object (``correct``, ``attempted``, ``failed``,
  ``metrics``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import report, runner

#: ``--smoke``: one-tenth clients, one repetition.
SMOKE_SCALE = 0.1

#: Driver mode: the fewest untraced repetitions per run.  The driver's
#: 92 runs must fit in 57 minutes, which three ~9 s repetitions a run
#: would leave no margin for; the issue says to cut repetitions before
#: run length.
DRIVER_REPS = 2


def driver_run(args, scale: float, spec: dict) -> int:
    """One workload, reported the way the benchmark driver reads it.

    ``--trace 0`` prints every end-to-end metric from at least
    ``DRIVER_REPS`` untraced repetitions (more until their measured
    windows add up to ``--seconds`` raw host seconds); ``--trace 1``
    prints every per-layer metric from one untraced and one traced
    repetition.

    ``attempted`` / ``failed`` count *repetitions* (fresh-interpreter
    simulations of the workload) and those that failed an output check.
    Modeled client failures are an output of the simulator, not a
    failure of it: they are reported as ``op_ok_share`` and
    ``clients.ops_failed``.
    """
    trace = bool(args.trace)
    result = runner.measure(
        args.workload, args.seed, scale,
        reps=1 if trace else DRIVER_REPS,
        min_seconds=0.0 if trace else args.seconds,
        trace=trace, spec=spec)
    for line in report.render_workload(result, spec):
        print(line)
    rows = result["per_layer"] if trace else result["end_to_end"]
    all_reps = [*result["reps"], *([result["traced"]] if trace else [])]
    failed = sum(1 for rep in all_reps if rep["problems"])
    line = {
        "correct": not result["problems"],
        "attempted": len(all_reps),
        "failed": failed,
        # The driver wants a number for every metric: one that does not
        # apply to a workload (GET latency on mqtt_dcr) reads 0.
        "metrics": {name: {"value": row["value"] or 0, "unit": row["unit"]}
                    for name, row in rows.items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def suite_run(args, scale: float, spec: dict) -> int:
    workloads = [args.workload] if args.workload else list(spec["workloads"])
    results = []
    for name in workloads:
        result = runner.measure(name, args.seed, scale, reps=args.reps,
                                min_seconds=0.0, trace=True, spec=spec)
        results.append(result)
        for line in report.render_workload(result, spec):
            print(line)
        sys.stdout.flush()
    record = report.build_record(results, args.seed, args.reps, scale, spec)
    print(f"run record: {report.write_record(record, args.out)}")
    unresolved = [(r["workload"], name, row["spread"])
                  for r in results
                  for name, row in r["end_to_end"].items()
                  if row["status"] == "unresolved"]
    for workload, name, spread in unresolved:
        print(f"unresolved: {workload} {name} spread {spread:.1%}")
    failed = [r["workload"] for r in results if r["problems"]]
    if failed:
        print(f"output checks FAILED on: {', '.join(failed)}")
        return 1
    print("output checks: ok on every workload")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced repetitions (default 3; 1 with "
                             "--smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="one-tenth clients, one repetition")
    parser.add_argument("--out", help="where to write the run record")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="driver mode: repeat until the measured "
                             "windows add up to this many host seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 prints the end-to-end "
                             "metrics, 1 the per-layer metrics")
    args = parser.parse_args(argv)
    if args.compare:
        return report.compare(*args.compare)

    if not (runner.SRC / "repro").is_dir():
        print(f"bench: no program to measure: {runner.SRC / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    spec = runner.load_spec()
    if args.workload and args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(spec['workloads'])}")
    scale = SMOKE_SCALE if args.smoke else 1.0
    if args.reps is None:
        args.reps = 1 if args.smoke else 3
    try:
        if args.trace is not None:
            if not args.workload:
                parser.error("--trace needs --workload")
            return driver_run(args, scale, spec)
        return suite_run(args, scale, spec)
    except runner.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
