"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig09 [--seed 3]
    python -m repro.experiments all [--seed 3]
    python -m repro.experiments fig12 --faults hc-flap-storm

Runs the named figure harness(es) and prints the rows the paper's figure
plots, plus the PASS/FAIL state of every shape claim.  ``--faults PLAN``
reruns the figure under a named fault plan (see ``repro.faults``): every
deployment the harness builds gets the plan attached, and the faults
summary is printed with the results.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..cohorts import COHORT_FIDELITIES, CohortPolicy
from ..faults import BUILTIN_PLANS, builtin_plan
from ..lb.routers import ROUTER_SCHEMES
from ..metrics.report import render_faults, render_series
from ..ops import LOAD_SHAPE_KINDS, default_canary_gate, named_load_shape
from ..options import RunOptions, use
from ..resilience import ResilienceConfig
from ..splice import SpliceConfig
from ..trace import TraceConfig
from ..trace.render import render_trace_report
from . import ALL_EXPERIMENTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate figures of the Zero Downtime Release paper")
    parser.add_argument("figure",
                        help="figure id (e.g. fig09), 'all', or 'list'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-plots", action="store_true",
                        help="skip the sparkline rendering of series")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="rerun under a named fault plan "
                             "(see 'list' for the available plans)")
    parser.add_argument("--faults-at", type=float, default=None,
                        help="with --faults: inject the plan this many "
                             "sim-seconds in (default: 5.0)")
    parser.add_argument("--faults-duration", type=float, default=None,
                        help="with --faults: clear the plan after this "
                             "many sim-seconds (default: 30.0)")
    parser.add_argument("--resilience", action="store_true",
                        help="enable the resilient data plane (outlier "
                             "ejection, breakers, retry budgets, load "
                             "shedding) in every deployment built")
    parser.add_argument("--lb-scheme", choices=list(ROUTER_SCHEMES),
                        default=None,
                        help="L4LB flow-routing policy for every Katran "
                             "built (default: the paper's LRU hybrid)")
    parser.add_argument("--load-shape", choices=list(LOAD_SHAPE_KINDS),
                        default=None,
                        help="modulate every deployment's client arrival "
                             "rates with this load shape (repro.ops)")
    parser.add_argument("--load-horizon", type=float, default=None,
                        help="with --load-shape: sim seconds the shape's "
                             "timings are scaled to (default: 60.0)")
    parser.add_argument("--cohorts", type=int, metavar="SCALE",
                        default=None,
                        help="drive clients through the cohort layer "
                             "(repro.cohorts) with this client-count "
                             "multiplier (1 = same size, 100 = the "
                             "100x fluid)")
    parser.add_argument("--cohort-fidelity", choices=list(COHORT_FIDELITIES),
                        default=None,
                        help="with --cohorts: fidelity ladder rung "
                             "(default: auto — condensed below 256 "
                             "modeled clients per cohort, aggregate "
                             "above)")
    parser.add_argument("--splice", action="store_true",
                        help="enable the splice fast path (repro.splice): "
                             "bulk uploads collapse into single transfer "
                             "events outside release/fault windows")
    parser.add_argument("--shards", type=int, metavar="N", default=None,
                        help="worker processes for the shard-aware "
                             "harnesses (shardscale): partition "
                             "independent regions across N forked "
                             "workers and merge deterministically")
    parser.add_argument("--canary", action="store_true",
                        help="gate every rolling release behind canary "
                             "analysis (repro.ops.canary) with default "
                             "judgment settings")
    parser.add_argument("--trace", action="store_true",
                        help="trace sampled requests end to end and print "
                             "the most interesting span trees")
    parser.add_argument("--trace-json", metavar="PATH", default=None,
                        help="with --trace: also write the full trace "
                             "export as JSON to PATH (suffixed with the "
                             "figure id when running several figures)")
    args = parser.parse_args(argv)

    if args.figure == "list":
        for key, module in sorted(ALL_EXPERIMENTS.items()):
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{key:8s} {doc}")
        print("\nfault plans (--faults):")
        for key, (_, description) in sorted(BUILTIN_PLANS.items()):
            print(f"{key:18s} {description}")
        return 0

    try:
        options = _run_options(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.figure == "all":
        names = sorted(ALL_EXPERIMENTS)
    elif args.figure in ALL_EXPERIMENTS:
        names = [args.figure]
    else:
        print(f"unknown figure {args.figure!r}; try 'list'",
              file=sys.stderr)
        return 2

    oks = [_run_figure(name, args, options, multiple=len(names) > 1)
           for name in names]
    return 0 if all(oks) else 1


def _run_options(args) -> RunOptions:
    """The one :class:`RunOptions` of this invocation; ValueError on a
    bad value (unknown plan, cohort scale, shard count), a dependent
    flag given without the flag it modifies or a pair that cannot work
    together."""
    for flag, value, parent, parent_value in (
            ("--trace-json", args.trace_json, "--trace", args.trace or None),
            ("--faults-at", args.faults_at, "--faults", args.faults),
            ("--faults-duration", args.faults_duration, "--faults",
             args.faults),
            ("--load-horizon", args.load_horizon, "--load-shape",
             args.load_shape),
            ("--cohort-fidelity", args.cohort_fidelity, "--cohorts",
             args.cohorts)):
        if value is not None and parent_value is None:
            raise ValueError(f"{flag} requires {parent}")
    if args.shards is not None and args.shards < 1:
        raise ValueError("--shards must be >= 1")
    if args.trace and (args.shards or 1) > 1:
        # A forked worker's collector cannot be drained by this process.
        raise ValueError("--trace requires --shards 1")
    fault_plan = load_shape = cohorts = None
    if args.faults is not None:
        fault_plan = builtin_plan(
            args.faults,
            at=5.0 if args.faults_at is None else args.faults_at,
            duration=30.0 if args.faults_duration is None
            else args.faults_duration)
    if args.load_shape is not None:
        load_shape = named_load_shape(
            args.load_shape,
            60.0 if args.load_horizon is None else args.load_horizon)
        load_shape.validate()
    if args.cohorts is not None:
        cohorts = CohortPolicy(fidelity=args.cohort_fidelity or "auto",
                               scale=args.cohorts)
        cohorts.validate()
    return RunOptions(
        fault_plan=fault_plan,
        resilience=ResilienceConfig(enabled=True) if args.resilience
        else None,
        lb_scheme=args.lb_scheme,
        load_shape=load_shape,
        cohorts=cohorts,
        splice=SpliceConfig() if args.splice else None,
        release_gate=default_canary_gate if args.canary else None,
        shards=args.shards,
        trace=TraceConfig() if args.trace else None)


def _run_figure(name: str, args, options: RunOptions,
                multiple: bool) -> bool:
    """Run and print one figure; True iff every claim and checker held."""
    start = time.time()
    with use(options) as runs:
        result = ALL_EXPERIMENTS[name].run(seed=args.seed)
    result.print()
    violations = sorted(
        (v for run in runs if run.suite is not None
         for v in run.suite.finalize()),
        key=lambda v: (v.at, v.checker))
    if violations:
        broken = sorted({v.checker for v in violations})
        print(f"   INVARIANT VIOLATIONS ({len(violations)}) "
              f"from checkers: {', '.join(broken)}")
        for violation in violations[:10]:
            print(f"     {violation}")
        if len(violations) > 10:
            print(f"     ... and {len(violations) - 10} more")
    else:
        print("   invariants: all checkers clean")
    if args.faults is not None and not result.faults:
        # The harness did not surface an injector summary itself;
        # still label the run so it can't pass as a baseline.
        for row in render_faults({"plan": args.faults}):
            print("   " + row)
    if args.trace:
        _report_traces(name, [run.tracer for run in runs
                              if run.tracer is not None],
                       args.trace_json, multiple=multiple)
    if not args.no_plots:
        for series_name, series in sorted(result.series.items()):
            print("   " + render_series(series_name, series, width=56))
    print(f"   ({time.time() - start:.1f}s wall)")
    return not violations and result.all_claims_hold


def _report_traces(figure: str, collectors: list, json_path,
                   multiple: bool) -> None:
    """Print the span-tree report (and dump JSON) for one figure's run."""
    for collector in collectors:
        doc = collector.to_dict()
        for row in render_trace_report(doc):
            print("   " + row)
        if json_path is not None:
            path = json_path
            if multiple or len(collectors) > 1:
                suffix = figure if len(collectors) == 1 \
                    else f"{figure}-{collectors.index(collector)}"
                if "." in path.rsplit("/", 1)[-1]:
                    stem, ext = path.rsplit(".", 1)
                    path = f"{stem}-{suffix}.{ext}"
                else:
                    path = f"{path}-{suffix}"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(collector.to_json())
            print(f"   trace export written to {path}")


if __name__ == "__main__":
    sys.exit(main())
