"""CLI for the benchmark suite: ``python -m repro.perf``.

Default mode runs every benchmark on both kernels and writes
``BENCH_kernel.json`` (micro) and ``BENCH_macro.json`` (macro) into
``--out`` (default ``benchmarks/``, merging per-mode sections so a
``--quick`` run does not clobber the full baselines).

``--check`` compares the fresh results against the committed baselines
instead of overwriting them, and exits non-zero if any
kernel-sensitive benchmark's opt/ref *speedup* regressed by more than
20%.  Speedup ratios — not absolute ops/sec — are compared because the
ratio is machine-independent while throughput is not; the fresh
numbers are still written alongside (``BENCH_*.current.json``) for CI
artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..simkernel.core import Environment as LiveEnvironment
from ..simkernel.reference import Environment as ReferenceEnvironment
from .harness import BenchResult, measure
from .scenarios import MACRO_SCENARIOS, MICRO_SCENARIOS, Scenario

#: A benchmark fails ``--check`` when its speedup drops below this
#: fraction of the committed baseline's speedup.
REGRESSION_TOLERANCE = 0.8

#: Scenarios with no store, resource or ``with_timeout`` in them: there
#: the two kernels must still schedule exactly the same number of events.
PURE_KERNEL = frozenset({"event_churn", "timeout_storm"})


def run_scenario(scenario: Scenario, mode: str) -> BenchResult:
    scale = scenario.quick_scale if mode == "quick" else scenario.full_scale
    opt = measure(lambda: scenario.fn(LiveEnvironment, scale),
                  repeat=scenario.repeat)
    ref = None
    notes: dict = {}
    if scenario.ref_fn is not None:
        # Feature comparison: both arms on the live kernel.  Event
        # counts differ by design (that is the feature being priced);
        # completed work must not.
        ref = measure(lambda: scenario.ref_fn(LiveEnvironment, scale),
                      repeat=scenario.repeat)
        if ref.ops != opt.ops:
            raise SystemExit(
                f"FEATURE DIVERGENCE in {scenario.name}: fast-path arm "
                f"completed {opt.ops} ops, reference arm {ref.ops}")
        notes["ops_match"] = True
    elif scenario.kernel_sensitive:
        ref = measure(lambda: scenario.fn(ReferenceEnvironment, scale),
                      repeat=scenario.repeat)
        # Coarse differential check for free: a deterministic scenario
        # must complete the same work on both kernels.  The live kernel
        # schedules only events somebody waits on (no put events, no
        # grants of a free unit, no race around a single store get, no
        # get event for a reader a network delivery wakes), so
        # it may schedule fewer events than the reference — never more,
        # and exactly as many where none of those is involved.
        if (ref.ops != opt.ops or opt.events > ref.events
                or (scenario.name in PURE_KERNEL
                    and opt.events != ref.events)):
            raise SystemExit(
                f"KERNEL DIVERGENCE in {scenario.name}: optimized kernel "
                f"completed {opt.ops} ops in {opt.events} events, "
                f"reference {ref.ops} ops in {ref.events}")
        notes["events_match"] = ref.events == opt.events
    return BenchResult(name=scenario.name, kind=scenario.kind,
                       kernel_sensitive=scenario.kernel_sensitive,
                       opt=opt, ref=ref, notes=notes)


def render(result: BenchResult) -> str:
    parts = [f"{result.name:<22} {result.opt.ops_per_s:>12.0f} ops/s"
             f"  {result.opt.wall_s:>8.3f}s"]
    if result.ref is not None:
        parts.append(f"  ref {result.ref.wall_s:>8.3f}s"
                     f"  speedup {result.speedup:.2f}x")
    return "".join(parts)


def merge_write(path: Path, mode: str, results: list[BenchResult]) -> None:
    """Merge results into ``modes.<mode>.results``, preserving the other
    mode and (for ``--only`` runs) the unselected scenarios."""
    doc: dict = {"modes": {}}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            doc = {"modes": {}}
    section = doc.setdefault("modes", {}).setdefault(mode, {})
    section.setdefault("results", {}).update(
        {r.name: r.to_json() for r in results})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def check_against(path: Path, mode: str,
                  results: list[BenchResult]) -> list[str]:
    """Regression messages for results vs the committed baseline."""
    if not path.exists():
        return [f"missing baseline {path}; run `python -m repro.perf` "
                f"and commit the output"]
    doc = json.loads(path.read_text())
    baseline = doc.get("modes", {}).get(mode, {}).get("results", {})
    failures = []
    for result in results:
        if not result.kernel_sensitive or result.speedup is None:
            continue
        entry = baseline.get(result.name)
        if entry is None or "speedup" not in entry:
            failures.append(f"{result.name}: no '{mode}' baseline entry "
                            f"in {path}")
            continue
        floor = entry["speedup"] * REGRESSION_TOLERANCE
        if result.speedup < floor:
            failures.append(
                f"{result.name}: speedup {result.speedup:.2f}x is >20% "
                f"below the baseline {entry['speedup']:.2f}x "
                f"(floor {floor:.2f}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Kernel and end-to-end benchmarks (optimized vs "
                    "frozen reference kernel).")
    parser.add_argument("--quick", action="store_true",
                        help="reduced scales (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="compare against committed baselines; exit 1 "
                             "on >20%% speedup regression")
    parser.add_argument("--out", default="benchmarks",
                        help="baseline directory (default: benchmarks/)")
    parser.add_argument("--only", default=None,
                        help="run only scenarios whose name contains this")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    out = Path(args.out)
    suites = [("BENCH_kernel.json", MICRO_SCENARIOS),
              ("BENCH_macro.json", MACRO_SCENARIOS)]

    failures: list[str] = []
    for filename, scenarios in suites:
        selected = [s for s in scenarios
                    if args.only is None or args.only in s.name]
        if not selected:
            continue
        print(f"-- {filename} ({mode}) --")
        results = [run_scenario(s, mode) for s in selected]
        for result in results:
            print("   " + render(result))
        if args.check:
            failures.extend(check_against(out / filename, mode, results))
            merge_write(out / filename.replace(".json", ".current.json"),
                        mode, results)
        else:
            merge_write(out / filename, mode, results)

    if args.check and failures:
        print("PERF CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print("  " + failure, file=sys.stderr)
        return 1
    if args.check:
        print("perf check passed (no speedup regression >20%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
