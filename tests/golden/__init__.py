"""The behaviour record: what each registered run observed, committed.

``record.json`` holds one digest per case, one line each.  Per topology
a run built (``run0``, ``run1`` … in build order): the clock, the
kernel's scheduled ``events`` and in-place ``handoffs``, a sha256 per
metrics scope and the invariant verdicts (violations per checker).  A
CLI case adds its exit status, claim verdicts and the sha256 of what it
printed, wall-clock line stripped; a kernel scenario, its own log.
Every sha is its first 16 hex digits.

``python -m tests.golden --check`` reruns the cases in one interpreter
and names each case and field that moved ("events/handoffs only" when
nothing else did: a change about scheduling less); ``--update``
rerecords them, each in a fresh interpreter, so nothing one case leaves
behind is baked into another's record.  Both take case names.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.run import run_of
from tests.differential import full_snapshot, topology_hook

ROOT = Path(__file__).resolve().parents[2]
RECORD = Path(__file__).with_name("record.json")

#: The CLI's one intentional nondeterminism, and what ``shardscale``
#: may print differently across worker counts.
WALL = re.compile(r"^ *\(\d+\.\d+s wall\)\n", re.MULTILINE)
SHARDS = re.compile(WALL.pattern + r"|^ *param shards = \d+\n",
                    re.MULTILINE)

#: Option arms: what CI ``smoke`` and the CLI double-run exercise.
ARMS = (
    "fig02d --lb-scheme stateless", "fig12 --load-shape diurnal --canary",
    "fig12 --cohorts 100 --cohort-fidelity aggregate --faults hc-flap-storm",
    "fig13 --splice", "fig13 --trace",
    "fig13 --cohorts 100 --cohort-fidelity aggregate",
    "regionevac --faults wan-partition", "regionevac --splice",
    "regionevac --cohorts 100 --cohort-fidelity aggregate",
    *(f"resilience --seed {seed}" for seed in range(1, 7)))


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(observed: dict) -> dict:
    """Numbers as they are; a sha for anything else, one per scope."""
    out = {key: value if isinstance(value, (int, float)) else _sha(value)
           for key, value in observed.items() if key != "scoped"}
    out.update((f"scoped/{scope}", _sha(counters))
               for scope, counters in observed.get("scoped", {}).items())
    return out


def run_digest(run, violations=None) -> dict:
    """What one topology observed (:func:`full_snapshot`); violations
    default to its run's invariant suite's, if it has one."""
    if violations is None:
        suite = run_of(run.env).suite
        violations = suite.finalize() if suite else ()
    return {**digest(full_snapshot(run)), "invariants": dict(sorted(
        Counter(violation.checker for violation in violations).items()))}


def _cli(argv: str, strip=WALL, runs=True) -> dict:
    """``python -m repro.experiments ARGV --no-plots``, in process."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.__main__ import main

    args = argv.split()
    module = ALL_EXPERIMENTS[args[0]]
    results, built, printed = [], [], io.StringIO()
    run = module.run

    def recorded(*run_args, **run_kwargs):
        results.append(run(*run_args, **run_kwargs))
        return results[-1]

    module.run = recorded
    try:
        with topology_hook(built.append), contextlib.redirect_stdout(printed):
            code = main([*args, "--no-plots"])
    finally:
        module.run = run
    (result,) = results
    out = {"exit": code, "claims": result.claims,
           "output": _sha(strip.sub("", printed.getvalue()))}
    if runs:  # what a harness hands back is every topology it built
        assert [topology.run_record for topology in built] == result.runs, (
            "the runs handed back are not the runs built")
        for i, topology in enumerate(built):
            out.update((f"run{i} {key}", value)
                       for key, value in run_digest(topology).items())
    return out


def _shardscale(seed: int) -> dict:
    one, two = (_cli(f"shardscale --seed {seed} --shards {shards}",
                     SHARDS, runs=False) for shards in (1, 2))
    return one if one == two else {**one, "2 shards": two}


def _fuzz(seed: int, duration=None) -> dict:
    from repro.fuzz.runner import run_scenario
    from repro.fuzz.scenario import generate_scenario

    scenario = generate_scenario(seed)
    if duration is not None:
        scenario = dataclasses.replace(scenario, duration=duration)
    built = []
    with topology_hook(built.append):
        result = run_scenario(scenario)
    return run_digest(built[0], result.violations)


def _bench(name: str, seed: int) -> dict:
    from bench import rep
    from bench.workloads import WARMUP, WORKLOADS

    workload = WORKLOADS[name]
    deployment = workload.build(seed, 1.0)
    deployment.start()
    rep.advance(deployment, WARMUP, (), None)
    rep.advance(deployment, workload.horizon, workload.script, None)
    return run_digest(deployment)


def _kernel(name: str) -> dict:
    from tests.perf import test_differential as scenarios

    observed = getattr(scenarios, name)()
    return (digest(observed) if isinstance(observed, dict)
            else run_digest(observed))


def _ratchet(name: str) -> dict:
    from tests import test_event_ratchet

    return run_digest(getattr(test_event_ratchet, name).__wrapped__()[0])


def _cases() -> dict:
    from repro.experiments import ALL_EXPERIMENTS

    partial = functools.partial
    cases = {f"fuzz {seed} @12s": partial(_fuzz, seed, 12.0)
             for seed in range(25)}
    cases.update((f"kernel {name.replace('_', '-')}", partial(_kernel, name))
                 for name in ("figure_shaped", "saturated_host",
                              "probe_storm"))
    for name, seed in ((name, seed) for name in sorted(ALL_EXPERIMENTS)
                       for seed in (0, 7)):
        cases[f"{name} --seed {seed}"] = (
            partial(_shardscale, seed) if name == "shardscale"
            else partial(_cli, f"{name} --seed {seed}"))
    cases.update((arm, partial(_cli, arm)) for arm in ARMS)
    cases.update((f"fuzz {seed}", partial(_fuzz, seed)) for seed in range(25))
    cases.update((f"bench {name} @{seed}", partial(_bench, name, seed))
                 for name in ("web_zdr", "bulk_post_ppr", "mqtt_dcr",
                              "region_evac") for seed in (0, 7))
    cases.update((f"ratchet {name}", partial(_ratchet, name))
                 for name in ("released", "bulk_posts", "origin_released",
                              "evacuated"))
    return cases


CASES = _cases()

#: What tier-1 checks (``tests/perf/test_differential.py``, and the
#: figure ``tests/experiments/test_cli_determinism.py``).
TIER1 = (*(f"fuzz {seed} @12s" for seed in range(25)),
         "kernel figure-shaped", "kernel saturated-host",
         "kernel probe-storm", "fig10 --seed 0")


@functools.lru_cache(maxsize=1)
def load() -> dict:
    return json.loads(RECORD.read_text()) if RECORD.exists() else {}


def moved(name: str, observed: dict) -> str:
    """``""`` if ``observed`` is what ``name`` recorded, else a line
    naming the fields that moved."""
    recorded = load().get(name)
    if recorded is None:
        return f"{name}: not recorded"
    fields = sorted(key for key in recorded.keys() | observed.keys()
                    if recorded.get(key) != observed.get(key))
    if not fields:
        return ""
    more = f" and {len(fields) - 8} more" if len(fields) > 8 else ""
    only = all(field.split()[-1] in ("events", "handoffs") for field in fields)
    return (f"{name}: {', '.join(fields[:8])}{more}"
            + (" (events/handoffs only)" if only else ""))


def assert_recorded(name: str, observed: dict) -> None:
    assert not (line := moved(name, observed)), line


def first_moved(names) -> str:
    """The first of ``names`` whose run moved (or raised), or ``""``."""
    for name in names:
        try:
            line = moved(name, CASES[name]())
        except Exception as exc:  # a crash is a move too
            line = f"{name}: raised {exc!r}"
        if line:
            return line
    return ""


def check(names) -> int:
    failures = 0
    for name in names:
        line = first_moved([name])
        failures += bool(line)
        print(line or f"{name}: as recorded", flush=True)
    print(f"{failures} of {len(names)} cases moved")
    return int(failures > 0)


def _fresh(name: str) -> dict:
    code = ("import json; from tests import golden; "
            f"print(json.dumps(golden.CASES[{name!r}]()))")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"})
    return json.loads(done.stdout.splitlines()[-1])


def update(names) -> int:
    record = dict(load())
    record.update((name, _fresh(name)) for name in names)
    RECORD.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(record[name], sort_keys=True)}"
        for name in CASES if name in record) + "\n}\n")
    return 0
