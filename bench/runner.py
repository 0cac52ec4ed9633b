"""Run repetitions in fresh interpreters and turn them into metrics.

Exactly one busy process at a time: the runner blocks while each
repetition runs, so a 2-core shared box measures the program and not
the scheduler.  Metric names, units, directions and regression bounds
are read from ``BENCHMARK.json`` — the one place they are declared.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: One repetition (the traced one is ~4x slower) must fit well inside
#: the driver's 180 s per-run limit.
REP_TIMEOUT_S = 150

#: Counts that must be identical across the repetitions of a workload
#: and between the traced and the untraced run: tracing may cost time,
#: not change behaviour.
EXACT_COUNTS = ("simkernel.events", "clients.ops", "clients.ops_failed")

#: Window counts reported as per-layer metrics as they are.
LAYER_COUNTS = (
    "simkernel.events", "clients.ops", "clients.web_ops",
    "clients.mqtt_ops", "clients.quic_ops", "clients.ops_failed",
    "proxygen.takeovers", "proxygen.dcr_rehomed", "proxygen.ppr_379",
    "proxygen.udp_forwarded", "regions.sessions_rehomed")

#: ``other`` (every ``repro`` package without a layer of its own) must
#: stay below this share of traced self time.
OTHER_SHARE_LIMIT = 0.01


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    """``BENCHMARK.json`` with its metric lists keyed by name."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    for section in ("end_to_end", "per_layer"):
        spec[section] = {m["name"]: m for m in spec[section]}
    spec["workloads"] = {w["name"]: w for w in spec["workloads"]}
    return spec


def run_rep(workload: str, seed: int, scale: float, trace: bool) -> dict:
    """One repetition in a fresh interpreter; blocks until it has ended."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Hash randomisation changes dict/set memory layout from process to
    # process; pinning it removes one source of run-to-run spread (the
    # simulation's behaviour does not depend on it).
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, "-m", "bench.rep", "--workload", workload,
               "--seed", str(seed), "--scale", repr(scale),
               "--trace", str(int(trace)), "--t0", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: repetition exceeded "
                         f"{REP_TIMEOUT_S} s") from exc
    if done.stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"{workload}: repetition exited with "
                         f"{done.returncode}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload}: repetition printed no result") from exc


def rep_end_to_end(rep: dict) -> dict:
    """The end-to-end metrics of one repetition."""
    counts = rep["counts"]
    ops = counts["clients.ops"]
    if ops <= 0:
        raise BenchError(f"{rep['workload']}: clients.ops = {ops:g}")
    return {
        "wall_s": rep["wall_s"],
        "ops_per_s": ops / rep["wall_s"],
        "events_per_op": counts["simkernel.events"] / ops,
        "peak_rss_mb": rep["peak_rss_mb"],
        "setup_s": rep["setup_s"],
        "op_ok_share": ops / (ops + counts["clients.ops_failed"]),
    }


def summarize_end_to_end(reps: list, spec: dict) -> dict:
    """Median over repetitions, with min, max and an ``unresolved`` flag
    when the spread (max − min) / median exceeds the metric's bound."""
    per_rep = [rep_end_to_end(rep) for rep in reps]
    out = {}
    for name, declared in spec["end_to_end"].items():
        values = [r[name] for r in per_rep]
        median = statistics.median(values)
        spread = (max(values) - min(values)) / median
        out[name] = {
            "value": median, "min": min(values), "max": max(values),
            "unit": declared["unit"], "spread": spread,
            "status": ("unresolved" if spread > declared["bound"]
                       else "ok"),
        }
    return out


def untraced_layer_values(reps: list) -> dict:
    """Per-layer metrics the untraced repetitions give (exact counts,
    plus rates over the median wall time)."""
    first = reps[0]
    wall = statistics.median(rep["wall_s"] for rep in reps)
    counts = first["counts"]
    values = {name: counts[name] for name in LAYER_COUNTS}
    values.update(first["sim"])
    values["simkernel.events_per_s"] = counts["simkernel.events"] / wall
    values["simkernel.sim_s_per_wall_s"] = first["sim_window_s"] / wall
    return values


def traced_layer_values(traced: dict, untraced_wall_raw_s: float) -> dict:
    """Per-layer metrics the traced run gives.  The traced run is not
    calibrated, so its overhead is a ratio of raw seconds."""
    folded = traced["ledger"]
    values = {}
    for layer, row in folded["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.self_share"] = row["self_share"]
    for module, self_s in folded["modules"].items():
        values[f"{module}.self_s"] = self_s
    for name, row in folded["entry_points"].items():
        values[f"{name}.calls"] = None if row is None else row["calls"]
        values[f"{name}.cum_s"] = None if row is None else row["cum_s"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_x"] = traced["wall_s"] / untraced_wall_raw_s
    return values


def verify(reps: list, traced) -> list:
    """Output checks; returns the list of problems (empty = correct)."""
    problems = []
    for index, rep in enumerate([*reps, *([traced] if traced else [])]):
        which = "traced run" if rep["traced"] else f"rep {index}"
        problems.extend(f"{which}: {p}" for p in rep["problems"])
        for name in EXACT_COUNTS:
            if rep["counts"][name] != reps[0]["counts"][name]:
                problems.append(
                    f"{which}: {name} = {rep['counts'][name]:g}, "
                    f"rep 0 has {reps[0]['counts'][name]:g}")
    if traced:
        share = traced["ledger"]["layers"]["other"]["self_share"]
        if share >= OTHER_SHARE_LIMIT:
            problems.append(f"other.self_share = {share:.4f}, want < "
                            f"{OTHER_SHARE_LIMIT}")
    return problems


def measure(workload: str, seed: int, scale: float, reps: int,
            min_seconds: float, trace: bool, spec: dict) -> dict:
    """Measure one workload.

    Runs at least ``reps`` untraced repetitions, and more until their
    measured windows add up to ``min_seconds`` host seconds; then, with
    ``trace``, one traced repetition.  End-to-end metrics are never
    taken from the traced run.
    """
    untraced = []
    while (len(untraced) < reps
           or sum(r["wall_raw_s"] for r in untraced) < min_seconds):
        untraced.append(run_rep(workload, seed, scale, trace=False))
    traced = run_rep(workload, seed, scale, trace=True) if trace else None
    problems = verify(untraced, traced)

    layer_values = untraced_layer_values(untraced)
    if traced:
        layer_values.update(traced_layer_values(
            traced, statistics.median(r["wall_raw_s"] for r in untraced)))
    undeclared = set(layer_values) - set(spec["per_layer"])
    if undeclared:
        raise BenchError("per-layer metrics missing from BENCHMARK.json: "
                         + ", ".join(sorted(undeclared)))
    per_layer = {
        name: {"value": layer_values[name], "unit": declared["unit"]}
        for name, declared in spec["per_layer"].items()
        if name in layer_values}
    counts = untraced[0]["counts"]
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "end_to_end": summarize_end_to_end(untraced, spec),
        "per_layer": per_layer,
        "ops_attempted": counts["clients.ops"] + counts["clients.ops_failed"],
        "ops_failed": counts["clients.ops_failed"],
        "problems": problems,
        "reps": untraced,
        "traced": traced,
    }
