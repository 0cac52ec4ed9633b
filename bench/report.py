"""Text rendering, the run record, and ``--compare``."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time

from .runner import EXACT_COUNTS, ROOT

RESULTS_DIR = ROOT / "bench" / "results"


def _number(value) -> str:
    if value is None:
        return "null"
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value)}"
    return f"{value:.6g}"


def render_workload(result: dict, spec: dict) -> list:
    """Every metric of one workload by name, with its unit."""
    lines = [f"== {result['workload']} (seed {result['seed']}, "
             f"{len(result['reps'])} reps, scale {result['scale']:g}) =="]
    lines.append(f"  {'end-to-end':<16}{'median':>12}{'min':>12}{'max':>12}"
                 f"  {'unit':<6}{'bound':>6}  status")
    for name, row in result["end_to_end"].items():
        bound = spec["end_to_end"][name]["bound"]
        lines.append(
            f"  {name:<16}{row['value']:>12.6g}{row['min']:>12.6g}"
            f"{row['max']:>12.6g}  {row['unit']:<6}{bound:>6.0%}"
            f"  {row['status']}")
    for index, rep in enumerate(result["reps"]):
        lines.append(
            f"  rep {index}: wall_s {rep['wall_s']:.4f} (raw "
            f"{rep['wall_raw_s']:.4f}), setup_s {rep['setup_s']:.4f} (raw "
            f"{rep['setup_raw_s']:.4f}), peak_rss_mb "
            f"{rep['peak_rss_mb']:.1f}")
    lines.append(f"  ops_attempted = {_number(result['ops_attempted'])}, "
                 f"ops_failed = {_number(result['ops_failed'])}")
    lines.append("  per-layer")
    for name, row in result["per_layer"].items():
        lines.append(f"    {name:<36}{_number(row['value']):>14} "
                     f"{row['unit']}")
    traced = result["traced"]
    if traced:
        lines.append("  top self-time functions (traced run)")
        for row in traced["ledger"]["top"]:
            lines.append(f"    {row['self_s']:>9.4f} s {row['calls']:>9} "
                         f"calls  {row['function']}")
    if result["problems"]:
        lines += [f"  CHECK FAILED: {p}" for p in result["problems"]]
    else:
        lines.append("  output checks: ok")
    return lines


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def build_record(results: list, seed: int, reps: int, scale: float,
                 spec: dict) -> dict:
    """The run record: enough to reproduce and to compare the run."""
    return {
        "schema": 1,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed, "reps": reps, "scale": scale,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "end_to_end": list(spec["end_to_end"].values()),
        "workloads": {r["workload"]: r for r in results},
    }


def write_record(record: dict, path=None) -> str:
    if path is None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        stamp = record["created"].replace("-", "").replace(":", "")
        path = RESULTS_DIR / f"run-seed{record['seed']}-{stamp}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return str(path)


def compare(path_a: str, path_b: str) -> int:
    """Print one row per (workload, end-to-end metric); 1 if any row
    regressed or an exact count differs, else 0."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    print(f"A = {path_a} (commit {a['commit']}, seed {a['seed']}, "
          f"{a['reps']} reps)")
    print(f"B = {path_b} (commit {b['commit']}, seed {b['seed']}, "
          f"{b['reps']} reps)")
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print("warning: seeds or scales differ, so counts are expected "
              "to differ")
    print(f"{'workload':<14}{'metric':<18}{'A':>12}{'B':>12}"
          f"{'B/A':>9}  {'bound':>6}  verdict")
    bad = 0
    for workload, in_a in a["workloads"].items():
        in_b = b["workloads"].get(workload)
        if in_b is None:
            print(f"{workload:<14}missing in B")
            bad += 1
            continue
        for declared in a["end_to_end"]:
            name, bound = declared["name"], declared["bound"]
            row_a, row_b = in_a["end_to_end"][name], in_b["end_to_end"][name]
            ratio = row_b["value"] / row_a["value"]
            worse = (ratio - 1.0 if declared["better"] == "lower"
                     else 1.0 - ratio)
            if "unresolved" in (row_a["status"], row_b["status"]):
                verdict = (f"unresolved (spread A {row_a['spread']:.1%}, "
                           f"B {row_b['spread']:.1%})")
            elif worse > bound:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "ok"
            print(f"{workload:<14}{name:<18}{row_a['value']:>12.6g}"
                  f"{row_b['value']:>12.6g}{ratio:>8.3f}x  {bound:>6.1%}"
                  f"  {verdict}")
        for name in EXACT_COUNTS:
            count_a = in_a["per_layer"][name]["value"]
            count_b = in_b["per_layer"][name]["value"]
            same = count_a == count_b
            bad += not same
            print(f"{workload:<14}{name:<18}{_number(count_a):>12}"
                  f"{_number(count_b):>12}{'':>9}  {'exact':>6}  "
                  f"{'identical' if same else 'differs'}")
    print("B/A is B's median over A's median (base A).")
    return 1 if bad else 0
