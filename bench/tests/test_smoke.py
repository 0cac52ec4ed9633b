"""Smoke test of the benchmark itself.

Not part of tier-1 (``testpaths`` is ``tests``); run it from the repo
root as ``python -m pytest bench/tests -q``.  Every workload runs at
one-tenth clients with one repetition plus the traced run, twice, so
the counts can be held to repeat.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, timeout=180):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two smoke runs of the whole suite: (record, stdout) each."""
    out_dir = tmp_path_factory.mktemp("smoke")
    runs = []
    for tag in ("a", "b"):
        path = out_dir / f"{tag}.json"
        done = bench("--smoke", "--out", str(path))
        assert done.returncode == 0, done.stdout + done.stderr
        runs.append((json.loads(path.read_text()), done.stdout, path))
    return runs


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert not any(part.startswith("/") or ".." in part
                   for part in SPEC["command"])
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_record_schema_and_names(smoke_runs):
    # The runner refuses a per-layer metric BENCHMARK.json does not
    # declare, and the lists below fail on a declared one it does not
    # produce: together, the name sets are equal.
    record, stdout, _ = smoke_runs[0]
    for key in ("seed", "reps", "scale", "python", "nproc", "commit",
                "workloads", "end_to_end"):
        assert key in record
    assert list(record["workloads"]) == WORKLOADS
    for name, result in record["workloads"].items():
        assert not result["problems"]
        assert list(result["end_to_end"]) == END_TO_END
        assert list(result["per_layer"]) == PER_LAYER
        for row in result["end_to_end"].values():
            assert {"value", "min", "max", "unit", "status"} <= set(row)
            assert row["value"] > 0
        # Per-repetition raw values, not only medians.
        assert len(result["reps"]) == record["reps"] == 1
        for rep in result["reps"]:
            assert {"setup_s", "wall_s", "peak_rss_mb", "counts"} <= set(rep)
        assert len(result["traced"]["ledger"]["top"]) == 15
        # Every metric is printed by name.
        for metric in END_TO_END + PER_LAYER:
            assert re.search(rf"^\s+{re.escape(metric)}\s", stdout, re.M)


def test_counts_repeat_across_two_smoke_runs(smoke_runs):
    (first, _, _), (second, _, _) = smoke_runs
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["reps"][0]["counts"] == b["reps"][0]["counts"]
        assert a["traced"]["counts"] == b["traced"]["counts"]
        assert a["reps"][0]["counts"]["simkernel.events"] == \
            a["traced"]["counts"]["simkernel.events"]
        assert a["end_to_end"]["events_per_op"]["value"] == \
            b["end_to_end"]["events_per_op"]["value"]
        # Calls counted by the profiler are exact too.
        for metric in PER_LAYER:
            if metric.endswith(".calls"):
                assert a["per_layer"][metric] == b["per_layer"][metric]


def test_compare_prints_a_row_per_workload_and_metric(smoke_runs):
    (_, _, path_a), (_, _, path_b) = smoke_runs
    done = bench("--compare", str(path_a), str(path_b))
    assert done.returncode in (0, 1), done.stderr  # timings may be noisy
    for workload in WORKLOADS:
        for metric in END_TO_END:
            assert re.search(rf"^{workload}\s+{metric}\s", done.stdout, re.M)
        assert re.search(rf"^{workload}\s+simkernel\.events\s.*identical$",
                         done.stdout, re.M)


@pytest.mark.parametrize("trace,declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_driver_mode_prints_one_json_result_line(trace, declared):
    done = bench("--smoke", "--workload", "mqtt_dcr", "--seed", "3",
                 "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == declared
    for row in line["metrics"].values():
        assert set(row) == {"value", "unit"}
        assert isinstance(row["value"], (int, float))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = bench("--workload", "web_zdr", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
