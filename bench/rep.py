"""One repetition of one workload, in this (fresh) interpreter.

``python -m bench.rep --workload W --seed N --scale X --trace 0|1 --t0 T``
prints one JSON object as the last line of stdout.  The runner starts
one of these per repetition because in-process repeats are invalid: the
previous deployment's object graph is still being collected while the
next one runs (measured for the issue: 5.97 → 7.50 → 6.78 s in one
interpreter against 5.74 / 5.77 / 5.89 s in three fresh ones).

A repetition is split at the warm-up boundary (``workloads.WARMUP``):
everything from the runner's ``--t0`` (taken just before it spawned
this interpreter) to the boundary is ``setup_s``; the measured window
runs from the boundary to the workload's horizon.  Counter values are
read at both ends and every op count is the difference.  Both timings
are calibrated against the host's speed (``bench/calibrate.py``); the
raw seconds are reported beside them.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from typing import NamedTuple

from .calibrate import Calibrator, calibrated

#: Client counters that make up ``clients.ops``, per protocol, as
#: (scope prefix, counter names).
OPS = {
    "web": ("web-clients", ("get_ok", "post_ok")),
    "mqtt": ("mqtt-clients", ("publishes_sent", "publishes_received")),
    "quic": ("quic-clients", ("packets_acked",)),
}

#: Client counters that make up ``clients.ops_failed``.  The issue's
#: list plus the three request-terminal outcomes it left out
#: (``get_conn_reset``, ``get_conn_closed``, ``post_conn_closed``): a
#: GET reset in flight is as failed as a POST.
FAILED = {
    "web-clients": ("get_error", "post_error", "get_timeout",
                    "post_timeout", "request_conn_reset",
                    "get_conn_reset", "post_conn_reset",
                    "get_conn_closed", "post_conn_closed",
                    "connect_no_backend"),
    "mqtt-clients": ("session_broken", "connect_failed",
                     "connect_no_backend"),
    "quic-clients": ("packets_lost",),
}

#: Mechanism counters, as (counter, tag) summed over every scope: the
#: per-layer counts and what the workloads' output checks read.
MECHANISMS = {
    "proxygen.takeovers": ("takeover_completed", None),
    "proxygen.dcr_rehomed": ("dcr_rehomed", None),
    "proxygen.ppr_379": ("ppr_379_received", None),
    "proxygen.udp_forwarded": ("udp_forwarded_to_sibling", None),
    "regions.sessions_rehomed": ("sessions_rehomed", "r1"),
    "regions.evacuations_completed": ("evacuations_completed", "r1"),
    "clients.mqtt_reconnects": ("reconnects", None),
    "clients.mqtt_session_broken": ("session_broken", None),
}

LATENCY_QUANTILES = ("client/get_latency", "client/post_latency")

#: Sim seconds advanced between two calibration slices.  Script times,
#: ``WARMUP`` and every horizon are multiples of it.
SLICE = 0.25


def kernel_events(env) -> int:
    """Events scheduled so far.

    The kernel has no public stats yet (ROADMAP item 4), so this reads
    ``env._eid`` — the only private attribute the benchmark may read,
    and this is the only place that reads it.
    """
    return env._eid


def read_counts(dep) -> dict:
    """Every exact count the benchmark reports, as of now."""
    aggregate = dep.metrics.aggregate
    counts = {"simkernel.events": kernel_events(dep.env)}
    for kind, (prefix, names) in OPS.items():
        counts[f"clients.{kind}_ops"] = sum(
            aggregate(name, scope_prefix=prefix) for name in names)
    counts["clients.ops"] = sum(
        counts[f"clients.{kind}_ops"] for kind in OPS)
    counts["clients.ops_failed"] = sum(
        aggregate(name, scope_prefix=prefix)
        for prefix, names in FAILED.items() for name in names)
    for metric, (name, tag) in MECHANISMS.items():
        counts[metric] = aggregate(name, tag=tag)
    return counts


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase(NamedTuple):
    """Host seconds of one stretch of the run."""

    #: Seconds the simulation itself took.
    raw_s: float
    #: Seconds and number of the calibration slices interleaved with it
    #: (0 and 0 in the traced run, which is not calibrated).
    calibration_s: float
    slices: int

    def calibrated(self, raw_s: float) -> float:
        """``raw_s``, measured during this phase, at reference speed."""
        if not self.slices:
            return raw_s
        return calibrated(raw_s, self.calibration_s, self.slices)


def advance(dep, until: float, script, calibrator) -> Phase:
    """Run the deployment to sim time ``until`` in ``SLICE`` steps,
    firing ``script`` actions at their times and, with a calibrator,
    one calibration slice after each step."""
    pending = sorted(script, key=lambda item: item[0], reverse=True)
    raw_s = calibration_s = 0.0
    slices = 0
    now = dep.env.now
    while now < until:
        while pending and pending[-1][0] <= now:
            pending.pop()[1](dep)
        now = min(until, now + SLICE)
        started = time.perf_counter()
        dep.run(until=now)
        raw_s += time.perf_counter() - started
        if calibrator is not None:
            calibration_s += calibrator.slice()
            slices += 1
    return Phase(raw_s, calibration_s, slices)


def run(workload_name: str, seed: int, scale: float, trace: bool,
        t0: float) -> dict:
    from . import ledger
    from .workloads import WARMUP, WORKLOADS

    workload = WORKLOADS[workload_name]
    # The traced run is never timed against anything but itself, and
    # the calibration load would only pollute its ``python`` layer.
    # The load's own memory (deliberately large, see calibrate.py) is
    # taken off ``peak_rss_mb``: nothing has been freed this early, so
    # the high-water mark moves by exactly what the load allocated.
    rss_before_mb = _max_rss_mb()
    calibrator = None if trace else Calibrator()
    calibrator_mb = _max_rss_mb() - rss_before_mb
    profiler = cProfile.Profile() if trace else None
    if profiler is not None:
        # Topology build and warm-up are inside the profile, so the
        # cluster/regions layers (setup-only by prediction) show up.
        profiler.enable()
    dep = workload.build(seed, scale)
    dep.start()
    # Each phase is scaled by the host speed measured during it
    # (measured: a whole-run estimate doubled the setup's spread).
    warmup = advance(dep, WARMUP, (), calibrator)
    setup_raw_s = time.monotonic() - t0 - warmup.calibration_s
    before = read_counts(dep)
    window = advance(dep, workload.horizon, workload.script, calibrator)
    if profiler is not None:
        profiler.disable()
    after = read_counts(dep)

    counts = {name: after[name] - before[name] for name in after}
    metrics = dep.metrics
    get_latency = metrics.quantiles("client/get_latency")
    sim = {
        "clients.get_p50_ms": (get_latency.median * 1e3
                               if len(get_latency) else None),
        "clients.get_p99_ms": (get_latency.p99 * 1e3
                               if len(get_latency) else None),
        "metrics.scopes": len(metrics.scopes()),
        "metrics.series": len(metrics.series_names()),
        "metrics.quantile_samples": sum(
            len(metrics.quantiles(name)) for name in LATENCY_QUANTILES),
    }
    out = {
        "workload": workload_name, "seed": seed, "scale": scale,
        "traced": trace,
        "setup_s": warmup.calibrated(setup_raw_s),
        "wall_s": window.calibrated(window.raw_s),
        "setup_raw_s": setup_raw_s, "wall_raw_s": window.raw_s,
        "calibration": {
            "setup_s": warmup.calibration_s, "setup_slices": warmup.slices,
            "window_s": window.calibration_s,
            "window_slices": window.slices},
        "sim_window_s": workload.horizon - WARMUP,
        "peak_rss_mb": _max_rss_mb() - calibrator_mb,
        "counts": counts, "sim": sim,
        "problems": workload.check(counts),
    }
    if profiler is not None:
        out["ledger"] = ledger.fold(profiler.getstats())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.rep")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="runner's time.monotonic() just before it "
                             "spawned this interpreter")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    result = run(args.workload, args.seed, args.scale, bool(args.trace), t0)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
