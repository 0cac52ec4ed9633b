"""Fork-based shard workers and the deterministic merge driver.

Workers use the ``fork`` start method: the child inherits the already-
imported simulator, builds the full topology from the same spec, starts
only its assigned regions (see :mod:`repro.shard`), runs to the horizon
and ships its counter snapshot + invariant verdicts back over a pipe.
A worker that dies without reporting fails the whole run loudly —
silently merging a partial fleet would read as "covered everything".
"""

from __future__ import annotations

import multiprocessing
from typing import Optional

from ..invariants import InvariantSuite
from ..options import RunOptions
from . import ShardPlan, ShardResult, counters_snapshot, merge_counters

__all__ = ["run_sharded"]


def _run_one(spec, until: float, region_names: Optional[list],
             options: RunOptions) -> tuple:
    """Build, start (a subset of) and run one regional deployment;
    return its report dict and its run's record.  Runs in-process for
    the 1-shard arm and inside a forked worker for every sharded arm —
    one code path, so the differential compares like with like."""
    from ..regions import RegionalDeployment, RegionalSpec

    if not isinstance(spec, RegionalSpec):
        raise TypeError(f"run_sharded wants a RegionalSpec, "
                        f"got {type(spec).__name__}")
    deployment = RegionalDeployment(spec, options=options)
    # On the record, as build_deployment does: the in-process arm's
    # suite and collector reach the caller on ShardResult.runs; a forked
    # worker's verdicts travel back in its report.
    suite = deployment.run_record.suite = \
        InvariantSuite(deployment).attach()
    deployment.start(only_regions=region_names)
    deployment.env.run(until=until)
    violations = suite.finalize()
    return {
        "counters": counters_snapshot(deployment.metrics),
        "violations": sorted((v.checker, v.message) for v in violations),
        "stats": deployment.env.stats(),
    }, deployment.run_record


def _worker_main(pipe, spec, until: float, region_names: list,
                 options: RunOptions) -> None:
    try:
        report, _ = _run_one(spec, until, region_names, options)
        pipe.send(("ok", report))
    except BaseException as exc:  # noqa: BLE001 - reported, then re-raised
        pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        raise
    finally:
        pipe.close()


def run_sharded(spec, until: float, shards: int = 1,
                options: RunOptions = RunOptions()) -> ShardResult:
    """Run a regional deployment across ``shards`` worker processes.

    ``shards=1`` runs in-process (same code path, no fork).  The spec
    must be shard-independent for N>1 to be meaningful — the
    :class:`ShardResult` is a faithful merge either way, and the
    differential tests pin down the spec shape under which it is
    bit-identical to the 1-shard run (``failover=False``,
    ``shardable=True``, no load shape).  Fault plans do not shard —
    every worker would inject the same plan once, so ``options``
    carrying one is rejected outright rather than silently multiplied.
    """
    if options.fault_plan is not None:
        raise ValueError(
            "fault plans do not shard: the run options carry a fault plan")
    plan = ShardPlan.for_spec(spec, shards)
    runs = []
    if shards == 1:
        report, run = _run_one(spec, until, None, options)
        reports, runs = [report], [run]
    else:
        context = multiprocessing.get_context("fork")
        workers = []
        for index in range(shards):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker_main,
                args=(sender, spec, until, plan.regions_for(index),
                      options),
                name=f"shard-{index}")
            process.start()
            sender.close()
            workers.append((index, process, receiver))
        reports = []
        failures = []
        for index, process, receiver in workers:
            try:
                status, payload = receiver.recv()
            except EOFError:
                status, payload = "error", "worker died before reporting"
            process.join()
            if status != "ok":
                failures.append(f"shard {index}: {payload}")
            else:
                reports.append(payload)
        if failures:
            raise RuntimeError("; ".join(failures))
    violations = sorted(v for report in reports
                        for v in report["violations"])
    return ShardResult(
        counters=merge_counters([r["counters"] for r in reports]),
        violations=violations,
        shard_stats=[r["stats"] for r in reports],
        runs=runs)
