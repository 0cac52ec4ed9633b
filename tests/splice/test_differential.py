"""The splice fast path's headline proof: differential fidelity.

Same seed, same finite-work deployment (every client stops after
``max_requests``, all terminal well before the horizon), run twice —
splice on vs splice off.  The spliced run collapses each bulk upload's
chunk train into one transfer event, so its *event schedule* differs by
design; its *outcomes* must not.  The contract, pinned empirically and
enforced here:

* **Deployment-wide aggregated counters are bit-identical** for every
  key except connection-pool churn (``tcp_syn_sent`` / ``tcp_accepted``
  and its per-peer tags): coarser spliced timing shifts *when* idle
  pooled connections get reused vs reopened, but never which requests
  complete or how (every outcome, byte and message counter matches).
* **Invariant verdicts are identical** (both clean).
* **Mechanism counters are identical** — and a release mid-run forces
  in-flight bulk transfers to *de-splice*, so takeover runs against
  per-chunk fidelity while the splice-off arm sees the same mechanism
  totals.
* **Fault windows de-splice too**: the governor disengages at the first
  inject, stays disengaged until the last overlapping window clears,
  and the counters still fold exactly.
* **So does a region evacuation** on the regional layout: it announces
  its own window (no release walk is involved), the cross-region DCR
  and the hard drains run per-chunk, and the counters fold exactly.
"""

import pytest

from repro.clients.web import WebWorkloadConfig
from repro.experiments.common import (build_deployment,
                                      build_regional_deployment)
from repro.faults import FaultPlan, FaultSpec
from repro.regions import evacuate_region
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig
from repro.shard import counters_snapshot
from repro.splice import SpliceConfig

SEEDS = (7, 11)

#: Connection-pool churn: the only counter families allowed to differ
#: between the arms (reuse-vs-reopen is a timing artifact; everything
#: the requests *did* is pinned exactly).
CHURN_PREFIXES = ("tcp_syn_sent", "tcp_accepted")

#: The paper's per-flow mechanisms, whose totals must fold exactly.
MECHANISMS = ("takeover_", "dcr_", "ppr_")

HORIZON = 240.0


def _workload() -> WebWorkloadConfig:
    # Every post crosses min_bulk_bytes (128 kB) so the governor sees
    # real work; max_requests makes the run finite so both arms settle.
    return WebWorkloadConfig(clients_per_host=6, think_time=1.0,
                             post_fraction=0.5,
                             post_size_min=400_000,
                             post_size_cap=2_000_000,
                             max_requests=6)


def _build(seed: int, splice: bool, fault_plan=None):
    return build_deployment(
        seed=seed,
        edge_proxies=3,
        origin_proxies=2,
        app_servers=2,
        web=_workload(),
        splice=SpliceConfig() if splice else None,
        fault_plan=fault_plan)


def _finish(deployment):
    deployment.run(until=HORIZON)
    verdicts = sorted(
        str(v) for v in deployment.run_record.suite.finalize())
    return deployment, _aggregate(deployment.metrics), verdicts


def _run(seed: int, splice: bool, release: bool = False):
    deployment = _build(seed, splice)
    if release:
        deployment.run(until=3.0)
        walk = RollingRelease(deployment.env, deployment.edge_servers[:2],
                              RollingReleaseConfig(batch_fraction=1.0))
        deployment.env.process(walk.execute())
    return _finish(deployment)


def _aggregate(metrics) -> dict:
    """Deployment-wide counter totals, churn families excluded."""
    totals: dict = {}
    for counters in counters_snapshot(metrics).values():
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    return {key: value for key, value in totals.items()
            if not key.startswith(CHURN_PREFIXES)}


def _mechanisms(aggregate: dict) -> dict:
    return {key: value for key, value in aggregate.items()
            if key.startswith(MECHANISMS)}


@pytest.mark.parametrize("seed", SEEDS)
def test_splice_on_off_aggregates_identical(seed):
    on_deployment, on, on_verdicts = _run(seed, splice=True)
    _, off, off_verdicts = _run(seed, splice=False)

    governor = on_deployment.run_record.splice
    assert governor is not None and governor.bulk_transfers > 0, (
        "the splice arm never engaged — the differential is vacuous")
    assert governor.chunks_elided > 0

    assert on == off, f"seed {seed}: aggregated counters diverged"
    assert on_verdicts == off_verdicts == []


def test_differential_is_not_vacuous():
    """The workload exercises what the comparison pins."""
    _, aggregate, _ = _run(SEEDS[0], splice=True)
    assert aggregate.get("post_ok", 0) > 0
    assert aggregate.get("get_ok", 0) > 0


def test_release_desplices_and_mechanisms_fold(monkeypatch=None):
    on_deployment, on, on_verdicts = _run(SEEDS[0], splice=True,
                                          release=True)
    _, off, off_verdicts = _run(SEEDS[0], splice=False, release=True)

    governor = on_deployment.run_record.splice
    assert governor.desplices > 0, (
        "the release window never de-spliced the governor")
    assert governor.bulk_transfers > 0

    assert _mechanisms(on) == _mechanisms(off)
    assert _mechanisms(on).get("takeover_completed", 0) >= 1, (
        "the release never exercised socket takeover")
    assert on_verdicts == off_verdicts == []
    assert on == off, "aggregated counters diverged across a release"


def _overlapping_fault_windows() -> FaultPlan:
    """Two windows, [6, 10) and [8, 13), opening while uploads are
    parked on the governor.  Slowed machines delay requests without
    failing any, so both arms still finish all their work."""
    return FaultPlan("splice-window", [
        FaultSpec("slow_host", where="edge-proxy-*", at=6.0, duration=4.0,
                  params={"speed_factor": 0.5}),
        FaultSpec("slow_host", where="appserver-0", at=8.0, duration=5.0,
                  params={"speed_factor": 0.5}),
    ])


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_window_desplices_and_counters_fold(seed):
    deployment = _build(seed, splice=True,
                        fault_plan=_overlapping_fault_windows())
    governor = deployment.run_record.splice

    deployment.run(until=5.9)
    parked = governor.wake()
    assert governor.engaged and governor.desplices == 0
    assert parked.callbacks, "no upload in flight when the window opens"

    deployment.run(until=6.1)  # first inject
    assert not governor.engaged and governor.desplices == 1
    assert parked.processed, "the parked uploads were not woken"
    spliced_before_window = governor.bulk_transfers

    deployment.run(until=9.0)  # both windows open
    assert not governor.engaged
    deployment.run(until=11.0)  # the first cleared, the second has not
    assert not governor.engaged and governor.desplices == 1
    assert governor.bulk_transfers == spliced_before_window
    deployment.run(until=13.1)  # the last overlapping clear
    assert governor.engaged

    _, on, on_verdicts = _finish(deployment)
    assert governor.bulk_transfers > spliced_before_window, (
        "splicing never resumed after the windows closed")
    assert [r.state for r in deployment.fault_injector.records] == \
        ["cleared", "cleared"]

    _, off, off_verdicts = _finish(_build(
        seed, splice=False, fault_plan=_overlapping_fault_windows()))
    assert on == off, f"seed {seed}: counters diverged across the window"
    assert on_verdicts == off_verdicts == []


#: Connection *establishment* is timing on the regional layout the way
#: pool reuse is: resolvers probe every region all run long, and how
#: many probes and re-dials meet the evacuated region mid-drain (a
#: route with no backend, a RST, one more upstream dial) shifts with
#: the coarser spliced clock.  Every request, byte, session and
#: mechanism counter stays pinned.
REGIONAL_CHURN = ("route_", "tcp_rst_sent", "upstream_dial")


def _run_evacuation(seed: int, splice: bool):
    """Two regions, r1 evacuated while uploads are parked on the
    governor (default drains: long enough to see the in-flight work
    out, so the run stays finite-work); MQTT users ride along so the
    evacuation has sessions to re-home across regions."""
    deployment = build_regional_deployment(
        seed=seed, regions=2, proxies_per_pop=2, web_workload=_workload(),
        splice=SpliceConfig() if splice else None)
    deployment.run(until=6.0)
    evacuation = deployment.env.process(evacuate_region(deployment, "r1"))
    _, aggregate, verdicts = _finish(deployment)
    assert evacuation.value.sessions_transferred > 0
    return deployment, {key: value for key, value in aggregate.items()
                        if not key.startswith(REGIONAL_CHURN)}, verdicts


@pytest.mark.parametrize("seed", SEEDS)
def test_evacuation_desplices_and_counters_fold_on_regions(seed):
    on_deployment, on, on_verdicts = _run_evacuation(seed, splice=True)
    _, off, off_verdicts = _run_evacuation(seed, splice=False)

    governor = on_deployment.run_record.splice
    assert governor.desplices >= 1, (
        "the evacuation window never de-spliced the governor")
    assert governor.engaged, "the evacuation window never closed"
    assert governor.bulk_transfers > 0 and governor.chunks_elided > 0

    assert _mechanisms(on) == _mechanisms(off)
    assert _mechanisms(on).get("dcr_rehomed", 0) > 0
    assert on == off, f"seed {seed}: counters diverged across the window"
    assert on_verdicts == off_verdicts == []
