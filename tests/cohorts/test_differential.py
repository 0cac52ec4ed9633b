"""The cohort layer's headline proof: differential fidelity.

Same seed, same figure-shaped deployment (full client mix, mid-run ZDR
batch restart over edge proxies with takeover enabled), run twice:

* **individual** (``cohorts=None``): the classic one-population-per-
  protocol client layer; and
* **condensed** (``CohortPolicy(fidelity="condensed")``): the cohort
  layer at its highest-fidelity rung.

The two runs must be *bit-identical* — same event count, same final
clock, same request-conservation totals, same takeover/DCR/PPR
mechanism counts, same invariant-tap verdicts — once client counters
are folded across cohort lanes (``web-clients/c0`` + ``web-clients/c1``
vs the single ``web-clients`` scope).  Identical, not statistically
close: this is what licenses every other rung of the ladder, because
the aggregate rung's only approximation is then the fluid weighting
itself, not the client behaviour code.

The aggregate rung gets the weaker, explicitly-bounded contract:
conservation and invariants stay green, modeled totals land near the
individual run's, and divergence is allowed only on the declared
latency quantiles (fewer representative flows → coarser sampling).
"""

import re

import pytest

from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.quic import QuicWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.cohorts import CohortPolicy, modeled
from repro.experiments.common import (build_deployment,
                                      build_regional_deployment)
from tests.differential import full_snapshot
from repro.proxygen.config import ProxygenConfig
from repro.regions import evacuate_region
from repro.release.orchestrator import RollingRelease, RollingReleaseConfig

SEEDS = (0, 1, 2)

#: Client-population scope prefixes whose cohort lanes fold together.
CLIENT_PREFIXES = ("web-clients", "mqtt-clients", "quic-clients")

#: Counter prefixes of the three per-flow mechanisms the ladder must
#: preserve exactly (the paper's takeover, DCR rehoming, partial-post
#: replay).
MECHANISMS = ("takeover_", "dcr_", "ppr_")

#: The declared divergence budget: only these quantile streams may
#: differ on the aggregate rung, and medians must stay within 4× of
#: the individual run's.
LATENCY_QUANTILES = ("client/get_latency", "client/post_latency")


def _run(seed, cohorts=None, duration=16.0):
    """One figure-shaped run; returns (deployment, snapshot, verdicts)."""
    deployment = build_deployment(
        seed=seed,
        edge_proxies=3,
        origin_proxies=1,
        app_servers=2,
        edge_config=ProxygenConfig(mode="edge", drain_duration=3.0,
                                   enable_takeover=True, spawn_delay=0.5),
        web=WebWorkloadConfig(clients_per_host=6, think_time=0.8),
        mqtt=MqttWorkloadConfig(users_per_host=4, publish_interval=3.0),
        quic=QuicWorkloadConfig(flows_per_host=3),
        cohorts=cohorts)
    deployment.run(until=6.0)
    release = RollingRelease(deployment.env, deployment.edge_servers[:2],
                             RollingReleaseConfig(batch_fraction=1.0))
    deployment.env.process(release.execute())
    deployment.run(until=duration)
    verdicts = sorted(
        str(v) for v in deployment.run_record.suite.finalize())
    return deployment, full_snapshot(deployment), verdicts


#: A cohort lane's scope suffix: ``<population>/c<i>[/solo]``.
LANE_SUFFIX = re.compile(r"/c\d+(/solo)?$")


def _fold_client_scopes(snapshot):
    """Merge each client population's cohort lanes into one summed scope.

    ``web-clients/c0``, ``web-clients/c1``, ``web-clients/c0/solo`` ...
    all fold into ``web-clients`` (and ``web-clients-r0p0/c0`` into
    ``web-clients-r0p0`` on the regional layout).  Host scopes
    (``web-clients-0``) carry no lane suffix and pass through untouched,
    so kernel counters stay compared scope-by-scope.
    """
    folded = {}
    for scope, counters in snapshot["scoped"].items():
        if scope == "cohorts":
            # The layer's own bookkeeping (condensation counts) —
            # definitionally absent in individual mode.
            continue
        merged = folded.setdefault(LANE_SUFFIX.sub("", scope), {})
        for name, value in counters.items():
            merged[name] = merged.get(name, 0) + value
    return {**snapshot, "scoped": folded}


def _mechanism_counts(snapshot):
    out = {}
    for counters in snapshot["scoped"].values():
        for name, value in counters.items():
            if name.startswith(MECHANISMS):
                out[name] = out.get(name, 0) + value
    return out


def _conservation_totals(snapshot):
    """The request-conservation ledger: every client-side terminal."""
    totals = {}
    for prefix in CLIENT_PREFIXES:
        counters = snapshot["scoped"].get(prefix, {})
        for name, value in counters.items():
            totals[f"{prefix}:{name}"] = value
    return totals


# -- condensed rung: bit-identical --------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_condensed_rung_is_bit_identical(seed):
    _, individual, individual_verdicts = _run(seed, cohorts=None)
    _, condensed, condensed_verdicts = _run(
        seed, cohorts=CohortPolicy(fidelity="condensed"))

    assert individual["eid"] == condensed["eid"], (
        f"seed {seed}: event counts diverged — the condensed rung "
        f"scheduled different work than individual mode")
    assert individual["now"] == condensed["now"]
    # Condensation is a no-op on this rung: bookkeeping stays zero.
    assert all(value == 0 for value in
               condensed["scoped"].get("cohorts", {}).values())

    folded_individual = _fold_client_scopes(individual)
    folded_condensed = _fold_client_scopes(condensed)
    assert _conservation_totals(folded_individual) == \
        _conservation_totals(folded_condensed)
    assert _mechanism_counts(individual) == _mechanism_counts(condensed)
    assert folded_individual == folded_condensed, (
        f"seed {seed}: full metrics snapshots diverged")
    assert individual_verdicts == condensed_verdicts


def test_condensed_rung_is_not_vacuous():
    """The comparison genuinely exercises the mechanisms it pins."""
    _, snapshot, verdicts = _run(
        0, cohorts=CohortPolicy(fidelity="condensed"))
    mechanisms = _mechanism_counts(snapshot)
    assert mechanisms.get("takeover_completed", 0) >= 1, (
        "the release never exercised socket takeover")
    totals = _conservation_totals(_fold_client_scopes(snapshot))
    assert totals.get("web-clients:get_ok", 0) > 0
    assert totals.get("mqtt-clients:sessions_established", 0) > 0
    assert totals.get("quic-clients:packets_sent", 0) > 0
    assert verdicts == [], f"invariants tripped: {verdicts}"


# -- the regional layout: same proof, across an evacuation ---------------------


def _run_regional(seed, cohorts=None):
    """2 regions × 2 PoPs (MQTT user ids continue across four PoPs),
    region r1 evacuated under load — cross-region DCR is the mechanism
    the client code has to get identically right."""
    deployment = build_regional_deployment(
        seed=seed, regions=2, pops_per_region=2, proxies_per_pop=2,
        edge_config=ProxygenConfig(mode="edge", drain_duration=2.0,
                                   spawn_delay=0.5),
        origin_config=ProxygenConfig(mode="origin", drain_duration=2.0,
                                     spawn_delay=0.5),
        cohorts=cohorts)
    deployment.run(until=6.0)
    evacuation = deployment.env.process(evacuate_region(deployment, "r1"))
    deployment.run(until=30.0)
    assert evacuation.triggered and evacuation.value.sessions_transferred
    verdicts = sorted(
        str(v) for v in deployment.run_record.suite.finalize())
    return deployment, full_snapshot(deployment), verdicts


@pytest.mark.parametrize("seed", SEEDS)
def test_condensed_rung_is_bit_identical_on_regions(seed):
    _, individual, individual_verdicts = _run_regional(seed)
    deployment, condensed, condensed_verdicts = _run_regional(
        seed, cohorts=CohortPolicy(fidelity="condensed"))

    drivers = deployment.cohort_set.drivers
    assert len(drivers) == 8  # web + mqtt on each of four PoPs
    assert {d.scope for d in drivers} >= {"web-clients-r0p0/c0",
                                          "mqtt-clients-r1p1/c0"}
    assert individual["eid"] == condensed["eid"]
    assert individual["now"] == condensed["now"]
    assert _mechanism_counts(individual) == _mechanism_counts(condensed)
    assert _mechanism_counts(condensed).get("dcr_rehomed", 0) > 0
    assert _fold_client_scopes(individual) == \
        _fold_client_scopes(condensed), (
        f"seed {seed}: full metrics snapshots diverged")
    assert individual_verdicts == condensed_verdicts == []


# -- aggregate rung: bounded divergence ---------------------------------------


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_aggregate_rung_conserves_and_bounds_divergence():
    deployment_i, individual, verdicts_i = _run(0, cohorts=None)
    policy = CohortPolicy(fidelity="aggregate", scale=1)
    deployment_a, aggregate_snap, verdicts_a = _run(0, cohorts=policy)

    # Invariants (including cohort-conservation) green on both.
    assert verdicts_i == [] and verdicts_a == []

    # Modeled totals land near the individual run's: the fluid is a
    # model of the same population, not a different workload.
    modeled_ok = sum(
        modeled(driver.aggregate()).get("get_ok", 0.0)
        for driver in deployment_a.cohort_set.drivers_of("web"))
    individual_ok = individual["scoped"]["web-clients"]["get_ok"]
    assert modeled_ok > 0
    assert individual_ok / 4 <= modeled_ok <= individual_ok * 4

    # Divergence is confined to the declared latency quantiles: both
    # runs sampled them, and medians agree within the 4x budget.
    for name in LATENCY_QUANTILES:
        ind = individual["quantiles"].get(name, [])
        agg = aggregate_snap["quantiles"].get(name, [])
        if not ind or not agg:
            continue
        ratio = _median(agg) / _median(ind)
        assert 0.25 <= ratio <= 4.0, (name, ratio)

    # ... and nowhere else that matters: mechanism counters still exist
    # and the aggregate run still drove every protocol.
    totals = _conservation_totals(_fold_client_scopes(aggregate_snap))
    assert totals.get("web-clients:get_started", 0) > 0
    assert totals.get("mqtt-clients:sessions_established", 0) > 0
