"""Experiment harness smoke tests (scaled-down parameters).

The full-size paper-shape assertions are ``python -m repro.experiments
all``; here we verify the harnesses run, produce sane structures, that
the cheap ones hold their claims even at reduced scale, and that each
hands back on ``result.runs`` every run it built (the conftest guard
sees every topology a test builds: ``built_runs``).
"""

import inspect

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    ablations,
    fig02_release_cadence,
    fig02d_misrouting,
    fig03_restart_implications,
    fig09_dcr,
    fig10_udp_routing,
    fig11_ppr,
    fig15_release_hours,
    fig16_completion_time,
    lb_ablation,
    resilience,
)
from repro.options import RunOptions


def test_registry_covers_every_figure():
    expected = {"ablations", "chaos", "resilience", "fig02", "fig02d",
                "fig03", "fig08", "fig09",
                "fig10", "fig11", "fig12", "fig13", "fig15", "fig16",
                "fig17", "lbablation", "opsloop", "regionevac",
                "shardscale"}
    assert set(ALL_EXPERIMENTS) == expected
    for module in ALL_EXPERIMENTS.values():
        assert hasattr(module, "run")


def test_every_harness_takes_its_options_as_an_argument():
    """The CLI calls every harness alike: ``run(seed=..., options=...)``."""
    for name, module in ALL_EXPERIMENTS.items():
        parameters = inspect.signature(module.run).parameters
        assert parameters["options"].default == RunOptions(), name


def test_result_rows_and_printing(capsys):
    result = ExperimentResult(name="demo", params={"x": 1},
                              scalars={"y": 2.0}, claims={"ok": True})
    result.print()
    out = capsys.readouterr().out
    assert "demo" in out and "PASS" in out
    assert result.all_claims_hold
    result.claims["bad"] = False
    assert not result.all_claims_hold


def test_ablations_small_claims_hold(built_runs):
    result = ablations.run(seed=1, flows=600, drains=(3.0, 40.0))
    assert result.runs == built_runs
    assert len(result.runs) == 5
    assert result.all_claims_hold
    assert result.scalars["a_flows_remapped_with_lru"] == 0
    assert result.scalars["b_sessions_broken_drain_40s"] == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ppr_production_retry_budget_never_fails(seed, built_runs):
    """Seeds 0 and 3 used to lose one body-complete POST to the drain
    end (a reset with neither a 200 nor a 379), whatever the budget."""
    result = ablations.run_ppr_retry_budget(seed=seed, budgets=(0, 10))
    assert result.runs == built_runs
    assert result.all_claims_hold, result.scalars


def test_resilience_baseline_discards_stale_pooled_connections(built_runs):
    """A pooled Origin→App connection to the crash-rebooted app server
    is stale whether or not the data plane is on: the discard-and-redial
    is the pool's, not a resilience decision.  At seed 1 the baseline
    arm discards one, which used to fail ``baseline_untouched``."""
    arm = resilience.run_arm(False, seed=1)
    off = arm["decisions"]
    assert off["idle_discarded"] > 0
    assert all(count == 0 for name, count in off.items()
               if name != "idle_discarded")
    result = resilience.run(seed=1)
    assert [arm["run"], *result.runs] == built_runs
    assert result.all_claims_hold, result.claims
    assert "idle_discarded" in result.resilience


def test_fig02_small_trace_claims_hold(built_runs):
    # Mid-sized trace: large enough for the Poisson means to settle.
    result = fig02_release_cadence.run(seed=3, weeks=13, clusters=8)
    assert result.runs == built_runs == []  # no topology
    assert result.all_claims_hold
    assert result.series["l7lb_weekly_sorted"]


def test_fig02_deterministic():
    a = fig02_release_cadence.run(seed=9, weeks=4, clusters=3)
    b = fig02_release_cadence.run(seed=9, weeks=4, clusters=3)
    assert a.scalars == b.scalars


def test_fig02d_small_claims_hold(built_runs):
    result = fig02d_misrouting.run(seed=1, flows=40, duration=10.0,
                                   restart_at=4.0, old_exit_at=7.0)
    assert result.runs == built_runs
    assert result.all_claims_hold
    assert result.scalars["misrouted_fd_passing_total"] == 0


def test_fig03a_capacity_small(built_runs):
    result = fig03_restart_implications.run_capacity(
        seed=2, edge_proxies=5, drain=5.0, gap=2.0)
    assert result.runs == built_runs
    assert result.all_claims_hold
    assert result.scalars["min_capacity_during_release"] <= 0.85


def test_fig09_small_arms_differ(built_runs):
    with_dcr = fig09_dcr.run_arm(True, seed=4, users=16, warmup=15.0,
                                 measure=30.0, drain=6.0)
    without = fig09_dcr.run_arm(False, seed=4, users=16, warmup=15.0,
                                measure=30.0, drain=6.0)
    assert [with_dcr["run"], without["run"]] == built_runs
    assert with_dcr["sessions_broken"] < without["sessions_broken"]
    assert with_dcr["rehomed"] > 0
    assert without["rehomed"] == 0


def test_fig10_small_arms_differ(built_runs):
    zdr = fig10_udp_routing.run_arm(True, seed=4, flows=20, warmup=10.0,
                                    measure=25.0, drain=15.0)
    traditional = fig10_udp_routing.run_arm(False, seed=4, flows=20,
                                            warmup=10.0, measure=25.0,
                                            drain=15.0)
    assert [zdr["run"], traditional["run"]] == built_runs
    assert traditional["misrouted_total"] > zdr["misrouted_total"]
    assert zdr["forwarded_total"] > 0


def test_fig11_small(built_runs):
    result = fig11_ppr.run(seed=6, restarts=3)
    assert result.runs == built_runs
    assert result.scalars["ppr_rescued_total"] >= 1
    assert result.scalars["ppr_client_post_errors"] == 0


def test_lb_ablation_small_claims_hold(built_runs):
    result = lb_ablation.run(seed=5, backends=6, flows=200,
                             churn_rounds=2, release_batches=3)
    assert result.runs == built_runs
    assert result.all_claims_hold
    # The schemes separate even at reduced scale: only stateless
    # misroutes under churn, and only instance-local state suffers
    # across a takeover.
    assert result.scalars["misroutes_stateless"] > 0
    for scheme in ("stateful", "lru", "concury"):
        assert result.scalars[f"misroutes_{scheme}"] == 0
    assert result.scalars["failovers_takeover_concury"] == 0
    assert result.scalars["failovers_takeover_lru"] > 0


def test_lb_ablation_deterministic():
    a = lb_ablation.run(seed=7, backends=5, flows=120,
                        churn_rounds=1, release_batches=2)
    b = lb_ablation.run(seed=7, backends=5, flows=120,
                        churn_rounds=1, release_batches=2)
    assert a.scalars == b.scalars
    assert a.claims == b.claims


def test_fig15_claims_hold_small(built_runs):
    result = fig15_release_hours.run(seed=2, weeks=6, clusters=4)
    assert result.runs == built_runs
    assert result.all_claims_hold


def test_fig16_model_claims_hold(built_runs):
    result = fig16_completion_time.run(seed=1, samples=50)
    assert result.all_claims_hold
    # The two DES harnesses are arms of run(), so the CLI executes them.
    assert {"crosscheck.model_matches_des_within_20pct",
            "global.global_is_parallel_not_serial",
            "global.model_within_30pct"} <= set(result.claims)
    crosscheck = fig16_completion_time.run_des_crosscheck(
        seed=1, edge_proxies=3, drain=4.0)
    assert result.runs + crosscheck.runs == built_runs
    assert crosscheck.all_claims_hold
    assert crosscheck.scalars["relative_error"] < 0.2


def test_fig16_global_des_runs_on_the_regional_builder(built_runs):
    result = fig16_completion_time.run_global_des(seed=0)
    assert result.runs == built_runs
    # Built by the harness builder, so the checkers watch it too.
    (run,) = result.runs
    assert run.suite is not None and run.suite.finalize() == []
    assert result.all_claims_hold, result.claims
    # Same value, to the last digit, as the deleted GlobalDeployment.
    assert round(result.scalars["global_duration"], 9) == 28.002
    assert result.scalars["slowest_pop_duration"] == \
        result.scalars["fastest_pop_duration"]


def test_regionevac_claims_hold_and_deterministic(built_runs):
    from repro.experiments import region_evac

    first = region_evac.run(seed=0)
    assert first.runs == built_runs
    assert len(first.runs) == 6
    assert all(run.suite.finalize() == [] for run in first.runs)
    assert first.all_claims_hold, first.claims
    assert first.scalars["evac[lru].stranded_tunnels"] == 0
    second = region_evac.run(seed=0)
    assert first.runs + second.runs == built_runs
    assert first.scalars == second.scalars
