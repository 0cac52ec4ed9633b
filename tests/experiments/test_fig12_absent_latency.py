"""Fig 12 with no completed GET: latency quantiles are absent, not a crash.

``fig12 --cohorts 100 --cohort-fidelity condensed`` models 2,500 web
clients per host one by one; the edge is overloaded and no GET
completes, so ``client/get_latency`` holds no sample.  Reading its p99
raised ``ValueError: no values``.  The arm now reports the quantiles as
``None`` and the figure leaves those scalars out (no claim reads them).
"""

from repro.cohorts import CohortPolicy
from repro.experiments import fig12_proxy_errors
from repro.options import RunOptions


def test_an_arm_with_no_completed_get_reports_no_latency():
    arm = fig12_proxy_errors.run_arm(
        True, warmup=5.0, measure=5.0,
        options=RunOptions(cohorts=CohortPolicy(fidelity="condensed",
                                                scale=100)))
    assert arm["requests_ok"] == 0
    assert arm["latency_p50"] is None and arm["latency_p99"] is None


def test_the_figure_leaves_absent_latency_out(monkeypatch):
    def arm(zdr, seed=0, options=RunOptions()):
        sampled = 0.25 if zdr else None
        return {"conn_rst": 0.0, "stream_abort": 0.0, "timeout": 3.0,
                "write_timeout": 0.0, "requests_ok": 10.0,
                "latency_p50": sampled, "latency_p99": sampled, "run": None}

    monkeypatch.setattr(fig12_proxy_errors, "run_arm", arm)
    result = fig12_proxy_errors.run(seed=0)
    latency = {key for key in result.scalars if key.startswith("latency")}
    assert latency == {"latency_p50_zdr", "latency_p99_zdr"}
    assert result.rows()  # every scalar formats
