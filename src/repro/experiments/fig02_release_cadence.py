"""Figures 2a–2c: release cadence, root causes, commits per release.

Paper observations to reproduce (shape, from §2.4):

* Fig 2a — L7LB clusters see ≈3+ releases/week; the App tier sees ≈100
  releases/week at the median.
* Fig 2b — binary (code) updates are the dominant root cause at ~47% of
  L7LB releases; configuration changes (which at Facebook also require a
  restart) are the bulk of the rest.
* Fig 2c — each release carries 10–100 distinct commits.
"""

from __future__ import annotations

from ..metrics.quantiles import summarize
from ..options import RunOptions
from ..release.schedule import ReleaseScheduleModel, ReleaseTraceConfig
from .common import ExperimentResult

__all__ = ["run"]


def run(seed: int = 0, weeks: int = 13, clusters: int = 10,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    model = ReleaseScheduleModel(
        ReleaseTraceConfig(weeks=weeks, clusters=clusters), seed=seed)
    trace = model.generate()

    l7lb_weekly = trace.releases_per_week("l7lb")
    app_weekly = trace.releases_per_week("appserver")
    causes = trace.cause_histogram()
    commits = trace.commits_distribution("appserver")

    l7lb_summary = summarize(l7lb_weekly)
    app_summary = summarize(app_weekly)
    commit_summary = summarize(commits, quantiles=(0.01, 0.5, 0.99))

    result = ExperimentResult(
        name="fig02: release cadence / root causes / commits",
        params={"weeks": weeks, "clusters": clusters, "seed": seed})
    result.scalars.update({
        "l7lb_releases_per_week_median": l7lb_summary["p50"],
        "l7lb_releases_per_week_mean": l7lb_summary["mean"],
        "app_releases_per_week_median": app_summary["p50"],
        "cause_binary_fraction": causes.get("binary_update", 0.0),
        "cause_config_fraction": causes.get("config_change", 0.0),
        "commits_p1": commit_summary["p1"],
        "commits_median": commit_summary["p50"],
        "commits_p99": commit_summary["p99"],
    })
    # CDF-style series for the figure.
    result.series["l7lb_weekly_sorted"] = [
        (i / max(1, len(l7lb_weekly) - 1), v)
        for i, v in enumerate(l7lb_weekly)]
    result.series["app_weekly_sorted"] = [
        (i / max(1, len(app_weekly) - 1), v)
        for i, v in enumerate(app_weekly)]

    result.claims.update({
        "l7lb_three_plus_per_week": result.scalars[
            "l7lb_releases_per_week_mean"] >= 3.0,
        "app_about_100_per_week": 70 <= result.scalars[
            "app_releases_per_week_median"] <= 130,
        "binary_fraction_near_47pct": 0.40 <= result.scalars[
            "cause_binary_fraction"] <= 0.54,
        "commits_span_10_to_100": (result.scalars["commits_p1"] >= 9
                                   and result.scalars["commits_p99"] <= 110),
    })
    return result
