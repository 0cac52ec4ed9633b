"""Figure 15: when releases happen over the day (§6.2.2).

Paper shape: Proxygen updates are released mostly during peak hours
(12pm–5pm) — because Zero Downtime Release makes peak-hour releases
safe and operators want to be hands-on — while the App tier restarts
continuously around the clock (its release PDF is flat).
"""

from __future__ import annotations

from ..options import RunOptions
from ..release.schedule import ReleaseScheduleModel, ReleaseTraceConfig
from .common import ExperimentResult, mean

__all__ = ["run"]


def run(seed: int = 0, weeks: int = 13, clusters: int = 10,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    model = ReleaseScheduleModel(
        ReleaseTraceConfig(weeks=weeks, clusters=clusters), seed=seed)
    trace = model.generate()

    proxygen_pdf = trace.hour_of_day_pdf("l7lb")
    app_pdf = trace.hour_of_day_pdf("appserver")

    peak_hours = range(12, 17)
    proxygen_peak_mass = sum(proxygen_pdf[h] for h in peak_hours)
    app_peak_mass = sum(app_pdf[h] for h in peak_hours)
    uniform_mass = len(peak_hours) / 24.0

    result = ExperimentResult(
        name="fig15: release hour-of-day PDFs",
        params={"weeks": weeks, "clusters": clusters, "seed": seed})
    result.series["proxygen_pdf"] = [(float(h), v)
                                     for h, v in enumerate(proxygen_pdf)]
    result.series["appserver_pdf"] = [(float(h), v)
                                      for h, v in enumerate(app_pdf)]
    result.scalars.update({
        "proxygen_peak_mass_12_17": proxygen_peak_mass,
        "appserver_peak_mass_12_17": app_peak_mass,
        "uniform_peak_mass": uniform_mass,
        "appserver_pdf_spread": max(app_pdf) - min(app_pdf),
    })
    result.claims.update({
        # Proxygen releases concentrate in the 12–17h window...
        "proxygen_peaks_in_peak_hours":
            proxygen_peak_mass > 2.0 * uniform_mass,
        # ...while the app tier is roughly flat around the clock.
        "appserver_roughly_flat": app_peak_mass < 1.5 * uniform_mass,
        "appserver_flatter_than_proxygen":
            app_peak_mass < proxygen_peak_mass,
    })
    return result
