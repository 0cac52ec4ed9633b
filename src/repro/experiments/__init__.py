"""Per-figure experiment harnesses (see DESIGN.md §4 for the index).

Each module exposes ``run(seed=..., options=RunOptions(), ...) ->
ExperimentResult`` which builds the right deployments under ``options``,
drives the scenario, and returns the series and scalars the paper's
figure plots, the shape claims the benchmarks assert and the records of
the runs it built (``result.runs``).  ``fig02``, ``fig02d``, ``fig15``
and ``lbablation`` build no topology: they take ``options`` so the CLI
calls every harness alike, and nothing reads it.
"""

from . import ablations
from . import chaos
from . import resilience
from . import fig02_release_cadence
from . import fig02d_misrouting
from . import fig03_restart_implications
from . import fig08_capacity
from . import fig09_dcr
from . import fig10_udp_routing
from . import fig11_ppr
from . import fig12_proxy_errors
from . import fig13_zdr_timeline
from . import fig15_release_hours
from . import fig16_completion_time
from . import fig17_takeover_overhead
from . import lb_ablation
from . import ops_closed_loop
from . import region_evac
from . import shardscale
from .common import ExperimentResult

ALL_EXPERIMENTS = {
    "ablations": ablations,
    "chaos": chaos,
    "resilience": resilience,
    "fig02": fig02_release_cadence,
    "fig02d": fig02d_misrouting,
    "fig03": fig03_restart_implications,
    "fig08": fig08_capacity,
    "fig09": fig09_dcr,
    "fig10": fig10_udp_routing,
    "fig11": fig11_ppr,
    "fig12": fig12_proxy_errors,
    "fig13": fig13_zdr_timeline,
    "fig15": fig15_release_hours,
    "fig16": fig16_completion_time,
    "fig17": fig17_takeover_overhead,
    "lbablation": lb_ablation,
    "opsloop": ops_closed_loop,
    "regionevac": region_evac,
    "shardscale": shardscale,
}

__all__ = ["ExperimentResult", "ALL_EXPERIMENTS"]
