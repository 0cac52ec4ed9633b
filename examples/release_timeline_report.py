#!/usr/bin/env python3
"""Render the Figure-13 timeline as terminal sparklines.

Runs a 20% Zero Downtime batch restart against the full workload and
draws the paper's timeline panels — RPS, MQTT connections, throughput
and CPU for the restarted (GR) vs non-restarted (GNR) machine groups.

Run:  python examples/release_timeline_report.py
"""

from repro.experiments import fig13_zdr_timeline
from repro.metrics import render_comparison, render_series


def main() -> None:
    print("running the fig-13 scenario (10 edge proxies, 20% ZDR batch,")
    print("live web + MQTT workload; restart at t=25s)...\n")
    result = fig13_zdr_timeline.run(seed=0)

    print("cluster-wide service metrics (normalized to pre-restart):")
    for name, key in (("RPS", "cluster_rps"),
                      ("MQTT connections", "cluster_mqtt_conns"),
                      ("throughput", "cluster_throughput")):
        print(render_series(name, result.series[key]))

    print("\nrestarted group (GR) vs rest of cluster (GNR):")
    print(render_comparison({
        "GR cpu": result.series["gr_cpu"],
        "GNR cpu": result.series["gnr_cpu"],
    }))
    print(render_series("GR instances", result.series["gr_instances"]))
    print(render_series("GNR instances", result.series["gnr_instances"]))

    print()
    for key, value in sorted(result.scalars.items()):
        print(f"  {key:40s} {value:.4g}")
    print()
    status = "PASS" if result.all_claims_hold else "FAIL"
    print(f"paper-shape claims: {status} — the restarted machines "
          f"briefly run two instances and burn extra CPU, while the "
          f"cluster's service metrics never move.")


if __name__ == "__main__":
    main()
