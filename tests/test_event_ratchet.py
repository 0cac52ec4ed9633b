"""Events per client op: a ratchet over a whole (small) deployment.

``tests/netsim/test_event_budget.py`` prices the primitives one by one;
this prices what they add up to on the request path — web GET/POSTs and
MQTT publishes through Edge → Origin → app/broker, across one Edge
release — the way ``python -m bench`` reports ``events_per_op``, small
enough for tier-1.  Same spirit as ``tests/test_config_surface.py``: it
only moves on purpose.
"""

from repro import (
    Deployment,
    DeploymentSpec,
    RollingRelease,
    RollingReleaseConfig,
)
from repro.clients.mqtt import MqttWorkloadConfig
from repro.clients.web import WebWorkloadConfig
from repro.proxygen.config import ProxygenConfig

#: Measured when the ceiling was last set: 20,034 events over 1,792 ops
#: = 11.18 (13.16 before the H2 demux moved into the delivery callback).
#: The ceiling sits 2 % above it.
CEILING = 11.40

OPS = (("web-clients", "get_ok"), ("web-clients", "post_ok"),
       ("mqtt-clients", "publishes_sent"),
       ("mqtt-clients", "publishes_received"))


def _ops(deployment) -> float:
    return sum(deployment.metrics.aggregate(name, scope_prefix=prefix)
               for prefix, name in OPS)


def test_events_per_client_op_stay_under_the_ceiling():
    deployment = Deployment(DeploymentSpec(
        seed=0, edge_proxies=3, origin_proxies=2, app_servers=2,
        web_client_hosts=1, mqtt_client_hosts=1, quic_client_hosts=0,
        edge_config=ProxygenConfig(mode="edge", drain_duration=5.0,
                                   enable_takeover=True, enable_dcr=True,
                                   spawn_delay=1.0),
        web_workload=WebWorkloadConfig(clients_per_host=60, think_time=0.8),
        mqtt_workload=MqttWorkloadConfig(users_per_host=30,
                                         publish_interval=2.0),
        quic_workload=None))
    deployment.start()
    deployment.run(until=10.0)  # every client connected
    env = deployment.env
    events, ops = env._eid, _ops(deployment)
    release = RollingRelease(env, deployment.edge_servers[:1],
                             RollingReleaseConfig(batch_fraction=1.0))
    env.process(release.execute())
    deployment.run(until=30.0)
    events, ops = env._eid - events, _ops(deployment) - ops

    assert deployment.metrics.aggregate("takeover_completed") == 1
    assert ops > 1_500
    assert events / ops <= CEILING, (
        f"{events} events / {ops:g} ops = {events / ops:.2f} > {CEILING}: "
        "a request got a new event: name who waits on it, or raise the "
        "ceiling on purpose")
