"""Benchmark scenarios: deterministic simulation workloads.

Every scenario is a pure function of ``(env_factory, scale)``: it
builds a simulation against the given kernel's environment factory,
runs it, and returns ``{"ops": int, "events": int}``.  There is no
wall-clock access and no ``random`` usage here — timing lives in
:mod:`repro.perf.harness`, randomness in the seeded simulation streams
— so a scenario replays identically on both kernels, which is what
makes the opt/ref speedup (and the ops/event-count cross-check)
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Scenario", "MICRO_SCENARIOS", "MACRO_SCENARIOS"]


@dataclass(frozen=True)
class Scenario:
    """One benchmark: a builder plus its scale presets."""

    name: str
    kind: str  # "micro" | "macro"
    fn: Callable[[Callable, float], dict]
    #: Whether the scenario exercises the simulation kernel (and should
    #: therefore also run on the frozen reference kernel for a speedup).
    kernel_sensitive: bool = True
    full_scale: float = 1.0
    quick_scale: float = 0.2
    repeat: int = 1
    #: Feature-comparison reference: when set, the "ref" arm runs this
    #: builder on the *live* kernel instead of re-running ``fn`` on the
    #: frozen reference kernel — the speedup then prices a feature
    #: (e.g. the splice fast path) rather than the kernel.  Event
    #: counts differ between such arms by design, so the harness checks
    #: ``ops`` equality instead of event parity.
    ref_fn: Optional[Callable[[Callable, float], dict]] = None


# -- micro: kernel event churn ----------------------------------------------

def event_churn(env_factory: Callable, scale: float) -> dict:
    """Create/succeed/await events as fast as the kernel allows.

    This is the pure event-dispatch hot path: no timeouts, no stores —
    each iteration allocates an event, triggers it, and parks the
    process on it until the callback fires.  The concurrency (500
    processes in flight) matches the in-flight actor count of a real
    deployment run: clients, sockets and timers all coexist, which is
    exactly the regime where same-time dispatch dominates.
    """
    env = env_factory()
    procs = 500
    iters = int(400 * scale)

    def churn(count: int):
        for _ in range(count):
            event = env.event()
            event.succeed()
            yield event

    for _ in range(procs):
        env.process(churn(iters))
    env.run()
    return {"ops": procs * iters, "events": env._eid}


def timeout_storm(env_factory: Callable, scale: float) -> dict:
    """Interleaved timers with deterministic, non-monotonic delays.

    The varied delays make sure both heap paths are exercised: in-order
    pushes take the monotonic append fast path, out-of-order pushes fall
    back to a real heap sift.
    """
    env = env_factory()
    procs = 40
    iters = int(2500 * scale)

    def storm(k: int, count: int):
        for i in range(count):
            yield env.timeout(((k * 31 + i * 7) % 97) / 1000.0)

    for k in range(procs):
        env.process(storm(k, iters))
    env.run()
    return {"ops": procs * iters, "events": env._eid}


def counter_inc(env_factory: Callable, scale: float) -> dict:
    """Metrics-layer hot path: tagged increments and bound handles.

    Kernel-insensitive (no simulation runs), so it reports ops/sec for
    the live implementation only.
    """
    from ..metrics.counters import CounterSet

    counters = CounterSet(prefix="bench.")
    bound = counters.bound("rps")
    n = int(150_000 * scale)
    for _ in range(n):
        counters.inc("http_status", tag="200")
        bound.inc()
    assert counters.get("rps") == n
    return {"ops": 2 * n, "events": 0}


def reuseport_dispatch(env_factory: Callable, scale: float) -> dict:
    """UDP datagrams hashed across a SO_REUSEPORT ring (paper §4.1).

    Exercises the netsim packet path end to end: sendto → network
    delay → ring pick → socket inbox store → receiver process wakeup.
    """
    from ..metrics import MetricsRegistry
    from ..netsim import Endpoint, Host, LinkProfile, Network
    from ..simkernel.rng import RandomStreams

    env = env_factory()
    streams = RandomStreams(7)
    metrics = MetricsRegistry()
    network = Network(env, streams,
                      default_profile=LinkProfile(latency=0.001))
    server = Host(env, network, "bench-srv", "10.9.0.1", "dc", metrics,
                  streams=streams.fork("srv"))
    client = Host(env, network, "bench-cli", "10.9.0.2", "dc", metrics,
                  streams=streams.fork("cli"))
    sproc, cproc = server.spawn("s"), client.spawn("c")
    endpoint = Endpoint(server.ip, 443)
    socks = []
    for _ in range(4):
        _, sock = server.kernel.udp_bind(sproc, endpoint, reuseport=True)
        socks.append(sock)

    n = int(4000 * scale)
    received = [0]

    def serve(sock):
        while True:
            yield sock.recv()
            received[0] += 1

    for sock in socks:
        sproc.run(serve(sock))

    def send_all():
        _, csock = client.kernel.udp_bind_ephemeral(cproc)
        for i in range(n):
            csock.sendto(i, endpoint)
            yield env.timeout(0.0005)

    cproc.run(send_all())
    env.run(until=n * 0.0005 + 1.0)
    return {"ops": received[0], "events": env._eid}


def trace_disabled(env_factory: Callable, scale: float) -> dict:
    """The disabled-tracing hot path: one attribute read + None test.

    This is exactly what every traced call site pays when no collector
    is installed — the bound-handle discipline the trace subsystem
    promises.  Kernel-insensitive (no simulation runs).
    """
    from ..metrics import MetricsRegistry

    registry = MetricsRegistry()
    n = int(300_000 * scale)
    hops = 0
    for _ in range(n):
        tracer = registry.tracing
        if tracer is not None:
            raise AssertionError("tracing must be disabled here")
        hops += 1
    assert hops == n
    return {"ops": n, "events": 0}


def trace_spans(env_factory: Callable, scale: float) -> dict:
    """Enabled-tracing throughput: root + child span, annotate, finish.

    Prices the per-request cost a traced run pays, and keeps the
    retention caps honest (the collector must stay O(max_traces), not
    O(requests)).  Kernel-insensitive: the env only provides sim time.
    """
    from ..simkernel.rng import RandomStreams
    from ..trace import TraceCollector, TraceConfig

    env = env_factory()
    collector = TraceCollector(
        env, RandomStreams(3).stream("trace"),
        TraceConfig(sample_rate=1.0, max_traces=64))
    n = int(20_000 * scale)
    for i in range(n):
        root = collector.start_trace("bench.request", scope="bench")
        child = root.child("bench.hop", scope="bench")
        child.annotate("attempt", i % 3)
        child.finish("ok")
        root.finish("ok")
    doc = collector.to_dict()
    assert len(doc["traces"]) <= 64
    return {"ops": n, "events": 0}


def cohort_arrivals(env_factory: Callable, scale: float) -> dict:
    """Aggregate-rung cohort hot path (repro.cohorts).

    The regime the 100× macro bench's affordability rests on: K
    representative processes per cohort pace arrivals and bump shared
    per-cohort counters (instead of M = 50·K individual processes),
    then the harvested counts round-trip through the exact
    expand/fold algebra and extrapolate to modeled totals.
    """
    from ..cohorts import CohortAggregate, expand, fold, modeled
    from ..metrics.counters import CounterSet

    env = env_factory()
    cohorts, reps, weight = 20, 8, 50.0
    iters = int(150 * scale)
    counter_sets = [CounterSet() for _ in range(cohorts)]

    def rep_loop(counters: CounterSet, k: int, count: int):
        for i in range(count):
            counters.inc("get_started")
            counters.inc("get_ok")
            yield env.timeout(((k * 13 + i * 7) % 89) / 1000.0)

    for c, counters in enumerate(counter_sets):
        for k in range(reps):
            env.process(rep_loop(counters, c * reps + k, iters))
    env.run()
    total = 0.0
    for c, counters in enumerate(counter_sets):
        agg = CohortAggregate(
            cohort=f"c{c}", size=int(reps * weight), weight=weight,
            rep_counts={name: int(value) for name, value
                        in counters.snapshot().items()})
        folded = fold(expand(agg, 4))
        assert folded == agg, "expand/fold round-trip broke"
        total += modeled(folded)["get_ok"]
    assert total == cohorts * reps * iters * weight
    return {"ops": cohorts * reps * iters, "events": env._eid}


def _lb_pick(scheme: str) -> Callable[[Callable, float], dict]:
    """Pick-throughput bench for one flow-router scheme (repro.lb).

    Drives the router directly — no simulation runs, so these are
    kernel-insensitive — through a deterministic mix of picks over a
    recycled key population with periodic membership flaps, the regime
    the lb-ablation experiment measures misrouting in.  The wall-clock
    ops/sec here complements the ablation's deterministic cost model.
    """

    def bench(env_factory: Callable, scale: float) -> dict:
        from ..lb.consistent_hash import ConsistentHashRing
        from ..lb.routers import make_router

        clock = [0.0]
        ring = ConsistentHashRing(replicas=50, salt=11)
        router = make_router(scheme, ring, clock=lambda: clock[0],
                             lru_capacity=4096, flow_ttl=60.0,
                             concury_max_versions=8)
        backends = [f"10.8.0.{i + 1}" for i in range(12)]
        for ip in backends:
            router.backend_added(ip)
        keys = [("tcp", ("1.1.1.1", 1024 + i), ("100.64.0.1", 443))
                for i in range(5000)]
        n = int(60_000 * scale)
        routed = 0
        for i in range(n):
            if i % 2000 == 1999:
                victim = backends[(i // 2000) % len(backends)]
                router.backend_down(victim)
                router.backend_up(victim)
                clock[0] += 0.5
            if router.route(keys[i % len(keys)]) is not None:
                routed += 1
        assert routed == n
        return {"ops": n, "events": 0}

    bench.__name__ = f"lb_pick_{scheme}"
    return bench


# -- macro: scaled-up figure experiments -------------------------------------

def _macro_deployment(env_factory: Callable, *, edge_proxies: int,
                      web_clients: int, mqtt_users: int,
                      think_time: float, mqtt_publish: float,
                      drain: float, seed: int = 0, cohorts=None,
                      start: bool = True):
    """A fig-experiment-shaped deployment on an explicit kernel.

    Built directly (not via ``experiments.common.build_deployment``) so
    the benchmark measures the simulation itself, without the invariant
    suite's tap overhead.
    """
    from ..clients.mqtt import MqttWorkloadConfig
    from ..clients.web import WebWorkloadConfig
    from ..cluster.deployment import Deployment
    from ..cluster.spec import DeploymentSpec
    from ..proxygen.config import ProxygenConfig

    spec = DeploymentSpec(
        seed=seed,
        edge_proxies=edge_proxies,
        origin_proxies=3,
        app_servers=4,
        web_client_hosts=1,
        mqtt_client_hosts=1,
        quic_client_hosts=0,
        edge_config=ProxygenConfig(mode="edge", drain_duration=drain,
                                   enable_takeover=True, enable_dcr=True,
                                   spawn_delay=2.0),
        web_workload=WebWorkloadConfig(clients_per_host=web_clients,
                                       think_time=think_time),
        mqtt_workload=MqttWorkloadConfig(users_per_host=mqtt_users,
                                         publish_interval=mqtt_publish),
        quic_workload=None,
        cohorts=cohorts)
    deployment = Deployment(spec, env=env_factory())
    if start:
        deployment.start()
    return deployment


def _macro_stats(deployment) -> dict:
    """``ops`` = client operations completed (GETs, POSTs, MQTT
    publishes sent and received): the work the run did, which must be
    equal on both kernels however many events each schedules for it."""
    aggregate = deployment.metrics.aggregate
    ops = sum(aggregate(name, scope_prefix=prefix)
              for prefix, names in (
                  ("web-clients", ("get_ok", "post_ok")),
                  ("mqtt-clients", ("publishes_sent",
                                    "publishes_received")))
              for name in names)
    return {"ops": int(ops), "events": deployment.env._eid}


def fig13_timeline(env_factory: Callable, scale: float) -> dict:
    """Figure 13's ZDR timeline at 10× client scale (at ``scale=1.0``).

    The figure experiment runs 40 web clients and 40 MQTT users; the
    benchmark runs 400 of each against the same 10-proxy edge cluster,
    restarts a 20% batch with ZDR mid-run, and reports completed client
    operations (and simulated events) per wall second.
    """
    from ..release.orchestrator import RollingRelease, RollingReleaseConfig

    clients = max(1, int(400 * scale))
    deployment = _macro_deployment(
        env_factory, edge_proxies=10, web_clients=clients,
        mqtt_users=clients, think_time=0.8, mqtt_publish=4.0, drain=15.0)
    warmup, measure = 25.0, 40.0
    deployment.run(until=warmup)
    batch = max(1, int(len(deployment.edge_servers) * 0.2))
    release = RollingRelease(deployment.env,
                             deployment.edge_servers[:batch],
                             RollingReleaseConfig(batch_fraction=1.0))
    deployment.env.process(release.execute())
    deployment.run(until=warmup + measure)
    return _macro_stats(deployment)


def fig08_capacity(env_factory: Callable, scale: float) -> dict:
    """Figure 8's capacity-during-drain arm at 10× client scale.

    A rolling ZDR over the whole edge cluster in 20% batches while the
    full workload runs — the heaviest sustained load in the figure
    suite.
    """
    from ..release.orchestrator import RollingRelease, RollingReleaseConfig

    clients = max(1, int(400 * scale))
    deployment = _macro_deployment(
        env_factory, edge_proxies=10, web_clients=clients,
        mqtt_users=max(1, int(250 * scale)), think_time=0.8,
        mqtt_publish=4.0, drain=12.0)
    warmup, measure = 20.0, 30.0
    deployment.run(until=warmup)
    release = RollingRelease(deployment.env, deployment.edge_servers,
                             RollingReleaseConfig(batch_fraction=0.2))
    deployment.env.process(release.execute())
    deployment.run(until=warmup + measure)
    return _macro_stats(deployment)


def fig13_cohort_100x(env_factory: Callable, scale: float) -> dict:
    """Figure 13's ZDR timeline at 100× clients on the cohort fluid.

    The figure experiment runs 40 web clients and 40 MQTT users; at
    ``scale=1.0`` a ``CohortPolicy(scale=100)`` models 4000 of each as
    weighted representative flows (aggregate rung) against the same
    10-proxy edge cluster.  A 20% edge batch restarts with ZDR mid-run
    — the release boundary condenses weight-1 solo flows out of the
    fluid — and the whole run executes under the full invariant suite,
    which must come back green: the 100× fluid is only worth its
    speedup if every checker still holds on it.
    """
    from ..cohorts import CohortPolicy
    from ..invariants import InvariantSuite
    from ..release.orchestrator import RollingRelease, RollingReleaseConfig

    policy = CohortPolicy(fidelity="aggregate",
                          scale=max(1, int(100 * scale)))
    deployment = _macro_deployment(
        env_factory, edge_proxies=10, web_clients=40, mqtt_users=40,
        think_time=0.8, mqtt_publish=4.0, drain=15.0, cohorts=policy,
        start=False)
    suite = InvariantSuite(deployment)
    suite.attach()
    deployment.start()
    warmup, measure = 25.0, 40.0
    deployment.run(until=warmup)
    batch = max(1, int(len(deployment.edge_servers) * 0.2))
    release = RollingRelease(deployment.env,
                             deployment.edge_servers[:batch],
                             RollingReleaseConfig(batch_fraction=1.0))
    deployment.env.process(release.execute())
    deployment.run(until=warmup + measure)
    violations = suite.finalize()
    assert not violations, (
        f"invariants broke at 100× cohort scale: "
        f"{[v.checker for v in violations[:5]]}")
    return _macro_stats(deployment)


def _splice_posts(splice: bool) -> Callable[[Callable, float], dict]:
    """POST-heavy macro workload, with or without the splice fast path.

    The regime the splice plane targets: most requests are multi-MB
    streaming uploads, so per-chunk pacing/relay events dominate the
    run.  Work is *finite* (``max_requests`` per client, horizon far
    past completion) so both arms complete exactly the same requests —
    ``ops`` is the completed-request count and must match between arms
    (the same property ``tests/splice`` proves for every counter).
    """

    def bench(env_factory: Callable, scale: float) -> dict:
        from ..clients.web import WebWorkloadConfig
        from ..cluster.deployment import Deployment
        from ..cluster.spec import DeploymentSpec
        from ..splice import SpliceConfig

        clients = max(2, int(120 * scale))
        spec = DeploymentSpec(
            seed=2,
            edge_proxies=6,
            origin_proxies=3,
            app_servers=4,
            web_client_hosts=1,
            mqtt_client_hosts=0,
            quic_client_hosts=0,
            web_workload=WebWorkloadConfig(
                clients_per_host=clients, think_time=1.0,
                post_fraction=0.8, post_size_min=1_000_000,
                post_size_cap=30_000_000, post_chunk_size=16_000,
                max_requests=8),
            mqtt_workload=None,
            quic_workload=None,
            splice=SpliceConfig() if splice else None)
        deployment = Deployment(spec, env=env_factory())
        deployment.start()
        metrics = deployment.metrics

        def completed() -> float:
            return (metrics.aggregate("post_ok")
                    + metrics.aggregate("get_ok")
                    + metrics.aggregate("post_timeout")
                    + metrics.aggregate("get_timeout")
                    + metrics.aggregate("post_error")
                    + metrics.aggregate("get_error"))

        # Run until the finite workload drains (bounded by the hard
        # horizon): an idle tail would just bench health-check noise,
        # identically in both arms.
        target = clients * 8
        horizon, step, now = 600.0, 20.0, 0.0
        while now < horizon and completed() < target:
            now = min(now + step, horizon)
            deployment.run(until=now)
        done = completed()
        if splice:
            governor = deployment.splice
            assert governor is not None and governor.bulk_transfers > 0, \
                "splice arm never took the bulk fast path"
        return {"ops": int(done), "events": deployment.env._eid}

    bench.__name__ = f"splice_bulk_posts_{'on' if splice else 'off'}"
    return bench


def load_shape_sample(env_factory: Callable, scale: float) -> dict:
    """Ops control plane: ``LoadShape.scale_at`` lookups (repro.ops).

    The shape is sampled per arrival-*batch* by the LoadController, but
    its cost still must be O(1) in the table (an index lookup, no
    scanning): this bench hammers ``scale_at`` across times far beyond
    the compiled horizon, on all three shape kinds.  Kernel-insensitive.
    """
    from ..ops.load import LoadShape, named_load_shape

    shapes = [LoadShape(named_load_shape(kind, 120.0))
              for kind in ("diurnal", "flash_crowd", "post_outage_herd")]
    n = int(70_000 * scale)
    total = 0.0
    for i in range(n):
        t = (i * 7919) % 100_000 / 10.0  # deterministic scatter
        for shape in shapes:
            total += shape.scale_at(t)
    assert total > 0
    return {"ops": 3 * n, "events": 0}


def canary_judgment(env_factory: Callable, scale: float) -> dict:
    """Ops control plane: pure canary verdicts (repro.ops.canary).

    ``judge_window`` is the closed loop's per-window decision function;
    this bench drives it across a deterministic grid of canary/control
    counter deltas.  Kernel-insensitive.
    """
    from ..ops.canary import CanaryConfig, judge_window

    config = CanaryConfig()
    n = int(100_000 * scale)
    aborts = 0
    for i in range(n):
        canary_err = (i * 13) % 37
        control_err = (i * 7) % 11
        verdict, _, _ = judge_window(
            200.0, float(canary_err), 1000.0, float(control_err), config)
        aborts += verdict == "abort"
    assert 0 < aborts < n
    return {"ops": n, "events": 0}


MICRO_SCENARIOS: list[Scenario] = [
    Scenario("event_churn", "micro", event_churn, repeat=3),
    Scenario("timeout_storm", "micro", timeout_storm, repeat=3),
    Scenario("counter_inc", "micro", counter_inc,
             kernel_sensitive=False, repeat=3),
    Scenario("trace_disabled", "micro", trace_disabled,
             kernel_sensitive=False, repeat=3),
    Scenario("trace_spans", "micro", trace_spans,
             kernel_sensitive=False, repeat=3),
    Scenario("reuseport_dispatch", "micro", reuseport_dispatch, repeat=2),
    Scenario("lb_pick_stateless", "micro", _lb_pick("stateless"),
             kernel_sensitive=False, repeat=2),
    Scenario("lb_pick_stateful", "micro", _lb_pick("stateful"),
             kernel_sensitive=False, repeat=2),
    Scenario("lb_pick_lru", "micro", _lb_pick("lru"),
             kernel_sensitive=False, repeat=2),
    Scenario("lb_pick_concury", "micro", _lb_pick("concury"),
             kernel_sensitive=False, repeat=2),
    Scenario("load_shape_sample", "micro", load_shape_sample,
             kernel_sensitive=False, repeat=3),
    Scenario("canary_judgment", "micro", canary_judgment,
             kernel_sensitive=False, repeat=3),
    Scenario("cohort_arrivals", "micro", cohort_arrivals, repeat=2),
]

MACRO_SCENARIOS: list[Scenario] = [
    Scenario("fig13_timeline", "macro", fig13_timeline, quick_scale=0.1),
    Scenario("fig08_capacity", "macro", fig08_capacity, quick_scale=0.1),
    Scenario("fig13_cohort_100x", "macro", fig13_cohort_100x,
             quick_scale=0.1),
    Scenario("splice_bulk_posts", "macro", _splice_posts(True),
             ref_fn=_splice_posts(False), quick_scale=0.1),
]
