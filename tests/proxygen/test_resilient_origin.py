"""The Origin's resilient short-request path: hedging and budgeted retries.

Deterministic scenarios through the hand-wired mini-stack with the
resilience plane on at the Origin: a slowed app server makes the hedge
fire (and win, or lose), and a fleet that sheds everything drains the
retry budget until the proxy stops retrying and relays the shed.
"""

from repro.appserver import AppServerConfig
from repro.protocols import BodyChunk, HttpRequest, STATUS_OK
from repro.protocols.http import (
    RETRY_AFTER_HEADER,
    STATUS_SERVICE_UNAVAILABLE,
)
from repro.proxygen import ProxygenConfig
from repro.resilience import OutlierTracker, ResilienceConfig
from .conftest import MiniStack

HEDGE_DELAY = 0.2


def _stack(world, app_config=None):
    resilience = ResilienceConfig(enabled=True, hedge_delay=HEDGE_DELAY)
    stack = MiniStack(
        world, app_servers=2, app_config=app_config,
        origin_config=ProxygenConfig(mode="origin", drain_duration=5.0,
                                     spawn_delay=0.5,
                                     resilience=resilience)).start()
    # Passive health is a balancer-wide view (cluster.base wires it the
    # same way); here it doubles as the record of who got the credit.
    stack.health = OutlierTracker(resilience, world.env,
                                  world.streams.stream("outlier"))
    stack.app_pool.attach_health(stack.health)
    return stack


def _slow(server, speed):
    """CPU-throttle one app server (what the slow_host fault does)."""
    server.host.cpu.speed = speed


def _gets(stack, count, settle=12.0):
    """``count`` sequential dynamic GETs through the edge → responses."""
    host, proc = stack.client()
    got = []

    def flow():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_https,
                                             via_ip=stack.edge_host.ip)
        for _ in range(count):
            conn.send(HttpRequest("GET", "/api/feed", id=1), size=300)
            item = yield conn.recv()
            got.append(item.payload)

    proc.run(flow())
    stack.env.run(until=stack.env.now + settle)
    return got


def _origin_fds(stack):
    return len(stack.origin.active_instance.process.fd_table)


def test_hedge_fires_and_wins_against_a_slowed_primary(world):
    stack = _stack(world)
    slow, fast = stack.app_servers
    _slow(slow, 0.5)  # accept + request now cost seconds, not ms
    counters = stack.origin.counters

    first = _gets(stack, 1)
    assert [r.status for r in first] == [STATUS_OK]
    assert counters.get("hedge_sent") == 1
    assert counters.get("hedge_won") == 1
    # The winner gets the health credit; the abandoned primary is
    # neither credited nor blamed.
    assert stack.health.stats[fast.host.ip].samples == 1
    assert stack.health.stats[fast.host.ip].ewma_error_rate == 0.0
    assert slow.host.ip not in stack.health.stats
    assert slow.counters.get("requests_served") == 0
    fds = _origin_fds(stack)

    # Same race again: the loser's connection was closed, not leaked
    # and not pooled (a late reply would poison the next checkout).
    second = _gets(stack, 1)
    assert [r.status for r in second] == [STATUS_OK]
    assert counters.get("hedge_won") == 2
    assert _origin_fds(stack) == fds
    assert fast.counters.get("requests_served") == 2


def test_hedge_that_loses_is_aborted_and_the_primary_answers(world):
    stack = _stack(world)
    primary, hedged = stack.app_servers
    _slow(primary, 4.0)   # answers after ~0.3 s: past the hedge delay
    _slow(hedged, 0.2)    # the hedge leg needs many seconds
    counters = stack.origin.counters

    first = _gets(stack, 1)
    assert [r.status for r in first] == [STATUS_OK]
    assert counters.get("hedge_sent") == 1
    assert counters.get("hedge_won") == 0
    assert primary.counters.get("requests_served") == 1
    assert stack.health.stats[primary.host.ip].samples == 1
    fds = _origin_fds(stack)

    second = _gets(stack, 1)
    assert [r.status for r in second] == [STATUS_OK]
    assert counters.get("hedge_sent") == 2
    assert counters.get("hedge_won") == 0
    assert _origin_fds(stack) == fds


def _occupy_only_slot(stack, server):
    """Park a never-finishing upload on ``server`` so its single
    admission slot stays taken and every further request is shed."""
    host, proc = stack.client(f"uploader-{server.host.name}")

    def flow():
        conn = yield host.kernel.tcp_connect(proc, server.endpoint)
        request = HttpRequest("POST", "/up", body_size=10_000_000,
                              streaming=True, id=1)
        conn.send(request, size=300)
        conn.send(BodyChunk(request.id, 1000, 1), size=1000)

    proc.run(flow())


def test_retry_storm_stops_at_the_budget_and_relays_the_shed(world):
    shedding = AppServerConfig(resilience=ResilienceConfig(
        enabled=True, max_inflight=1, shed_retry_after=0.7))
    stack = _stack(world, app_config=shedding)
    for server in stack.app_servers:
        _occupy_only_slot(stack, server)
    stack.env.run(until=stack.env.now + 1)
    counters = stack.origin.counters

    responses = _gets(stack, 8, settle=30.0)
    # Every answer is the app server's own 503, Retry-After intact —
    # never a synthesized 500.
    assert [r.status for r in responses] == [STATUS_SERVICE_UNAVAILABLE] * 8
    assert {r.headers[RETRY_AFTER_HEADER] for r in responses} == {"0.7"}
    # A request is shed by both servers and pays a retry token for the
    # second and for the (empty) third pick.  The floor of 10 tokens
    # plus 0.2 per request buys 11 retries: two each for requests 1-5,
    # one for request 6.  From there the budget is exhausted — once in
    # request 6, then on the first retry of 7 and of 8 — and the proxy
    # makes one attempt per request and relays its shed.
    assert counters.get("retries") == 11
    assert counters.get("retry_backoff_waits") == 11
    assert counters.get("retry_budget_exhausted") == 3
    sheds = sum(s.counters.get("http_status", tag="503")
                for s in stack.app_servers)
    assert sheds == counters.get("upstream_shed") == 5 * 2 + 2 + 1 + 1
