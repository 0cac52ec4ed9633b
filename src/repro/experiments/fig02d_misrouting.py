"""Figure 2d: UDP packets misrouted during a naive SO_REUSEPORT handover.

The kernel picks the socket for each UDP packet by hashing the flow over
the current reuseport ring.  A naive restart mutates the ring twice (new
process binds its own sockets; old process's entries are purged), so
established flows suddenly hash to sockets owned by a process without
their state.  FD passing leaves the ring untouched.

This experiment drives flows straight against the simulated kernel —
the mechanism itself, with no proxy logic in the way.
"""

from __future__ import annotations

from ..metrics.registry import MetricsRegistry
from ..netsim.addresses import Endpoint
from ..netsim.host import Host
from ..netsim.network import LinkProfile, Network
from ..options import RunOptions
from ..simkernel.core import Environment
from ..simkernel.rng import RandomStreams
from .common import ExperimentResult

__all__ = ["run"]

#: UDP sockets each process binds into the reuseport ring, and the
#: packet rate of every flow.
SOCKETS_PER_RING = 4
PACKETS_PER_FLOW_PER_SEC = 5.0


def _drive(pass_fds: bool, seed: int, flows: int, duration: float,
           restart_at: float, old_exit_at: float):
    """One arm; returns (misrouted_timeline, total_misrouted, total_sent)."""
    env = Environment()
    streams = RandomStreams(seed)
    metrics = MetricsRegistry()
    network = Network(env, streams,
                      default_profile=LinkProfile(latency=0.0005))
    server = Host(env, network, "udp-server", "10.0.0.1", "dc", metrics,
                  streams=streams.fork("server"))
    client = Host(env, network, "client", "10.0.0.9", "dc", metrics,
                  streams=streams.fork("client"))
    vip = Endpoint(server.ip, 443)

    old_proc = server.spawn("old")
    ring_socks = []
    for _ in range(SOCKETS_PER_RING):
        _, sock = server.kernel.udp_bind(old_proc, vip, reuseport=True)
        ring_socks.append(sock)
    ring = server.kernel.reuseport_ring(vip)

    client_proc = client.spawn("flows")
    flow_sockets = []
    for _ in range(flows):
        _, sock = client.kernel.udp_bind_ephemeral(client_proc)
        flow_sockets.append(sock)

    # Each flow's "owner" is the ring socket its packets hash to at
    # establishment time; we track ownership by process.
    state = {"owners": {}, "misrouted": [], "sent": 0}
    socket_owner = {id(s): "old" for s in ring_socks}

    def sender():
        rng = streams.stream("arrivals")
        interval = 1.0 / PACKETS_PER_FLOW_PER_SEC
        while env.now < duration:
            for i, sock in enumerate(flow_sockets):
                sock.sendto(("flow", i), vip, size=200)
                state["sent"] += 1
            yield env.timeout(interval)

    def receiver_register():
        """Record which process each delivered packet landed on."""
        def watch(sock):
            while True:
                datagram = yield sock.recv()
                flow_id = datagram.payload[1]
                owner = socket_owner[id(sock)]
                established = state["owners"].setdefault(flow_id, owner)
                if owner != established:
                    state["misrouted"].append(env.now)
        return watch

    watch = receiver_register()
    for sock in ring_socks:
        old_proc.run(watch(sock))

    def restart():
        yield env.timeout(restart_at)
        new_proc = server.spawn("new")
        if pass_fds:
            # Socket Takeover: install the same descriptions (dup).
            for fd in list(old_proc.fd_table.fds()):
                new_proc.fd_table.install(old_proc.fd_table.description(fd))
            for sock in ring_socks:
                socket_owner[id(sock)] = "new"
                # The new process takes over reading (old stops); flows
                # keep hashing to the same sockets, so no flow changes
                # process un-expectedly: re-register ownership as a
                # *handover*, not a misroute.
                for flow_id, owner in list(state["owners"].items()):
                    if owner == "old":
                        state["owners"][flow_id] = "new"
                new_proc.run(watch(sock))
        else:
            # Naive restart: the new process binds its own ring entries.
            for _ in range(SOCKETS_PER_RING):
                _, sock = server.kernel.udp_bind(new_proc, vip,
                                                 reuseport=True)
                socket_owner[id(sock)] = "new"
                new_proc.run(watch(sock))
        yield env.timeout(old_exit_at - restart_at)
        old_proc.exit("release")

    env.process(sender())
    env.process(restart())
    env.run(until=duration)

    bucket = 0.5
    timeline: dict[float, int] = {}
    for t in state["misrouted"]:
        key = round(t / bucket) * bucket
        timeline[key] = timeline.get(key, 0) + 1
    return sorted(timeline.items()), len(state["misrouted"]), state["sent"]


def run(seed: int = 0, flows: int = 150, duration: float = 20.0,
        restart_at: float = 8.0, old_exit_at: float = 14.0,
        options: RunOptions = RunOptions()) -> ExperimentResult:
    args = dict(seed=seed, flows=flows, duration=duration,
                restart_at=restart_at, old_exit_at=old_exit_at)
    naive_tl, naive_total, sent = _drive(pass_fds=False, **args)
    fd_tl, fd_total, _ = _drive(pass_fds=True, **args)

    result = ExperimentResult(
        name="fig02d: UDP misrouting during socket handover",
        params=dict(args, sockets_per_ring=SOCKETS_PER_RING,
                    packets_per_flow_per_sec=PACKETS_PER_FLOW_PER_SEC))
    result.series["misrouted_naive"] = [(t, float(v)) for t, v in naive_tl]
    result.series["misrouted_fd_passing"] = [(t, float(v)) for t, v in fd_tl]
    result.scalars.update({
        "packets_sent_per_arm": float(sent),
        "misrouted_naive_total": float(naive_total),
        "misrouted_fd_passing_total": float(fd_total),
        "naive_misroute_fraction": naive_total / max(1, sent),
    })
    result.claims.update({
        "naive_restart_misroutes_many": naive_total > flows,
        "fd_passing_misroutes_none": fd_total == 0,
    })
    return result
