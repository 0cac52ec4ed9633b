"""Socket Takeover at the proxygen level: the A–F workflow in detail."""

import pytest

from repro.netsim import ConnectionRefusedSim, Endpoint
from repro.proxygen import ProxygenConfig
from repro.proxygen.instance import ProxygenInstance
from .conftest import MiniStack


def _assert_no_fd_leak(host):
    """FD conservation on one machine: every open-file-description's
    refcount is accounted for by live processes' table entries, and no
    closed description lingers in any table."""
    refs = {}
    descriptions = {}
    for process in host.live_processes():
        table = process.fd_table
        assert table.live_count() == len(table.snapshot()), \
            f"{process.name}: closed descriptions still installed"
        for description in table.snapshot().values():
            refs[id(description)] = refs.get(id(description), 0) + 1
            descriptions[id(description)] = description
    for key, description in descriptions.items():
        assert description.refcount == refs[key], (
            f"leaked reference: {description!r} has refcount "
            f"{description.refcount} but {refs[key]} live table entries")


def test_takeover_shares_listeners_and_udp_rings(world):
    stack = MiniStack(world).start()
    edge = stack.edge
    old = edge.active_instance
    old_listeners = dict(old.tcp_listeners)
    old_udp = {name: list(socks) for name, socks in old.udp_sockets.items()}
    ring = stack.edge_host.kernel.reuseport_ring(stack.edge_vips[1].endpoint)
    version_before = ring.version

    done = stack.env.process(edge.release())
    stack.env.run(until=done)
    new = edge.active_instance
    assert new is not old
    # Same socket objects: shared open-file-descriptions.
    for name, listener in new.tcp_listeners.items():
        assert listener is old_listeners[name]
    for name, socks in new.udp_sockets.items():
        assert socks == old_udp[name]
    # SO_REUSEPORT ring membership never changed.
    assert ring.version == version_before
    # Old is draining; new knows where to user-space-route.
    assert old.state == ProxygenInstance.STATE_DRAINING
    assert new.sibling_forward_port == old.forward_port
    # Zero FD leakage with two generations alive: every description
    # reference is held by a live table entry.
    _assert_no_fd_leak(stack.edge_host)


def test_drain_end_exits_old_process(world):
    stack = MiniStack(world, edge_config=ProxygenConfig(
        mode="edge", drain_duration=2.0, spawn_delay=0.5)).start()
    edge = stack.edge
    old = edge.active_instance
    done = stack.env.process(edge.release())
    stack.env.run(until=done)
    assert old.alive
    stack.env.run(until=stack.env.now + 4)
    assert not old.alive
    assert old.state == ProxygenInstance.STATE_EXITED
    assert edge.draining_instance is None
    assert edge.active_instance.sibling_forward_port is None
    # The exited generation dropped every FD; nothing leaked across
    # the takeover + drain cycle.
    assert old.process.fd_table.live_count() == 0
    _assert_no_fd_leak(stack.edge_host)


def test_takeover_server_rebinds_for_next_generation(world):
    stack = MiniStack(world, edge_config=ProxygenConfig(
        mode="edge", drain_duration=1.0, spawn_delay=0.3)).start()
    edge = stack.edge
    for expected_gen in (2, 3, 4):
        done = stack.env.process(edge.release())
        stack.env.run(until=done)
        stack.env.run(until=stack.env.now + 3)
        assert edge.active_instance.generation == expected_gen
        assert edge.instance_count == 1
        # FD count must not grow with the generation count.
        _assert_no_fd_leak(stack.edge_host)


def test_new_instance_answers_connects_during_drain(world):
    stack = MiniStack(world, edge_config=ProxygenConfig(
        mode="edge", drain_duration=8.0, spawn_delay=0.5)).start()
    edge = stack.edge
    done = stack.env.process(edge.release())
    stack.env.run(until=done)
    assert edge.instance_count == 2

    host, proc = stack.client()
    accepted = []

    def dial():
        conn = yield host.kernel.tcp_connect(proc, stack.edge_https,
                                             via_ip=stack.edge_host.ip)
        accepted.append(conn)

    proc.run(dial())
    stack.env.run(until=stack.env.now + 1)
    assert accepted
    # The connection belongs to the NEW instance's process.
    new = edge.active_instance
    assert new.process.connection_count >= 1


def test_hard_restart_has_downtime_window(world):
    stack = MiniStack(world, edge_config=ProxygenConfig(
        mode="edge", drain_duration=2.0, spawn_delay=2.0,
        enable_takeover=False, enable_dcr=False)).start()
    edge = stack.edge
    stack.env.process(edge.release())
    # After the drain the old process exits; before the new instance
    # binds there is a real downtime window.
    stack.env.run(until=stack.env.now + 3.0)
    host, proc = stack.client()
    refused = []

    def dial():
        try:
            yield host.kernel.tcp_connect(proc, stack.edge_https,
                                          via_ip=stack.edge_host.ip)
        except ConnectionRefusedSim:
            refused.append(True)

    proc.run(dial())
    stack.env.run(until=stack.env.now + 0.5)
    assert refused
    stack.env.run(until=stack.env.now + 4)
    assert edge.active_instance.generation == 2


def test_fresh_bind_conflicts_if_old_still_bound(world):
    """A cold boot on a machine whose sockets are still owned fails
    loudly (BindError) rather than silently stealing traffic."""
    from repro.netsim import BindError
    stack = MiniStack(world).start()
    edge = stack.edge
    rogue = ProxygenInstance(edge, 99)
    with pytest.raises(BindError):
        stack.env.run(until=stack.env.process(rogue.start_fresh()))
