"""What a finished connection leaves behind: nothing for the collector.

Both halves of a TCP pair closed means neither can transmit again, so
the pair unlinks (``peer`` on both sides goes to ``None``) and plain
reference counting frees it once its last in-flight FIN or RST has been
delivered.  A half-closed pair stays linked: its open half may still
send, and data reaching the closed half is answered with a RST.  The
tests run with the cyclic collector off, so an object that is gone here
was freed by refcount alone.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.netsim import ConnectionRefusedSim, ControlType, Endpoint
from repro.protocols import H2Connection


@pytest.fixture(autouse=True)
def no_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class _Ref:
    """``weakref.ref`` for a slotted object that has no ``__weakref__``
    slot (``TcpEndpoint``): it finds the object among those the
    collector tracks, which it does whether or not it collects."""

    def __init__(self, obj):
        self.id, self.type = id(obj), type(obj)

    def __call__(self):
        return next((obj for obj in gc.get_objects()
                     if id(obj) == self.id and type(obj) is self.type), None)


def _pair(world):
    """An established (client, server) endpoint pair, owned by two live
    processes; returns a :class:`_Ref` to each end and the processes."""
    server_host, client_host = world.host("server"), world.host("client")
    sproc, cproc = server_host.spawn("srv"), client_host.spawn("cli")
    endpoint = Endpoint(server_host.ip, 443)
    _, listener = server_host.kernel.tcp_listen(sproc, endpoint)
    refs = {}

    def server():
        refs["server"] = _Ref((yield listener.accept(sproc)))

    def client():
        conn = yield client_host.kernel.tcp_connect(cproc, endpoint)
        refs["client"] = _Ref(conn)

    sproc.run(server())
    cproc.run(client())
    world.env.run(until=0.1)
    return refs["client"], refs["server"], (cproc, sproc)


def test_a_closed_pair_is_freed_once_its_last_fin_is_delivered(world):
    client, server, _ = _pair(world)
    client().close()
    world.env.run(until=0.2)           # the client's FIN has arrived
    assert server().fin_received
    server().close()                   # the second half: the pair unlinks
    assert client().peer is None and server() is None
    assert client() is not None        # held by the FIN still in flight
    world.env.run(until=0.3)
    assert client() is None


def test_a_half_closed_pair_stays_linked(world):
    client, server, _ = _pair(world)
    client().close()
    world.env.run(until=0.2)
    assert server().fin_received and not server().closed
    assert client().peer is server() and server().peer is client()
    server().send("late reply")        # the open half may still send


def test_data_reaching_a_closed_half_is_answered_with_rst(world):
    client, server, (_, sproc) = _pair(world)
    server().close()
    world.env.run(until=0.2)
    client().send("more data")         # crosses into the closed half
    world.env.run(until=0.3)
    assert client().reset
    counters = sproc.host.counters
    assert counters.get("tcp_rst_sent", tag="data_after_close") == 1
    kinds = [item.kind for item in client().inbox.items]
    assert kinds == [ControlType.FIN, ControlType.RST]
    client().close()                   # reset: no FIN, the pair unlinks
    assert client() is None and server() is None


def test_a_broken_h2_session_lets_go_of_its_socket(world):
    """The session's socket hands arrivals to its demux while it is up;
    once the transport is down the demux drops everything, so the socket
    stops holding the session and both are freed by refcount."""
    client, server, (cproc, sproc) = _pair(world)
    sessions = []
    for ref, proc, role in ((client, cproc, "client"),
                            (server, sproc, "server")):
        h2 = H2Connection(ref(), role=role)
        h2.start(proc)
        sessions.append(weakref.ref(h2))
    del h2
    client().close()                   # the server's session breaks on FIN
    world.env.run(until=0.2)
    assert sessions[1]() is None       # its socket let go of it
    assert sessions[0]() is not None   # still up: a peer FIN breaks it
    server().close()
    world.env.run(until=0.3)
    assert sessions[0]() is None
    assert client() is None and server() is None


def test_a_closed_unix_pair_unlinks(world):
    host = world.host("h")
    old, new = host.spawn("old"), host.spawn("new")
    listener = host.unix_listen(old, "/takeover.sock")
    ends = {}

    def server():
        ends["server"] = weakref.ref((yield listener.accept()))

    def client():
        ends["client"] = weakref.ref(
            (yield host.unix_connect(new, "/takeover.sock")))

    old.run(server())
    new.run(client())
    world.env.run(until=1)
    ends["client"]().close()
    assert ends["server"]().peer is ends["client"]()
    ends["server"]().close()
    assert ends["client"]() is None and ends["server"]() is None


def _found_by_the_collector() -> Counter:
    """What a collection would free now, by type (the collector is off,
    so this is what refcount could not free)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("dial", ["tcp_probe", "tcp_connect_within"])
def test_a_refused_dial_under_a_deadline_leaves_no_cycle(world, dial):
    """The refusal is the failed attempt's value.  While its traceback
    held the frames that hold the attempt, the two were a cycle: three
    frames and tracebacks, the attempt, its race and the refusal."""
    server_host, client_host = world.host("server"), world.host("client")
    proc = client_host.spawn("dialer")
    kernel = client_host.kernel
    dst = Endpoint(server_host.ip, 443)     # nothing listens there
    outcomes = []

    def dialer():
        try:
            outcomes.append(
                (yield from getattr(kernel, dial)(proc, dst, 1.0)))
        except ConnectionRefusedSim:
            outcomes.append("refused")

    assert not _found_by_the_collector()
    proc.run(dialer())
    world.env.run(until=2.0)
    assert outcomes == [False if dial == "tcp_probe" else "refused"]
    assert not _found_by_the_collector()
