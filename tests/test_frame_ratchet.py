"""Python calls per relayed message: a ratchet on host work per hop.

The event ratchets (``tests/test_event_ratchet.py``,
``tests/netsim/test_event_budget.py``) count what a hop schedules; they
cannot see what it costs the host to build and hand on.  Once the event
counts reached their floor, that host work is what a figure-scale run
pays for, so this counts it too: the Python function entries
(``sys.setprofile`` ``"call"`` events, generator resumptions included)
per message relayed over an HTTP/2 stream on one established TCP
connection, a CPU burst at each hop and each receive under a deadline —
the shape of the Edge ↔ Origin relay.  It only moves on purpose: a
pass-through call or a class call per hop that comes back shows here.
"""

import gc
import sys

from repro.netsim import CpuCosts, Endpoint
from repro.protocols import H2Connection

#: Round trips counted, after one that opens the stream.
MESSAGES = 40

#: Measured when the ceiling was last set: 1,596 calls over the 40
#: round trips (two hops each), and the ceiling is that count.  It was
#: 41.85 per message (1,674 calls) while a receive under a deadline
#: reached ``Process._bound`` through ``Environment.within``, and 57.67
#: per message (2,307 calls) while each timeout, receive, stream
#: message and H2 frame was built by a class call (an ``__init__``
#: frame each), a data send went through ``Kernel.transmit_stream``, a
#: stream's send through ``H2Connection.send_frame`` and
#: ``TcpEndpoint.alive``, and a core nobody waited for was freed by a
#: ``CpuModel._release`` call.
CEILING = 39.90


def _h2_pair(world):
    """A started client/server H2 pair over one established connection."""
    server_host, client_host = world.host("server"), world.host("client")
    sproc, cproc = server_host.spawn("s"), client_host.spawn("c")
    endpoint = Endpoint(server_host.ip, 443)
    _, listener = server_host.kernel.tcp_listen(sproc, endpoint)
    made = {}

    def server():
        conn = yield listener.accept(sproc)
        made["server"] = h2 = H2Connection(conn, role="server")
        h2.start(sproc)

    def client():
        conn = yield client_host.kernel.tcp_connect(cproc, endpoint)
        made["client"] = h2 = H2Connection(conn, role="client")
        h2.start(cproc)

    sproc.run(server())
    cproc.run(client())
    world.env.run(until=0.1)
    return made["client"], made["server"], (cproc, sproc)


def test_python_calls_per_relayed_message_stay_under_the_ceiling(world):
    env = world.env
    client, server, (cproc, sproc) = _h2_pair(world)
    client_cpu, server_cpu = (conn.endpoint.kernel.host.cpu
                              for conn in (client, server))
    relayed = []

    def echo():
        stream = yield server.accept_stream()
        frame = stream.inbox.try_get()
        for _ in range(MESSAGES):
            yield from server_cpu.execute(CpuCosts.relay_message)
            stream.send(frame.payload, size=frame.size)
            frame = yield stream.recv(30.0)
        yield from server_cpu.execute(CpuCosts.relay_message)
        stream.send(frame.payload, size=frame.size)

    def relay():
        stream = client.open_stream()
        for n in range(MESSAGES + 1):
            stream.send(n, size=1_000)
            frame = yield stream.recv(30.0)
            assert frame.payload == n
            yield from client_cpu.execute(CpuCosts.relay_message)
            relayed.append(n)

    sproc.run(echo())
    cproc.run(relay())
    while not relayed:  # the round trip that opens the stream
        env.step()
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # No collection in the window: a generator it finalized would be
    # entered, and counted, at a time other tests decide.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        env.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert len(relayed) == MESSAGES + 1
    per_message = calls / MESSAGES
    assert per_message <= CEILING, (
        f"{calls} Python calls / {MESSAGES} messages = {per_message:.2f} "
        f"> {CEILING}: a hop got a new call: inline it, or raise the "
        "ceiling on purpose")
