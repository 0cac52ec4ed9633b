"""Python calls per relayed message: a ratchet on host work per hop.

The event ratchets (``tests/test_event_ratchet.py``,
``tests/netsim/test_event_budget.py``) count what a hop schedules; they
cannot see what it costs the host to build and hand on.  Once the event
counts reached their floor, that host work is what a figure-scale run
pays for, so this counts it too: the Python function entries
(``sys.setprofile`` ``"call"`` events) per message relayed over an
HTTP/2 stream on one established TCP connection, in the shape every
production relay runs (the Edge and Origin MQTT tunnels, the POST body
relays): a handler parks once on ``env.relay()``, and each message is
a step armed by ``Relay.read`` on the stream's inbox, then a CPU burst
armed by ``Relay.charge``, then the send.  It only moves on purpose: a
call added to a relay step, a store's reader hand-off, the burst or the
send shows here.
"""

import gc
import sys

from repro.netsim import CpuCosts, Endpoint
from repro.protocols import H2Connection

#: Round trips counted, after one that opens the stream.
MESSAGES = 40

#: Measured when the ceiling was last set: 1,367 calls over the 40
#: round trips (two hops each), and the ceiling is that count.  The
#: generator loop this test counted before every production relay became
#: steps (``recv`` under a deadline + ``CpuModel.execute`` per hop)
#: measured 1,516 calls.
CEILING = 34.175


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
        relay = env.relay()

        def sent(frame):
            stream.send(frame.payload, size=frame.size)
            if frame.payload == MESSAGES:
                relay.wake()
            else:
                relay.read(stream.inbox, received)

        def received(frame):
            relay.charge(server_cpu, CpuCosts.relay_message, sent, frame)

        relay.read(stream.inbox, received)  # the opening frame is queued
        try:
            yield relay
        finally:
            relay.close()

    def relay_messages():
        stream = client.open_stream()
        relay = env.relay()

        def sent(frame):
            relayed.append(frame.payload)
            if frame.payload == MESSAGES:
                relay.wake()
                return
            stream.send(frame.payload + 1, size=1_000)
            relay.read(stream.inbox, received)

        def received(frame):
            relay.charge(client_cpu, CpuCosts.relay_message, sent, frame)

        stream.send(0, size=1_000)
        relay.read(stream.inbox, received)
        try:
            yield relay
        finally:
            relay.close()

    sproc.run(echo())
    cproc.run(relay_messages())
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
    assert relayed == list(range(MESSAGES + 1))
    per_message = calls / MESSAGES
    assert per_message <= CEILING, (
        f"{calls} Python calls / {MESSAGES} messages = {per_message:.2f} "
        f"> {CEILING}: a hop got a new call: inline it, or raise the "
        "ceiling on purpose")
