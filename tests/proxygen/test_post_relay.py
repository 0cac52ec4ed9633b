"""The Origin's POST relay (§4.3): forward the body, hear the app server.

The relay forwards each body chunk from the Edge while it waits for the
app server's reply — a 200 once the body is in, or a 379 mid-body when
the server restarts.  Both arrive at the Origin on links with their own
delays, so one tick can bring both.
"""

import pytest

from repro.protocols import (
    HttpResponse,
    PARTIAL_POST_STATUS_MESSAGE,
    STATUS_INTERNAL_ERROR,
    STATUS_OK,
    STATUS_PARTIAL_POST_REPLAY,
)
from tests.proxygen.conftest import OriginRelay

REPLIES = {
    "200": (HttpResponse(STATUS_OK, 1), "post_completed", [STATUS_OK]),
    # The only app server answered 379: nowhere to replay, so a 500.
    "379": (HttpResponse(STATUS_PARTIAL_POST_REPLAY, 1,
                         PARTIAL_POST_STATUS_MESSAGE,
                         partial_body_size=1_000, partial_chunks=1),
            "ppr_379_received", [STATUS_INTERNAL_ERROR]),
}


@pytest.mark.parametrize("status", sorted(REPLIES))
def test_a_reply_on_the_same_tick_as_a_chunk_is_not_lost(world, status):
    """The chunk lands first and wakes the relay; the reply lands on the
    same tick.  A relay that raced a get per source lost the reply
    there: the chunk decided the race, and the reply then went to the
    other get, which the race had already given up on."""
    response, counter, edge_sees = REPLIES[status]
    relay = OriginRelay(world)
    relay.chunk(1)
    relay.reply(response)
    world.env.run(until=world.env.now + 1.0)
    assert [item.payload.sequence for item in relay.upstream[1:]] == [1]
    assert relay.origin.counters.get(counter) == 1
    assert [reply.status for reply in relay.replies()] == edge_sees


def test_the_app_socket_gets_its_arrivals_back_when_the_body_is_in(world):
    """After the last chunk the relay reads the app socket itself, under
    a deadline; after the reply it pools the socket, which must then
    hand its arrivals to its own inbox again."""
    relay = OriginRelay(world)
    relay.chunk(1)
    relay.chunk(2, is_last=True)
    world.env.run(until=world.env.now + 1.0)
    assert relay.replies() == []
    relay.reply(HttpResponse(STATUS_OK, 1))
    world.env.run(until=world.env.now + 1.0)
    assert [reply.status for reply in relay.replies()] == [STATUS_OK]
    assert relay.origin.counters.get("post_completed") == 1
    (pooled,) = relay.origin.active_instance.conn_pool._idle[
        (relay.app_conn.local.ip, relay.app_conn.local.port)]
    relay.reply("late")
    world.env.run(until=world.env.now + 1.0)
    assert [item.payload for item in pooled.inbox.items] == ["late"]
    assert relay.stream.inbox.items[1:] == []
