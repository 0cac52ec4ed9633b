"""HTTP message model, 379 validation, chunked codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols import (
    ChunkedDecoder,
    ChunkedEncoder,
    HttpRequest,
    HttpResponse,
    PARTIAL_POST_STATUS_MESSAGE,
    STATUS_PARTIAL_POST_REPLAY,
    echo_pseudo_headers,
    is_valid_ppr_response,
    recover_pseudo_headers,
)
from repro.run import RunRecord


def test_request_ids_unique():
    """Unique within one run; the next run counts from 1 again."""
    run = RunRecord()
    a = HttpRequest("GET", "/", id=next(run.request_ids))
    b = HttpRequest("GET", "/", id=next(run.request_ids))
    assert (a.id, b.id) == (1, 2)
    assert next(RunRecord().request_ids) == 1


def test_clone_for_replay_keeps_identity():
    original = HttpRequest("POST", "/upload", body_size=1000, user_id=5,
                           id=7)
    clone = original.clone_for_replay()
    assert clone.id == original.id
    assert clone.body_size == 1000
    assert clone is not original
    clone.headers["x"] = "y"
    assert "x" not in original.headers


def test_ppr_response_strict_validation():
    good = HttpResponse(STATUS_PARTIAL_POST_REPLAY, request_id=1,
                        status_message=PARTIAL_POST_STATUS_MESSAGE)
    assert is_valid_ppr_response(good)
    # A bare 379 without the magic status message must NOT be trusted
    # (the §5.2 memory-corruption incident).
    rogue = HttpResponse(STATUS_PARTIAL_POST_REPLAY, request_id=1,
                         status_message="Weird Upstream")
    assert not is_valid_ppr_response(rogue)
    boring = HttpResponse(200, request_id=1,
                          status_message=PARTIAL_POST_STATUS_MESSAGE)
    assert not is_valid_ppr_response(boring)


def test_pseudo_header_echo_roundtrip():
    request = HttpRequest("POST", "/upload/video", version="2", id=1)
    echoed = echo_pseudo_headers(request)
    assert echoed == {"pseudo-echo-method": "POST",
                      "pseudo-echo-path": "/upload/video"}
    recovered = recover_pseudo_headers(echoed)
    assert recovered == {":method": "POST", ":path": "/upload/video"}


def test_chunk_encoding_format():
    assert ChunkedEncoder.encode_chunk(b"hello") == b"5\r\nhello\r\n"
    assert ChunkedEncoder.encode_final() == b"0\r\n\r\n"
    assert ChunkedEncoder.encode_final({"x-sum": "1"}) == b"0\r\nx-sum: 1\r\n\r\n"


def test_empty_chunk_rejected():
    with pytest.raises(ValueError):
        ChunkedEncoder.encode_chunk(b"")


def test_decoder_whole_body():
    body = b"The quick brown fox jumps over the lazy dog" * 10
    wire = ChunkedEncoder.encode_body(body, chunk_size=64)
    decoder = ChunkedDecoder()
    out = decoder.feed(wire)
    assert out == body
    assert decoder.finished
    assert decoder.state.bytes_decoded == len(body)


def test_decoder_byte_at_a_time():
    body = b"abcdefghij" * 5
    wire = ChunkedEncoder.encode_body(body, chunk_size=7)
    decoder = ChunkedDecoder()
    out = b""
    for i in range(len(wire)):
        out += decoder.feed(wire[i:i + 1])
    assert out == body
    assert decoder.finished


def test_decoder_tracks_mid_chunk_state():
    wire = ChunkedEncoder.encode_chunk(b"0123456789")
    decoder = ChunkedDecoder()
    decoder.feed(wire[:8])  # "a\r\n01234" -> 5 bytes of a 10-byte chunk
    assert decoder.state.mid_chunk_remaining == 5
    assert decoder.state.chunks_completed == 0
    decoder.feed(wire[8:])
    assert decoder.state.mid_chunk_remaining == 0
    assert decoder.state.chunks_completed == 1


def test_decoder_rejects_garbage_size_line():
    decoder = ChunkedDecoder()
    with pytest.raises(ValueError):
        decoder.feed(b"zz\r\nxxxx\r\n")


def test_decoder_rejects_missing_crlf():
    decoder = ChunkedDecoder()
    with pytest.raises(ValueError):
        decoder.feed(b"3\r\nabcXY")


def test_decoder_feed_after_finish_rejected():
    decoder = ChunkedDecoder()
    decoder.feed(ChunkedEncoder.encode_final())
    with pytest.raises(ValueError):
        decoder.feed(b"3\r\nabc\r\n")


def test_decoder_handles_trailers():
    wire = (ChunkedEncoder.encode_chunk(b"data")
            + ChunkedEncoder.encode_final({"x-checksum": "abc"}))
    decoder = ChunkedDecoder()
    assert decoder.feed(wire) == b"data"
    assert decoder.finished


def test_decoder_chunk_extensions_ignored():
    decoder = ChunkedDecoder()
    out = decoder.feed(b"4;name=value\r\nwxyz\r\n0\r\n\r\n")
    assert out == b"wxyz"
    assert decoder.finished


def test_reframe_remaining_mid_chunk():
    """The PPR replay path: re-chunk leftover payload correctly."""
    decoder = ChunkedDecoder()
    remaining = b"not-yet-forwarded"
    reframed = decoder.reframe_remaining(remaining)
    check = ChunkedDecoder()
    assert check.feed(reframed) == remaining
    assert check.finished


def test_reframe_remaining_empty():
    decoder = ChunkedDecoder()
    reframed = decoder.reframe_remaining(b"")
    check = ChunkedDecoder()
    check.feed(reframed)
    assert check.finished
    assert bytes(check.payload) == b""


@given(st.binary(min_size=1, max_size=2000),
       st.integers(min_value=1, max_value=500))
def test_chunked_roundtrip_property(body, chunk_size):
    wire = ChunkedEncoder.encode_body(body, chunk_size=chunk_size)
    decoder = ChunkedDecoder()
    assert decoder.feed(wire) == body
    assert decoder.finished


@given(st.binary(min_size=1, max_size=1000),
       st.integers(min_value=1, max_value=100),
       st.integers(min_value=1, max_value=50))
def test_chunked_roundtrip_fragmented_property(body, chunk_size, frag):
    """Decoding must not depend on how the wire bytes are fragmented."""
    wire = ChunkedEncoder.encode_body(body, chunk_size=chunk_size)
    decoder = ChunkedDecoder()
    out = b""
    for offset in range(0, len(wire), frag):
        out += decoder.feed(wire[offset:offset + frag])
    assert out == body
    assert decoder.finished


@given(st.binary(min_size=2, max_size=500), st.data())
def test_replay_reconstruction_property(body, data):
    """Stop forwarding at an arbitrary wire position, reframe the
    remainder, and verify the replayed upstream sees the original body."""
    wire = ChunkedEncoder.encode_body(body, chunk_size=48)
    cut = data.draw(st.integers(min_value=0, max_value=len(wire)))
    decoder = ChunkedDecoder()
    forwarded = decoder.feed(wire[:cut])
    remaining_payload = body[len(forwarded):]
    replay_wire = decoder.reframe_remaining(remaining_payload)

    # The replacement upstream sees: the already-forwarded payload (the
    # 379 echo) followed by the reframed remainder — it must add up to
    # exactly the original body, regardless of where the cut fell.
    upstream = ChunkedDecoder()
    tail = upstream.feed(replay_wire)
    assert forwarded + tail == body
    assert upstream.finished
