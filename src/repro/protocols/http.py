"""HTTP message model, status codes (including 379) and chunked coding.

Two layers live here:

* **Message objects** (:class:`HttpRequest`, :class:`HttpResponse`) that
  travel over simulated connections.  Status **379 "PartialPOST"** is the
  paper's new code for Partial Post Replay; §5.2 requires checking *both*
  the code and the status message before trusting it, because 379 sits in
  an unreserved IANA range and a buggy upstream really did emit random
  codes in production.
* A **byte-exact chunked transfer-encoding codec** — §5.2 again: a proxy
  implementing PPR "must remember the exact state of forwarding the body
  ... whether it is in the middle or at the beginning of a chunk in order
  to reconstitute the original chunk headers".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "BodyChunk",
    "STATUS_OK",
    "STATUS_TEMPORARY_REDIRECT",
    "STATUS_PARTIAL_POST_REPLAY",
    "STATUS_INTERNAL_ERROR",
    "STATUS_SERVICE_UNAVAILABLE",
    "RETRY_AFTER_HEADER",
    "shed_response",
    "PARTIAL_POST_STATUS_MESSAGE",
    "is_valid_ppr_response",
    "echo_pseudo_headers",
    "recover_pseudo_headers",
    "ChunkedEncoder",
    "ChunkedDecoder",
    "ChunkedState",
    "MAX_LINE_LENGTH",
]

STATUS_OK = 200
STATUS_TEMPORARY_REDIRECT = 307
#: The new status code Partial Post Replay introduces (§4.3).
STATUS_PARTIAL_POST_REPLAY = 379
STATUS_INTERNAL_ERROR = 500
#: Load shedding: the admission controller answers this + Retry-After.
STATUS_SERVICE_UNAVAILABLE = 503

RETRY_AFTER_HEADER = "retry-after"

#: §5.2: PPR is only enabled on a 379 *with this exact status message*.
PARTIAL_POST_STATUS_MESSAGE = "PartialPOST"

#: Prefix used to echo request pseudo-headers in a 379 response so the
#: proxy can rebuild the original request (§5.2, "pseudo echo path").
PSEUDO_ECHO_PREFIX = "pseudo-echo-"


@dataclass
class HttpRequest:
    """An HTTP request as carried through the simulation."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    #: Total body size in bytes (0 for bodyless requests).
    body_size: int = 0
    #: HTTP version the client speaks ("1.1", "2", "3").
    version: str = "1.1"
    #: True when the body arrives as separate BodyChunk messages.
    streaming: bool = False
    user_id: Optional[int] = None
    #: Unique within one run: a client draws it from its run's counter,
    #: ``next(host.run_record.request_ids)``.
    id: int = field(kw_only=True)
    #: Trace context (a ``repro.trace.Span``), or None when untraced.
    #: Each hop re-points this at its own span before forwarding, so
    #: the next tier parents correctly.  Excluded from comparison: two
    #: requests are the same request whether or not they were sampled.
    trace: Any = field(default=None, repr=False, compare=False)

    @property
    def pseudo_headers(self) -> dict[str, str]:
        """The HTTP/2+ request pseudo-headers for this request."""
        return {":method": self.method, ":path": self.path}

    def clone_for_replay(self) -> "HttpRequest":
        """A copy used when the proxy replays the request elsewhere.

        Keeps the original ``id`` so end-to-end accounting treats it as
        the same logical request.
        """
        return HttpRequest(
            method=self.method, path=self.path, headers=dict(self.headers),
            body_size=self.body_size, version=self.version,
            streaming=self.streaming, user_id=self.user_id, id=self.id,
            trace=self.trace)


@dataclass
class BodyChunk:
    """One piece of a streamed request body.

    A *spliced* transfer (repro.splice) coalesces a whole chunk train
    into one BodyChunk whose ``chunks`` records how many wire chunks it
    stands for — relays scale their per-chunk costs by it so counter
    and utilization folds stay exact.  Ordinary chunks carry 1.
    """

    request_id: int
    data_size: int
    sequence: int
    is_last: bool = False
    chunks: int = 1


@dataclass
class HttpResponse:
    """An HTTP response."""

    status: int
    request_id: int
    status_message: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body_size: int = 0
    #: For 379 responses: the partially received body the server echoes
    #: back to the proxy (modelled as a byte count + chunk sequence).
    partial_body_size: int = 0
    partial_chunks: int = 0
    payload: Any = None


def shed_response(request_id: int, retry_after: float) -> HttpResponse:
    """The 503 an admission controller sends when it sheds a request.

    Carries a ``Retry-After`` hint so well-behaved clients back off for
    a bounded, server-chosen interval instead of hammering or giving up.
    """
    return HttpResponse(
        status=STATUS_SERVICE_UNAVAILABLE, request_id=request_id,
        status_message="Service Unavailable",
        headers={RETRY_AFTER_HEADER: f"{retry_after:g}"})


def is_valid_ppr_response(response: HttpResponse) -> bool:
    """§5.2's strict check: 379 **and** the PartialPOST status message.

    A proxy must not trust a bare 379 — an upstream that does not
    implement PPR may use the unreserved code for something else (or be
    emitting garbage, as the memory-corruption incident showed).
    """
    return (response.status == STATUS_PARTIAL_POST_REPLAY
            and response.status_message == PARTIAL_POST_STATUS_MESSAGE)


def echo_pseudo_headers(request: HttpRequest) -> dict[str, str]:
    """Echo HTTP/2+ pseudo-headers into response headers for a 379.

    ``:path`` becomes ``pseudo-echo-path`` etc., so the downstream proxy
    can reconstitute the original request head.
    """
    return {
        PSEUDO_ECHO_PREFIX + name.lstrip(":"): value
        for name, value in request.pseudo_headers.items()
    }


def recover_pseudo_headers(headers: dict[str, str]) -> dict[str, str]:
    """Inverse of :func:`echo_pseudo_headers`."""
    return {
        ":" + name[len(PSEUDO_ECHO_PREFIX):]: value
        for name, value in headers.items()
        if name.startswith(PSEUDO_ECHO_PREFIX)
    }


# ---------------------------------------------------------------------------
# Chunked transfer encoding (byte-exact)
# ---------------------------------------------------------------------------

CRLF = b"\r\n"

#: RFC 9112 §7.1: a chunk size is *only* ``1*HEXDIG``.  ``int(x, 16)``
#: is far laxer — it accepts sign prefixes (``-5`` would drive the
#: decoder's ``_remaining`` negative and silently corrupt its slicing)
#: and ``0x`` prefixes — so the token is validated against this first.
_HEX_SIZE = re.compile(rb"[0-9a-fA-F]+\Z")

#: Upper bound on a size/trailer line the decoder will buffer while
#: waiting for its CRLF.  A peer (or an injected rogue-byte fault) that
#: never sends the CRLF otherwise balloons ``_buffer`` without limit.
MAX_LINE_LENGTH = 8192


class ChunkedEncoder:
    """Encodes body payloads into HTTP/1.1 chunked framing."""

    @staticmethod
    def encode_chunk(data: bytes) -> bytes:
        """One complete chunk: size line, payload, trailing CRLF."""
        if not data:
            raise ValueError("use encode_final for the terminal chunk")
        return b"%x" % len(data) + CRLF + data + CRLF

    @staticmethod
    def encode_final(trailers: Optional[dict[str, str]] = None) -> bytes:
        """The zero-size terminal chunk (optionally with trailers)."""
        out = b"0" + CRLF
        for name, value in (trailers or {}).items():
            out += f"{name}: {value}".encode("ascii") + CRLF
        return out + CRLF

    @classmethod
    def encode_body(cls, data: bytes, chunk_size: int = 4096) -> bytes:
        """A whole body as chunked framing."""
        out = b""
        for offset in range(0, len(data), chunk_size):
            out += cls.encode_chunk(data[offset:offset + chunk_size])
        return out + cls.encode_final()


@dataclass
class ChunkedState:
    """Decoder position — what a PPR proxy must remember (§5.2).

    ``mid_chunk_remaining`` > 0 means the proxy stopped forwarding in the
    middle of a chunk and must *recompute* a chunk header for the
    remaining bytes when replaying; 0 means it stopped at a chunk
    boundary and can reuse original framing.
    """

    bytes_decoded: int = 0
    chunks_completed: int = 0
    mid_chunk_remaining: int = 0
    finished: bool = False


class ChunkedDecoder:
    """An incremental chunked-transfer-encoding decoder.

    Feed arbitrary byte slices; collects payload bytes and tracks exact
    position.  Raises ``ValueError`` on malformed framing.
    """

    _SIZE, _DATA, _DATA_CRLF, _TRAILER, _DONE = range(5)

    def __init__(self):
        self._phase = self._SIZE
        self._buffer = b""
        self._remaining = 0
        self.payload = bytearray()
        self.state = ChunkedState()

    def feed(self, data: bytes) -> bytes:
        """Consume bytes; returns newly decoded payload bytes."""
        if self._phase == self._DONE:
            if not data:
                return b""
            raise ValueError("decoder already finished")
        self._buffer += data
        produced = bytearray()
        while True:
            if self._phase == self._SIZE:
                if CRLF not in self._buffer:
                    if len(self._buffer) > MAX_LINE_LENGTH:
                        raise ValueError(
                            f"chunk size line exceeds {MAX_LINE_LENGTH} "
                            f"bytes without CRLF")
                    break
                line, self._buffer = self._buffer.split(CRLF, 1)
                size_token = line.split(b";", 1)[0].strip()
                if not _HEX_SIZE.match(size_token):
                    raise ValueError(f"bad chunk size line {line!r}")
                size = int(size_token, 16)
                if size == 0:
                    self._phase = self._TRAILER
                else:
                    self._remaining = size
                    self._phase = self._DATA
            elif self._phase == self._DATA:
                if not self._buffer:
                    break
                take = min(self._remaining, len(self._buffer))
                piece, self._buffer = self._buffer[:take], self._buffer[take:]
                produced += piece
                self.payload += piece
                self._remaining -= take
                self.state.bytes_decoded += take
                if self._remaining == 0:
                    self._phase = self._DATA_CRLF
            elif self._phase == self._DATA_CRLF:
                if len(self._buffer) < 2:
                    break
                if self._buffer[:2] != CRLF:
                    raise ValueError("missing CRLF after chunk data")
                self._buffer = self._buffer[2:]
                self.state.chunks_completed += 1
                self._phase = self._SIZE
            elif self._phase == self._TRAILER:
                if CRLF not in self._buffer:
                    if len(self._buffer) > MAX_LINE_LENGTH:
                        raise ValueError(
                            f"trailer line exceeds {MAX_LINE_LENGTH} "
                            f"bytes without CRLF")
                    break
                line, self._buffer = self._buffer.split(CRLF, 1)
                if line == b"":
                    self._phase = self._DONE
                    self.state.finished = True
                    break
                # else: a trailer header line; ignore its contents.
            else:  # pragma: no cover - DONE handled above
                break
        self.state.mid_chunk_remaining = (
            self._remaining if self._phase == self._DATA else 0)
        return bytes(produced)

    @property
    def finished(self) -> bool:
        return self.state.finished

    def reframe_remaining(self, remaining_payload: bytes) -> bytes:
        """Re-encode not-yet-forwarded payload for replay to a new server.

        Handles the §5.2 corner case: if we stopped mid-chunk, the
        original chunk header no longer matches what is left, so a fresh
        header must be computed; at a boundary the body can be re-chunked
        from scratch safely either way.
        """
        if not remaining_payload:
            return ChunkedEncoder.encode_final()
        return (ChunkedEncoder.encode_chunk(remaining_payload)
                + ChunkedEncoder.encode_final())
