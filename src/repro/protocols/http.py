"""HTTP message model and status codes (including 379).

Message objects (:class:`HttpRequest`, :class:`HttpResponse`) travel
over simulated connections.  Status **379 "PartialPOST"** is the paper's
new code for Partial Post Replay; §5.2 requires checking *both* the code
and the status message before trusting it, because 379 sits in an
unreserved IANA range and a buggy upstream really did emit random codes
in production.

Partial Post Replay is modeled at message granularity: a 379 carries the
size and chunk count of the body the server received, and the proxy
replays its own copy of the request head
(:meth:`HttpRequest.clone_for_replay`).  There is no byte-level chunked
codec.
"""

from __future__ import annotations

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

