"""Wire units: datagrams and stream messages.

The simulation does not model individual bytes on the wire; it models
*messages* (application-meaningful units) and *datagrams* (UDP packets).
Each carries a nominal ``size`` in bytes so links can charge serialization
delay and experiments can count bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .addresses import FourTuple

__all__ = ["Datagram", "StreamMessage", "ControlType", "StreamControl"]

@dataclass(slots=True)
class Datagram:
    """A UDP datagram in flight."""

    flow: FourTuple
    payload: Any
    size: int = 100
    #: Optional connection id (QUIC-style) readable by user-space routers.
    connection_id: Optional[int] = None


@dataclass(slots=True)
class StreamMessage:
    """One application message on an established TCP connection."""

    payload: Any
    size: int = 100


class ControlType:
    """In-band control markers on a TCP stream."""

    FIN = "FIN"
    RST = "RST"


@dataclass(slots=True)
class StreamControl:
    """A FIN or RST delivered in-order on a connection's receive queue."""

    kind: str
