"""QUIC-lite: connection IDs and per-flow server state.

The only QUIC properties the paper's mechanisms need are modelled:

* every packet carries a **connection ID** readable without flow state
  (the basis of user-space routing during Socket Takeover, §4.1);
* servers keep **per-connection state**, so a packet landing at a
  process that does not own the connection is a *misrouted* packet —
  the quantity Figures 2d and 10 count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["QuicPacket", "QuicConnectionState", "QuicStateTable",
           "QUIC_PACKET_SIZE"]

QUIC_PACKET_SIZE = 1200


@dataclass
class QuicPacket:
    """A QUIC packet as carried in a simulated UDP datagram payload.

    ``connection_id`` is unique within one run: a client draws it from
    its run's counter, ``next(host.run_record.connection_ids)``.
    """

    connection_id: int
    payload: object = None
    is_initial: bool = False


@dataclass
class QuicConnectionState:
    """Server-side state for one QUIC connection."""

    connection_id: int
    client: object  # client endpoint (opaque to this module)
    created_at: float = 0.0
    packets_received: int = 0
    owner: str = ""


class QuicStateTable:
    """Connection states owned by one server process.

    ``owns`` answers the question the user-space router asks for every
    incoming packet: is this one of *my* connections?
    """

    def __init__(self, owner: str):
        self.owner = owner
        self._connections: dict[int, QuicConnectionState] = {}

    def __len__(self) -> int:
        return len(self._connections)

    def add(self, state: QuicConnectionState) -> None:
        state.owner = self.owner
        self._connections[state.connection_id] = state

    def owns(self, connection_id: int) -> bool:
        return connection_id in self._connections

    def get(self, connection_id: int) -> Optional[QuicConnectionState]:
        return self._connections.get(connection_id)

    def remove(self, connection_id: int) -> None:
        self._connections.pop(connection_id, None)

    def connection_ids(self) -> list[int]:
        return list(self._connections)
