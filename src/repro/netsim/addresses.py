"""Addresses, endpoints and flow four-tuples."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum

__all__ = ["Protocol", "Endpoint", "FourTuple", "VIP", "stable_hash"]


class Protocol(str, Enum):
    """Transport protocols the simulated kernel understands."""

    TCP = "tcp"
    UDP = "udp"


@dataclass(frozen=True, order=True)
class Endpoint:
    """An (ip, port) endpoint.  IPs are opaque strings (e.g. "10.0.1.3")."""

    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass(frozen=True)
class FourTuple:
    """A flow identifier: protocol + source and destination endpoints."""

    protocol: Protocol
    src: Endpoint
    dst: Endpoint

    def __str__(self) -> str:
        return f"{self.protocol.value} {self.src} -> {self.dst}"


@dataclass(frozen=True)
class VIP:
    """A virtual IP for one service (paper: "each VIP of service").

    The L4LB announces VIPs; every L7LB instance binds listeners for each
    VIP it serves.  ``name`` is a human label like ``"https"`` or
    ``"quic"``.
    """

    name: str
    endpoint: Endpoint
    protocol: Protocol

    def __str__(self) -> str:
        return f"{self.name}({self.protocol.value}@{self.endpoint})"


def stable_hash(*parts) -> int:
    """A process-stable 32-bit hash (Python's ``hash`` is salted per run).

    Used wherever the real kernel would hash flow tuples: the
    SO_REUSEPORT socket ring and consistent-hash rings both derive from
    this.
    """
    data = "\x1f".join(map(str, parts)).encode("utf-8")
    return zlib.crc32(data) & 0xFFFFFFFF
