"""Simulated networking substrate: kernels, sockets, hosts, links.

Models exactly the kernel semantics the paper's mechanisms depend on:
refcounted open-file-descriptions (``dup``/``SCM_RIGHTS``), shared accept
queues, SO_REUSEPORT rings with flow-hash demux, TCP handshakes/FIN/RST,
UDP datagram delivery, and UNIX domain sockets with ancillary-FD passing.
"""

from .addresses import Endpoint, FourTuple, Protocol, VIP, stable_hash
from .cpu import CpuCosts, CpuModel
from .errors import (
    BindError,
    ConnectionRefusedSim,
    ConnectionResetSim,
    NetSimError,
    ProcessDeadError,
    SocketClosedSim,
)
from .filetable import FileDescription, FileTable
from .host import Host
from .kernel import Kernel
from .network import (
    EDGE_ORIGIN,
    INTRA_DC,
    LOOPBACK,
    WAN_CLIENT_EDGE,
    LinkProfile,
    Network,
)
from .packet import ControlType, Datagram, StreamControl, StreamMessage
from .proc_utils import TIMED_OUT, with_timeout
from .process import ProcessExit, SimProcess
from .reuseport import ReusePortGroup
from .sockets import TcpConnection, TcpEndpoint, TcpListenSocket, UdpSocket
from .unix import UnixChannelEnd, UnixListener, UnixMessage

__all__ = [
    "Endpoint", "FourTuple", "Protocol", "VIP", "stable_hash",
    "CpuCosts", "CpuModel",
    "BindError", "ConnectionRefusedSim", "ConnectionResetSim",
    "NetSimError", "ProcessDeadError", "SocketClosedSim",
    "FileDescription", "FileTable",
    "Host", "Kernel",
    "LinkProfile", "Network",
    "WAN_CLIENT_EDGE", "EDGE_ORIGIN", "INTRA_DC", "LOOPBACK",
    "ControlType", "Datagram", "StreamControl", "StreamMessage",
    "TIMED_OUT", "with_timeout",
    "ProcessExit", "SimProcess",
    "ReusePortGroup",
    "TcpConnection", "TcpEndpoint", "TcpListenSocket", "UdpSocket",
    "UnixChannelEnd", "UnixListener", "UnixMessage",
]
