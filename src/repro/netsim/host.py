"""A simulated machine: kernel + CPU + processes + metrics scope."""

from __future__ import annotations

from typing import Optional

from ..metrics.registry import MetricsRegistry
from ..run import run_of
from ..simkernel.core import Environment
from ..simkernel.rng import RandomStreams
from .addresses import stable_hash
from .cpu import CpuModel
from .kernel import Kernel
from .network import Network
from .process import SimProcess
from .unix import UnixListener, unix_connect, unix_listen

__all__ = ["Host"]


class Host:
    """One machine in a site (Edge PoP, Origin DC, or a client location)."""

    def __init__(self, env: Environment, network: Network, name: str,
                 ip: str, site: str, metrics: MetricsRegistry,
                 streams: Optional[RandomStreams] = None,
                 cores: int = 8, core_speed: float = 100.0,
                 cpu_bucket_width: float = 1.0):
        self.env = env
        #: What this run's components share (repro.run): the tracer, the
        #: splice governor and the channel mechanism windows are
        #: announced on.
        self.run_record = run_of(env)
        self.network = network
        self.name = name
        self.ip = ip
        self.site = site
        self.metrics = metrics
        self.counters = metrics.scoped_counters(name)
        self.streams = streams or RandomStreams(stable_hash(name))
        #: Per-host salt so different hosts shuffle their reuseport rings
        #: differently (as real kernels effectively do).
        self.reuseport_salt = stable_hash("reuseport", name)
        self.kernel = Kernel(self)
        self.cpu = CpuModel(env, cores=cores, speed=core_speed,
                            bucket_width=cpu_bucket_width)
        self.unix_namespace: dict[str, UnixListener] = {}
        self.processes: list[SimProcess] = []
        #: The network's route memo for sends from this host
        #: (destination IP -> route, :meth:`Network.transmit`).
        self.routes: dict[str, tuple] = {}
        network.register(self)

    # -- processes ------------------------------------------------------------

    def spawn(self, name: str) -> SimProcess:
        """Create a new OS process on this host."""
        process = SimProcess(self, name)
        self.processes.append(process)
        return process

    def live_processes(self) -> list[SimProcess]:
        return [p for p in self.processes if p.alive]

    def memory_usage(self) -> float:
        """Total model memory of live processes."""
        return sum(p.memory_usage() for p in self.live_processes())

    # -- unix domain sockets ----------------------------------------------------

    def unix_listen(self, process: SimProcess, path: str) -> UnixListener:
        return unix_listen(self, process, path)

    def unix_connect(self, process: SimProcess, path: str):
        return unix_connect(self, process, path)

    def __repr__(self) -> str:
        return f"<Host {self.name} ip={self.ip} site={self.site}>"
