"""Simulated OS processes: file tables, owned connections, task cleanup."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..simkernel.events import Process
from .errors import ProcessDeadError
from .filetable import FileTable

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host
    from .sockets import TcpEndpoint

__all__ = ["SimProcess", "ProcessExit"]


class ProcessExit:
    """Interrupt cause delivered to a process's tasks when it exits."""

    def __init__(self, process: "SimProcess", reason: str):
        self.process = process
        self.reason = reason

    def __repr__(self) -> str:
        return f"ProcessExit({self.process.name}, {self.reason!r})"


class SimProcess:
    """An OS process on a simulated host.

    Owns a file table (sockets close when the process dies), the set of
    established TCP endpoints it has accepted or opened (they are RST on
    exit — what end users experience when a draining instance is
    terminated), and the simulation tasks running its logic (interrupted
    on exit).
    """

    def __init__(self, host: "Host", name: str):
        self.host = host
        self.name = name
        self.alive = True
        self.exit_reason: Optional[str] = None
        self.fd_table = FileTable()
        # Insertion-ordered (dict-as-set): exit() aborts endpoints in a
        # deterministic order; a real set of identity-hashed objects
        # would reorder the abort events from run to run.
        self._endpoints: dict["TcpEndpoint", None] = {}
        self._tasks: list[Process] = []
        self._sweep_tasks_at = 64
        #: Resident memory attributable to this process (model units).
        self.base_memory = 0.0
        self.memory_per_connection = 0.0

    # -- task management -----------------------------------------------------

    def run(self, generator: Generator) -> Process:
        """Start a simulation task belonging to this process."""
        if not self.alive:
            raise ProcessDeadError(f"{self.name} has exited")
        task = self.host.env.process(generator)
        self._tasks.append(task)
        if len(self._tasks) > self._sweep_tasks_at:
            # Sweep out finished tasks: amortised O(1), and no callback
            # on the task — a finish somebody waits on is a scheduled event.
            self._tasks = [t for t in self._tasks if t.is_alive]
            self._sweep_tasks_at = max(64, 2 * len(self._tasks))
        return task

    # -- connection ownership ----------------------------------------------------

    def adopt_endpoint(self, endpoint: "TcpEndpoint") -> None:
        self._endpoints[endpoint] = None

    def forget_endpoint(self, endpoint: "TcpEndpoint") -> None:
        self._endpoints.pop(endpoint, None)

    @property
    def connection_count(self) -> int:
        return len(self._endpoints)

    def connections(self) -> list["TcpEndpoint"]:
        return list(self._endpoints)

    # -- memory ---------------------------------------------------------------

    def memory_usage(self) -> float:
        """Model resident memory: base + per-connection state."""
        return self.base_memory + self.memory_per_connection * self.connection_count

    # -- lifecycle ---------------------------------------------------------------

    def exit(self, reason: str = "exit") -> None:
        """Terminate: RST owned connections, close FDs, interrupt tasks.

        Closing FDs drops references; sockets whose descriptions are
        still referenced elsewhere (passed to a successor during Socket
        Takeover) survive — the heart of the zero-downtime restart.
        """
        if not self.alive:
            return
        self.alive = False
        self.exit_reason = reason
        for endpoint in list(self._endpoints):
            endpoint.abort(reason="process_exit")
        self._endpoints.clear()
        self.fd_table.close_all()
        active = self.host.env.active_process
        for task in self._tasks:
            if task.is_alive and task is not active:
                task.interrupt(ProcessExit(self, reason))
        self._tasks.clear()

    def __repr__(self) -> str:
        state = "alive" if self.alive else f"dead({self.exit_reason})"
        return f"<SimProcess {self.name} {state}>"
