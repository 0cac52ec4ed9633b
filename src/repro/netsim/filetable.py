"""Per-process file tables over refcounted open-file-descriptions.

This is the piece of kernel state Socket Takeover leans on (§4.1, §5.1):

* Passing an FD over a UNIX socket with ``SCM_RIGHTS`` behaves like
  ``dup(2)`` — the receiving process gets a *new descriptor number*
  pointing at the *same open-file-description*, whose reference count is
  bumped.
* The underlying socket only really closes when the last reference goes
  away; "the kernel internally increases their reference counts and keeps
  the underlying sockets alive even after the termination of the
  application process that owns them" — which is both the mechanism that
  makes takeover seamless and the source of the socket-leak pitfall the
  paper describes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .errors import SocketClosedSim

__all__ = ["FileDescription", "FileTable"]


class FileDescription:
    """A refcounted open-file-description wrapping one kernel resource.

    ``resource`` is whatever object the description refers to (a listening
    socket, a UDP socket...).  When the last reference is dropped the
    resource's ``on_last_close()`` hook runs (unregistering the socket
    from the kernel, purging reuseport ring entries, resetting pending
    connections).
    """

    def __init__(self, resource: Any):
        self.resource = resource
        self.refcount = 0
        self.closed = False

    def incref(self) -> "FileDescription":
        if self.closed:
            raise SocketClosedSim("open-file-description already closed")
        self.refcount += 1
        return self

    def decref(self) -> None:
        if self.closed:
            return
        self.refcount -= 1
        if self.refcount <= 0:
            self.closed = True
            hook: Optional[Callable[[], None]] = getattr(
                self.resource, "on_last_close", None)
            if hook is not None:
                hook()

    def __repr__(self) -> str:
        return (f"<FileDescription refs={self.refcount} "
                f"closed={self.closed} resource={self.resource!r}>")


class FileTable:
    """Maps small-integer FDs to file descriptions for one process."""

    def __init__(self):
        self._next_fd = 3  # 0/1/2 are taken, as tradition demands
        self._fds: dict[int, FileDescription] = {}

    def __len__(self) -> int:
        return len(self._fds)

    def fds(self) -> list[int]:
        """All open descriptor numbers, ascending."""
        return sorted(self._fds)

    def install(self, description: FileDescription) -> int:
        """Install a description under a fresh FD (increfs it)."""
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = description.incref()
        return fd

    def description(self, fd: int) -> FileDescription:
        if fd not in self._fds:
            raise SocketClosedSim(f"bad file descriptor {fd}")
        return self._fds[fd]

    def resource(self, fd: int) -> Any:
        """The kernel object behind ``fd``."""
        return self.description(fd).resource

    def close(self, fd: int) -> None:
        """Close one FD (drops a reference)."""
        description = self._fds.pop(fd, None)
        if description is None:
            raise SocketClosedSim(f"bad file descriptor {fd}")
        description.decref()

    def close_all(self) -> None:
        """Close every FD — what the kernel does when a process exits."""
        for fd in list(self._fds):
            description = self._fds.pop(fd)
            description.decref()

    def live_count(self) -> int:
        """Open FDs whose description is still live (leak audits)."""
        return sum(1 for d in self._fds.values() if not d.closed)

    def snapshot(self) -> dict[int, FileDescription]:
        """A point-in-time copy of the table (fd → description).

        The descriptions themselves are shared, not copied: callers use
        this to audit reference counts (e.g. "every reference on an
        open-file-description is accounted for by some live process's
        table entry" — the FD-conservation invariant Socket Takeover
        must preserve).
        """
        return dict(self._fds)

    def find_fd(self, resource: Any) -> Optional[int]:
        """First FD whose description points at ``resource`` (or None)."""
        for fd, description in sorted(self._fds.items()):
            if description.resource is resource:
                return fd
        return None
