"""File table / open-file-description refcount semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim import FileDescription, FileTable, SocketClosedSim


class FakeResource:
    def __init__(self):
        self.closed = False

    def on_last_close(self):
        self.closed = True


def test_install_and_close():
    table = FileTable()
    resource = FakeResource()
    fd = table.install(FileDescription(resource))
    assert table.resource(fd) is resource
    table.close(fd)
    assert resource.closed


def test_close_bad_fd():
    table = FileTable()
    with pytest.raises(SocketClosedSim):
        table.close(42)


def test_cross_table_sharing_like_scm_rights():
    sender, receiver = FileTable(), FileTable()
    resource = FakeResource()
    description = FileDescription(resource)
    fd = sender.install(description)
    receiver.install(sender.description(fd))
    sender.close_all()
    assert not resource.closed   # receiver still references it
    receiver.close_all()
    assert resource.closed


def test_close_all_idempotent():
    table = FileTable()
    table.install(FileDescription(FakeResource()))
    table.close_all()
    table.close_all()
    assert len(table) == 0


def test_install_closed_description_rejected():
    table = FileTable()
    description = FileDescription(FakeResource())
    fd = table.install(description)
    table.close(fd)
    with pytest.raises(SocketClosedSim):
        table.install(description)


def test_find_fd():
    table = FileTable()
    a, b = FakeResource(), FakeResource()
    fd_a = table.install(FileDescription(a))
    fd_b = table.install(FileDescription(b))
    assert table.find_fd(a) == fd_a
    assert table.find_fd(b) == fd_b
    assert table.find_fd(FakeResource()) is None


def test_fds_are_unique_and_ascending():
    table = FileTable()
    fds = [table.install(FileDescription(FakeResource())) for _ in range(10)]
    assert fds == sorted(set(fds))


@given(st.lists(st.sampled_from(["install", "dup", "close", "pass"]),
                min_size=1, max_size=60))
def test_refcount_invariant_under_random_ops(ops):
    """Property: a resource closes exactly when its last FD (across all
    tables) is closed — never before, never survives beyond."""
    tables = [FileTable(), FileTable()]
    resource = FakeResource()
    description = FileDescription(resource)
    open_fds: list[tuple[int, int]] = []  # (table_idx, fd)
    first = tables[0].install(description)
    open_fds.append((0, first))

    for op in ops:
        if resource.closed:
            break
        if op == "install":
            fd = tables[0].install(description)
            open_fds.append((0, fd))
        elif op == "dup" and open_fds:
            t, fd = open_fds[0]
            fd2 = tables[t].install(tables[t].description(fd))  # dup(2)
            open_fds.append((t, fd2))
        elif op == "pass" and open_fds:
            t, fd = open_fds[0]
            fd2 = tables[1 - t].install(tables[t].description(fd))
            open_fds.append((1 - t, fd2))
        elif op == "close" and open_fds:
            t, fd = open_fds.pop()
            tables[t].close(fd)
        # Invariant: closed iff no FDs remain.
        assert resource.closed == (len(open_fds) == 0)

    # Drain the rest.
    while open_fds:
        t, fd = open_fds.pop()
        tables[t].close(fd)
    assert resource.closed
