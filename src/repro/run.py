"""The run record: what the components of one run share.

Every simulation run has exactly one :class:`RunRecord`, found from its
environment with :func:`run_of`.  It carries the run's resolved
:class:`~repro.options.RunOptions`, its trace collector, its splice
governor (``None`` when the feature is off, so a hot path pays one
attribute read and a ``None`` test), the invariant suite a harness
attached, the counters its request and connection ids come from (so a
run draws the same ids whatever ran before it in the process) and one
event channel: whatever opens or closes a mechanism window — a release
walk, a socket takeover, a drain, a fault, an evacuation, an
autoscaling decision — or accepts a connection says so once with
:meth:`RunRecord.announce`, and whoever cares (invariant suite, trace
collector, splice governor, cohort set) hears it through one
:meth:`RunRecord.subscribe`.  Nobody wires a component to a listener: a
server grown mid-run announces to the same record as the ones built
first.

``cluster.base.Topology`` creates the record before any component and
hands it to every open ``options.use()`` block; a bare test world gets
one on first use, with no options in force.

This module imports nothing from ``repro`` so every layer may import it.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Callable

__all__ = ["WINDOW_KINDS", "RunRecord", "run_of"]

#: ``<kind>_begin`` … ``<kind>_end`` announcements bracket a mechanism
#: window: inside one the model runs at full fidelity (the governor
#: de-splices, aggregate cohorts condense).
WINDOW_KINDS = ("release", "fault", "evacuation")

# Both sides are weak.  A record holds its listeners, tracer and
# governor, each of which holds the environment, so a strong value would
# pin its own key (and with it every run of the process); held weakly,
# an entry dies with its run and nobody unhooks.  The run's own objects
# keep the record alive: every host, release and listener holds it.
_records_by_env: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class RunRecord:
    """Options, tracer, splice governor, invariant suite, id counters
    and event channel of one run."""

    __slots__ = ("options", "tracer", "splice", "suite", "listeners",
                 "request_ids", "connection_ids", "__weakref__")

    def __init__(self) -> None:
        #: The run's resolved RunOptions (None in a bare test world).
        self.options = None
        #: The run's repro.trace.TraceCollector, or None.
        self.tracer = None
        #: The run's repro.splice.SpliceGovernor, or None.
        self.splice = None
        #: The always-on repro.invariants.InvariantSuite a harness
        #: builder attached, or None; finalized by whoever opened the
        #: ``options.use()`` block the run was built in.
        self.suite = None
        #: Called as ``listener(name, **fields)`` in subscription order.
        #: Per-connection announcers test this list first, so with
        #: nobody listening an accept costs a read and a truth test.
        self.listeners: list[Callable[..., None]] = []
        #: This run's ids: ``next(record.request_ids)`` numbers an
        #: HttpRequest, ``next(record.connection_ids)`` a QUIC
        #: connection.  Every run counts from the same start.
        self.request_ids = itertools.count(1)
        self.connection_ids = itertools.count(0x1000)

    def subscribe(self, listener: Callable[..., None]) -> None:
        """Hear every later announcement of this run, whoever makes it
        (components built after the subscription included)."""
        self.listeners.append(listener)

    def announce(self, name: str, **fields: Any) -> None:
        """Tell every listener that ``name`` happened, now.

        Scalar fields describe the event (the trace log keeps those);
        object-valued fields hand checkers the thing itself.
        """
        for listener in self.listeners:
            listener(name, **fields)


def run_of(env) -> RunRecord:
    """The record of the run ``env`` drives, created on first use.
    Hold what you get: the table does not."""
    ref = _records_by_env.get(env)
    record = ref() if ref is not None else None
    if record is None:
        record = RunRecord()
        _records_by_env[env] = weakref.ref(record)
    return record
