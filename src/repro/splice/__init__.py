"""The splice fast path: bulk transfers skip per-chunk simulation.

The paper's XLB tier *splices* established connections into the kernel
so bulk bytes never touch userspace (§4.1): once a connection is set up
and no release mechanism needs to see individual bytes, the data plane
collapses to a zero-copy pipe.  This package models the same move for
the simulator itself — the per-chunk event train of an established
transfer (client pacing timeouts, per-chunk transmits, per-chunk proxy
relay iterations, per-chunk CPU scheduling) is the #1 cost of
figure-scale runs, and none of it changes *what* a quiescent transfer
delivers, only how many simulator events it takes to deliver it.

Fidelity rules
--------------
* **Byte totals and message counts fold exactly.**  A spliced transfer
  moves the same bytes as its per-chunk equivalent in one
  :class:`~repro.protocols.http.BodyChunk` carrying the whole train
  (``chunks`` records how many frames it stands for); every counter a
  relay increments per *request* or per *byte* is unchanged, and
  per-chunk CPU cost is folded into one scaled charge.
* **Mechanism windows always see per-chunk fidelity.**  The governor
  disengages while any release walk targets the deployment, any
  fault window is open or a region is being evacuated — takeover,
  DCR, PPR and fault injection operate on exactly the event stream
  they were built against.
  In-flight bulk transfers *de-splice*: the governor's wake event
  interrupts them, the bytes virtually sent so far are flushed as one
  catch-up chunk, and the remainder streams per-chunk.
* **Timing is approximate, outcomes are not.**  A spliced transfer
  completes at the closed-form time of its pacing (identical) plus one
  network traversal per hop instead of one per chunk; completion
  *outcomes* (which requests succeed, every counter) are preserved —
  the differential suite in ``tests/splice`` proves snapshot equality
  on finite-work runs.

The governor deliberately keeps its own statistics as plain integers
(:meth:`SpliceGovernor.stats`) instead of metrics counters: the metrics
snapshot of a splice-on run must stay bit-identical to the splice-off
run, so the fast path may not leave fingerprints there.

The governor hears every mechanism window of its own run on the run's
channel (:mod:`repro.run`): whatever announces ``release_*``,
``fault_*`` or ``evacuation_*`` ``_begin`` / ``_end`` suspends and
resumes it, and nothing outside this package calls
:meth:`SpliceGovernor.suspend` / :meth:`~SpliceGovernor.resume`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..run import WINDOW_KINDS

__all__ = ["MIN_BULK_BYTES", "SpliceConfig", "SpliceGovernor"]


#: Minimum body size (bytes) worth collapsing; tiny transfers do not
#: amortize the bookkeeping.
MIN_BULK_BYTES = 128_000


@dataclass(frozen=True)
class SpliceConfig:
    """Presence on a spec (or the run options) turns the splice fast
    path on; ``None`` there keeps per-chunk fidelity everywhere."""


class SpliceGovernor:
    """Deployment-scoped arbiter of when splicing is allowed.

    ``engaged`` is the one-attribute-read hot-path test; it is true only
    while no release walk runs in this environment and no fault window
    is open.  Components that parked a bulk transfer subscribe to
    :meth:`wake` so a mechanism boundary de-splices them mid-flight.
    """

    def __init__(self, env):
        self.env = env
        #: Open suspension windows by kind ("release", "fault", ...).
        self._suspended: dict[str, int] = {}
        self.engaged = True
        self._wake = env.event()
        #: Plain-int statistics (never metrics counters — see module
        #: docstring).
        self.bulk_transfers = 0
        self.bulk_bytes = 0
        self.chunks_elided = 0
        self.desplices = 0
        self.relay_fastpath = 0

    # -- hot-path hooks ----------------------------------------------------

    def bulk_wait(self, delay: float):
        """Wait ``delay`` sim-seconds unless a de-splice arrives first.

        Generator (``yield from``).  Returns ``True`` when the wait ran
        to completion (the transfer stayed spliced) and ``False`` when a
        mechanism boundary woke it early.  The losing event is detached
        so a long run of completed bulk transfers leaves neither dead
        callbacks on the shared wake event nor dead timeouts on the
        scheduler heap (the latter via :meth:`Timeout.cancel
        <repro.simkernel.events.Timeout.cancel>` tombstoning).
        """
        env = self.env
        pacing = env.timeout(delay)
        wake = self._wake
        race = env.any_of([pacing, wake])
        result = yield race
        # The loser still holds the race's check (a condition never
        # removes its own): take it off.
        if pacing in result:
            if wake.callbacks is not None:
                wake.callbacks.remove(race._check)
            return True
        if pacing.callbacks is not None:
            pacing.callbacks.remove(race._check)
            pacing.cancel()
        return False

    def note_bulk(self, size: int, chunks: int) -> None:
        self.bulk_transfers += 1
        self.bulk_bytes += size
        self.chunks_elided += max(0, chunks - 1)

    # -- suspension windows ------------------------------------------------

    def suspend(self, kind: str) -> None:
        """A mechanism window opened: de-splice until it closes."""
        self._suspended[kind] = self._suspended.get(kind, 0) + 1
        if self.engaged:
            self.desplices += 1
            self.engaged = False
            # Wake every parked bulk transfer; new waiters get a fresh
            # event for the *next* boundary.
            wake, self._wake = self._wake, self.env.event()
            wake.succeed("desplice")

    def resume(self, kind: str) -> None:
        count = self._suspended.get(kind, 0) - 1
        if count <= 0:
            self._suspended.pop(kind, None)
        else:
            self._suspended[kind] = count
        self.engaged = not self._suspended

    def on_announce(self, name: str, **_fields) -> None:
        """Run-channel listener (whoever builds the governor subscribes
        it): a mechanism window's two edges suspend and resume."""
        kind, _, edge = name.rpartition("_")
        if kind in WINDOW_KINDS:
            if edge == "begin":
                self.suspend(kind)
            elif edge == "end":
                self.resume(kind)
