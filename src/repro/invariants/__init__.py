"""Global invariant checking for the simulated release machinery.

The paper's three mechanisms are three correctness claims — no misrouted
UDP packets during Socket Takeover (§4.1), no user-visible MQTT
disconnect during DCR (§4.2), exactly-once POST side effects under PPR
(§4.3).  This package turns those claims (plus the kernel-level
bookkeeping they rest on) into machine-checked invariants that run
continuously against any :class:`~repro.cluster.deployment.Deployment`:

* :class:`InvariantSuite` subscribes to its run's announcement channel
  (:mod:`repro.run`) — releases, takeovers, drains, faults, accepts —
  samples the deployment on a fixed cadence, and collects
  :class:`InvariantViolation` records.
* :mod:`repro.invariants.checkers` holds the concrete checkers; see
  ``CHECKERS`` for the registry.

Always-on mode: the experiment harness builders put a suite on every
deployment's ``RunRecord.suite``, and the harness hands the record back
on ``ExperimentResult.runs``, where the experiments CLI finalizes it
per figure.  The tier-1 ``_invariant_guard`` (``tests/conftest.py``)
sees every topology a test builds and finalizes the same suites, so
the tier-1 tests double as invariant tests.
"""

from .base import InvariantChecker, InvariantSuite, InvariantViolation
from .checkers import CHECKERS, default_checkers, make_checkers

__all__ = [
    "CHECKERS",
    "InvariantChecker",
    "InvariantSuite",
    "InvariantViolation",
    "default_checkers",
    "make_checkers",
]
