"""Checker protocol, violation records, and the per-deployment suite.

Components announce what happens on their run's channel
(:mod:`repro.run`; with nobody subscribed the hot paths pay one
attribute read and a truth test); an attached suite is one subscriber,
so it hears every component of its run — also one grown after it
attached — and no other run's.  Checkers are plain objects — they keep
whatever state they need, receive every event, get sampled on a fixed
sim-time cadence, and run a final pass when the suite is finalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["InvariantChecker", "InvariantSuite", "InvariantViolation"]


@dataclass
class InvariantViolation:
    """One detected invariant break."""

    checker: str
    message: str
    at: float
    details: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.checker}] t={self.at:.3f} {self.message}"


class InvariantChecker:
    """Base class: event sink + periodic sample + final pass.

    Subclasses set ``name`` and override any of :meth:`on_event`,
    :meth:`sample`, :meth:`finalize`.  Violations are recorded through
    :meth:`violation`, which caps the per-checker count so one broken
    invariant cannot flood a fuzz report.
    """

    name = "invariant"
    max_violations = 100

    def __init__(self) -> None:
        self.suite: Optional["InvariantSuite"] = None
        self.violations: list[InvariantViolation] = []

    # -- wiring ----------------------------------------------------------

    def attach(self, suite: "InvariantSuite") -> None:
        self.suite = suite

    @property
    def deployment(self):
        return self.suite.deployment

    @property
    def now(self) -> float:
        return self.suite.deployment.env.now

    def violation(self, message: str, **details: Any) -> None:
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(InvariantViolation(
            checker=self.name, message=message, at=self.now,
            details=details))

    # -- hooks -----------------------------------------------------------

    def on_event(self, event: str, **fields: Any) -> None:
        """Something was announced on the deployment's run channel."""

    def sample(self) -> None:
        """Periodic whole-deployment inspection."""

    def finalize(self) -> None:
        """End-of-run pass (the run's processes are quiesced)."""


#: Seconds between whole-deployment samples.  Deliberately not a whole
#: number: it avoids resonating with the integer-second cadence most
#: harness events use, so samples land between state transitions rather
#: than exactly on them.
SAMPLE_INTERVAL = 0.997


class InvariantSuite:
    """All checkers attached to one deployment."""

    def __init__(self, deployment, checkers: Optional[list] = None):
        # Imported lazily to avoid a module cycle and keep the
        # dependency direction (base <- checkers) obvious.
        from .checkers import default_checkers
        self.deployment = deployment
        self.env = deployment.env
        self.checkers: list[InvariantChecker] = (
            checkers if checkers is not None else default_checkers())
        self._attached = False
        self._finalized = False
        for checker in self.checkers:
            checker.attach(self)

    # -- wiring ----------------------------------------------------------

    def attach(self) -> "InvariantSuite":
        """Subscribe to the run's channel and start sampling;
        idempotent."""
        if self._attached:
            return self
        self._attached = True
        self.deployment.run_record.subscribe(self._on_announce)
        self.env.process(self._sample_loop())
        return self

    def _on_announce(self, event: str, **fields: Any) -> None:
        """Channel listener, until the suite is finalized: a release
        generator collected after its run still announces its
        ``release_end``."""
        if not self._finalized:
            self.record(event, **fields)

    def _sample_loop(self):
        while True:
            yield self.env.timeout(SAMPLE_INTERVAL)
            self.sample()

    # -- event fan-out ----------------------------------------------------

    def record(self, event: str, **fields: Any) -> None:
        """Dispatch one announcement to every checker."""
        for checker in self.checkers:
            checker.on_event(event, **fields)

    def sample(self) -> None:
        for checker in self.checkers:
            checker.sample()

    def finalize(self) -> list[InvariantViolation]:
        """Run the end-of-run passes; return all violations."""
        if not self._finalized:
            self._finalized = True
            for checker in self.checkers:
                checker.finalize()
        return self.violations

    # -- views ------------------------------------------------------------

    @property
    def violations(self) -> list[InvariantViolation]:
        out: list[InvariantViolation] = []
        for checker in self.checkers:
            out.extend(checker.violations)
        out.sort(key=lambda v: (v.at, v.checker))
        return out

    def checker_names(self) -> list[str]:
        return [checker.name for checker in self.checkers]
