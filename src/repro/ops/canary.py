"""Canary analysis gating a rolling release.

The :class:`CanaryController` plugs into ``RollingRelease`` through the
orchestrator's gate hook: after each gated batch finishes restarting, it
watches the just-released machines (the canary group) against the
not-yet-released remainder of the fleet (the control group) for a
judgment window, then votes ``proceed`` or ``abort``.  An abort makes
the orchestrator stop the rollout and (if configured) roll the released
machines back — turning a bad binary into a one-batch incident instead
of a fleet-wide one.

Judgment is a pure counter comparison (:func:`judge_window`), so the
verdict is deterministic and auditable from the recorded decision list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["CanaryConfig", "CanaryController", "default_canary_gate",
           "judge_window"]

#: ``http_status`` tags that count as request failures for canary
#: purposes.  503 is deliberately excluded: it signals backpressure
#: (load), which the control group shares, not binary badness.
ERROR_STATUS_TAGS = ("500", "400", "rogue")

#: How many low-traffic holds before giving the canary the benefit of
#: the doubt and proceeding.
MAX_HOLDS = 2
#: Absolute canary error-ratio floor below which we never abort.
ERROR_RATIO_THRESHOLD = 0.05
#: Abort when the canary's error ratio exceeds this multiple of the
#: control group's (whichever of the two bars is higher wins).
REGRESSION_FACTOR = 3.0
#: Judge only batch indexes below this (1 = classic "first batch is the
#: canary").
GATE_BATCHES = 1


@dataclass
class CanaryConfig:
    """Judgment policy for one release."""

    #: How long to observe canary vs control before voting.
    judgment_window: float = 5.0
    #: Extra wait between re-judgments when the canary saw too little
    #: traffic to call.
    hold_window: float = 2.5
    #: Minimum canary-group requests (ok + err) needed for a verdict.
    min_requests: float = 5.0

    def validate(self) -> None:
        if self.judgment_window <= 0 or self.hold_window <= 0:
            raise ValueError("windows must be positive")
        if self.min_requests < 0:
            raise ValueError("min_requests must be >= 0")


def judge_window(canary_ok: float, canary_err: float, control_ok: float,
                 control_err: float):
    """Pure verdict over one observation window.

    Returns ``(verdict, canary_ratio, control_ratio)`` where verdict is
    ``"abort"`` or ``"proceed"``.  The abort bar is the *higher* of the
    absolute threshold and :data:`REGRESSION_FACTOR` × the control group's
    own error ratio, so a fleet-wide burn (shared dependency down) does
    not scapegoat the canary.
    """
    canary_total = canary_ok + canary_err
    control_total = control_ok + control_err
    canary_ratio = canary_err / canary_total if canary_total else 0.0
    control_ratio = control_err / control_total if control_total else 0.0
    bar = max(ERROR_RATIO_THRESHOLD, REGRESSION_FACTOR * control_ratio)
    verdict = "abort" if canary_ratio > bar else "proceed"
    return verdict, canary_ratio, control_ratio


def _probe(targets):
    """Sum (ok, err) request counters across release targets."""
    ok = err = 0.0
    for target in targets:
        counters = getattr(target, "counters", None)
        if counters is None:
            continue
        ok += counters.get("http_status", tag="200")
        for tag in ERROR_STATUS_TAGS:
            err += counters.get("http_status", tag=tag)
        err += counters.get("responses_truncated")
    return ok, err


class CanaryController:
    """Release gate implementing windowed canary-vs-control analysis."""

    def __init__(self, env, config: Optional[CanaryConfig] = None,
                 metrics=None):
        self.env = env
        self.config = config or CanaryConfig()
        self.config.validate()
        self.counters = (metrics.scoped_counters("ops-canary")
                         if metrics is not None else None)
        self.decisions: list[dict] = []

    # -- gate protocol ----------------------------------------------------

    def review(self, release, batch, record):
        """Generator: observe one finished batch, return its verdict.

        ``batch`` is the list of just-released targets, ``record`` the
        orchestrator's BatchRecord for it.  Returns ``"proceed"`` or
        ``"abort"``.
        """
        config = self.config
        if record.index >= GATE_BATCHES:
            return "proceed"

        canary = [t for t in batch if _name(t) not in release.failed_targets]
        control = self._control_group(release, batch)
        if not canary or not control:
            # Nothing to compare against (last batch, or the whole
            # batch already failed its guards) — the gate abstains.
            return self._decide(record, "proceed", "no_comparison",
                                0.0, 0.0, 0.0, 0.0)

        holds = 0
        while True:
            canary_before = _probe(canary)
            control_before = _probe(control)
            yield self.env.timeout(config.judgment_window)
            canary_after = _probe(canary)
            control_after = _probe(control)
            canary_ok = canary_after[0] - canary_before[0]
            canary_err = canary_after[1] - canary_before[1]
            control_ok = control_after[0] - control_before[0]
            control_err = control_after[1] - control_before[1]

            if canary_ok + canary_err < config.min_requests:
                if holds >= MAX_HOLDS:
                    return self._decide(
                        record, "proceed", "insufficient_samples",
                        canary_ok, canary_err, control_ok, control_err)
                holds += 1
                self._inc("hold")
                yield self.env.timeout(config.hold_window)
                continue

            verdict, canary_ratio, control_ratio = judge_window(
                canary_ok, canary_err, control_ok, control_err)
            reason = ("error_ratio" if verdict == "abort"
                      else "within_threshold")
            return self._decide(record, verdict, reason, canary_ok,
                                canary_err, control_ok, control_err,
                                canary_ratio=canary_ratio,
                                control_ratio=control_ratio)

    # -- internals --------------------------------------------------------

    @staticmethod
    def _control_group(release, batch):
        """Targets untouched by the release so far: not released, not
        failed, and not part of the batch under judgment."""
        touched = (set(release.completed_targets)
                   | set(release.failed_targets)
                   | {_name(t) for t in batch})
        return [t for t in release.targets if _name(t) not in touched]

    def _decide(self, record, verdict, reason, canary_ok, canary_err,
                control_ok, control_err, canary_ratio=0.0,
                control_ratio=0.0):
        self.decisions.append({
            "at": self.env.now,
            "batch": record.index,
            "verdict": verdict,
            "reason": reason,
            "canary_ok": canary_ok,
            "canary_err": canary_err,
            "control_ok": control_ok,
            "control_err": control_err,
            "canary_ratio": canary_ratio,
            "control_ratio": control_ratio,
        })
        self._inc(verdict)
        return verdict

    def _inc(self, name: str) -> None:
        if self.counters is not None:
            self.counters.inc(name)


def default_canary_gate(release) -> CanaryController:
    """``RunOptions.release_gate`` factory behind the CLI's ``--canary``
    (module-level, so the options pickle): default judgment settings."""
    return CanaryController(release.env, CanaryConfig())


def _name(target) -> str:
    return getattr(target, "name", str(target))
