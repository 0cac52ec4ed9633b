"""Rolling release orchestration (§2.3, §6.1).

"Operators rely on over-provisioning the deployments and incrementally
release updates to subsets of machines in batches."  The orchestrator
restarts targets batch by batch; how disruptive that is depends entirely
on each target's restart strategy (Zero Downtime vs HardRestart vs the
app tier's drain-and-replace).

Hardening (the fault-injection companion, :mod:`repro.faults`): a batch
can be bounded by ``batch_timeout``, failed targets are retried with
exponential backoff up to ``max_attempts``, and once permanent failures
exceed ``error_budget`` the release aborts — optionally rolling the
already-released targets back in reverse order.

A release belongs to the run its environment drives (:mod:`repro.run`):
``execute()`` announces ``release_begin`` / ``release_end`` on that
run's channel and nowhere else, and a release built without a gate
takes the gate factory from that run's options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..netsim.proc_utils import TIMED_OUT, with_timeout
from ..run import run_of
from ..simkernel.core import Environment
from ..simkernel.events import Interrupt

__all__ = ["BatchRecord", "RollingRelease", "RollingReleaseConfig"]


@dataclass
class RollingReleaseConfig:
    """How a rolling release walks the fleet."""

    #: Fraction of targets restarted concurrently (paper: 5%–20%).
    batch_fraction: float = 0.20
    #: Idle gap between batches (the minute-57 / 80–83 gaps of Fig 3a).
    inter_batch_gap: float = 0.0
    #: Extra wait after each batch completes before the next starts
    #: (production waits out the drain to preserve capacity).
    post_batch_wait: float = 0.0
    #: Deadline for one batch attempt; stragglers are interrupted and
    #: count as failures for that attempt (None = wait forever).
    batch_timeout: Optional[float] = None
    #: Release attempts per batch (1 = no retry).
    max_attempts: int = 1
    #: Idle wait before the first retry of a batch...
    retry_backoff: float = 5.0
    #: ...multiplied by this factor for each further retry.
    backoff_factor: float = 2.0
    #: Permanently-failed targets tolerated before the release aborts
    #: (None = keep going no matter what; 0 = abort on the first).
    error_budget: Optional[int] = None
    #: On abort, re-release the already-completed targets in reverse
    #: order (the "roll back to the old version" arm).
    rollback_on_abort: bool = False

    def batches(self, count: int) -> int:
        if not 0 < self.batch_fraction <= 1:
            raise ValueError("batch_fraction must be in (0, 1]")
        return max(1, math.ceil(count * self.batch_fraction))

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.retry_backoff < 0 or self.backoff_factor <= 0:
            raise ValueError("retry backoff settings must be positive")
        if self.batch_timeout is not None and self.batch_timeout <= 0:
            raise ValueError("batch_timeout must be positive")
        if self.error_budget is not None and self.error_budget < 0:
            raise ValueError("error_budget must be >= 0")


@dataclass
class BatchRecord:
    """Timing record of one executed batch."""

    index: int
    targets: list[str]
    started_at: float
    finished_at: float = 0.0
    #: Release attempts this batch consumed (1 = first try succeeded).
    attempts: int = 1
    #: Targets still failed after the last attempt.
    failed: list[str] = field(default_factory=list)
    #: Whether any attempt hit the batch deadline.
    timed_out: bool = False


class RollingRelease:
    """Executes one release over a list of restartable targets.

    A target is anything exposing ``release()`` (ProxygenServer) or
    ``restart()`` (AppServer) as a simulation generator.
    """

    def __init__(self, env: Environment, targets: Sequence,
                 config: Optional[RollingReleaseConfig] = None,
                 name: str = "release", gate=None):
        self.env = env
        #: The run this release belongs to (repro.run): where its window
        #: is announced and whose options it reads.
        self.run_record = run_of(env)
        self.targets = list(targets)
        self.config = config or RollingReleaseConfig()
        self.name = name
        #: Release gate (e.g. repro.ops.canary.CanaryController): after
        #: each batch, ``gate.review(release, batch, record)`` runs as a
        #: sub-process and returns "proceed" or "abort".  None falls
        #: back to the factory in this run's own options
        #: (``RunOptions.release_gate``, the CLI's ``--canary``),
        #: called at execute() time.
        self.gate = gate
        self.batches: list[BatchRecord] = []
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Set when the error budget was exhausted (or the gate voted
        #: abort) and the walk stopped.
        self.aborted = False
        #: Why: "error_budget" | "canary" (None while not aborted).
        self.abort_reason: Optional[str] = None
        #: Target names that never released (all attempts failed).
        self.failed_targets: list[str] = []
        #: Last error string per target that ever failed an attempt.
        self.errors: dict[str, str] = {}
        #: Target names rolled back after an abort.
        self.rolled_back: list[str] = []
        #: Target names whose rollback itself failed or timed out.
        self.rollback_failed: list[str] = []
        self._released: list = []  # target objects, in completion order

    @property
    def completed_targets(self) -> list[str]:
        return [self._target_name(t) for t in self._released]

    @staticmethod
    def _restart_generator(target):
        if hasattr(target, "release"):
            return target.release()
        if hasattr(target, "restart"):
            return target.restart()
        raise TypeError(f"{target!r} is not restartable")

    @staticmethod
    def _target_name(target) -> str:
        return getattr(target, "name", repr(target))

    def execute(self):
        """Generator: run the release to completion (or abort)."""
        config = self.config
        config.validate()
        self.started_at = self.env.now
        batch_size = config.batches(len(self.targets))
        gate = self.gate
        options = self.run_record.options
        if (gate is None and options is not None
                and options.release_gate is not None):
            gate = options.release_gate(self)
        self._announce("release_begin")
        try:
            # Walk the fleet in fixed order, batch_size at a time.
            for index, start in enumerate(range(0, len(self.targets),
                                                batch_size)):
                batch = self.targets[start:start + batch_size]
                record = BatchRecord(
                    index=index,
                    targets=[self._target_name(t) for t in batch],
                    started_at=self.env.now)
                yield from self._run_batch(batch, record)
                if config.post_batch_wait > 0:
                    yield self.env.timeout(config.post_batch_wait)
                record.finished_at = self.env.now
                self.batches.append(record)
                if (config.error_budget is not None
                        and len(self.failed_targets) > config.error_budget):
                    self.aborted = True
                    self.abort_reason = "error_budget"
                    if config.rollback_on_abort:
                        yield from self._rollback()
                    break
                if gate is not None:
                    verdict = yield from gate.review(self, batch, record)
                    if verdict == "abort":
                        self.aborted = True
                        self.abort_reason = "canary"
                        if config.rollback_on_abort:
                            yield from self._rollback()
                        break
                more = start + batch_size < len(self.targets)
                if more and config.inter_batch_gap > 0:
                    yield self.env.timeout(config.inter_batch_gap)
            self.finished_at = self.env.now
        finally:
            self._announce("release_end")

    def _announce(self, name: str) -> None:
        """The walk's window, on the run's channel: ``release_begin``
        once per execute(), ``release_end`` once on every exit path."""
        self.run_record.announce(name, release=self, scope=self.name,
                                 targets=len(self.targets))

    def _run_batch(self, batch, record: BatchRecord):
        """Generator: one batch through up to ``max_attempts`` rounds."""
        config = self.config
        pending = list(batch)
        backoff = config.retry_backoff
        for attempt in range(1, config.max_attempts + 1):
            record.attempts = attempt
            outcomes: dict[str, Optional[str]] = {}
            # Build restart generators eagerly so a non-restartable
            # target raises TypeError out of execute() itself.
            tasks = [
                self.env.process(
                    self._guarded(target, self._restart_generator(target),
                                  outcomes, self._released))
                for target in pending
            ]
            if (config.error_budget is not None
                    and attempt == config.max_attempts):
                # Mid-batch budget enforcement: this is the attempt
                # whose failures become permanent, so the moment the
                # budget is provably blown, interrupt the rest of the
                # batch instead of letting it keep restarting machines.
                self._arm_budget_cut(tasks, outcomes)
            waiter = self.env.all_of(tasks)
            if config.batch_timeout is not None:
                outcome = yield from with_timeout(
                    self.env, waiter, config.batch_timeout)
                if outcome is TIMED_OUT:
                    record.timed_out = True
                    for task in tasks:
                        if task.is_alive:
                            task.interrupt("batch_timeout")
                    # Let the guards unwind (recording their outcomes)
                    # before we read them; interrupts land urgently, so
                    # this second wait completes at the same sim time.
                    yield self.env.all_of(tasks)
            else:
                yield waiter
            still_failed = []
            for target in pending:
                error = outcomes.get(self._target_name(target))
                if error is not None:
                    still_failed.append(target)
                    self.errors[self._target_name(target)] = error
            pending = still_failed
            if not pending:
                return
            if attempt < config.max_attempts:
                yield self.env.timeout(backoff)
                backoff *= config.backoff_factor
        for target in pending:
            name = self._target_name(target)
            self.failed_targets.append(name)
            record.failed.append(name)

    def _arm_budget_cut(self, tasks, outcomes: dict) -> None:
        """Interrupt a final attempt's stragglers once the budget is
        provably exhausted (strict ``failed > budget``, matching the
        batch-boundary check)."""
        budget = self.config.error_budget
        baseline = len(self.failed_targets)

        def _maybe_cut(_event) -> None:
            errors_now = sum(
                1 for error in outcomes.values() if error is not None)
            if baseline + errors_now > budget:
                for task in tasks:
                    if task.is_alive:
                        task.interrupt("error_budget_exhausted")

        # Each guard records its outcome before its process completes,
        # so by callback time ``outcomes`` reflects this task's fate.
        for task in tasks:
            task.callbacks.append(_maybe_cut)

    def _guarded(self, target, generator, outcomes: dict,
                 released: Optional[list] = None):
        """Generator: run one restart, mapping its fate into ``outcomes``
        and, on success, appending ``target`` to ``released`` — here, in
        completion order, which is the order a rollback undoes.  A
        rollback passes none: it must not count a target released again.

        The guard never fails its process — a raising target must not
        tear down the whole batch's AllOf.
        """
        name = self._target_name(target)
        try:
            yield from generator
        except Interrupt as exc:
            outcomes[name] = f"interrupted: {exc.cause}"
            return
        except Exception as exc:
            outcomes[name] = f"{type(exc).__name__}: {exc}"
            return
        outcomes[name] = None
        if released is not None:
            released.append(target)

    def _rollback(self):
        """Generator: re-release completed targets, newest first.

        In the simulation "rolling back" is another restart (the binary
        version is not modelled); what matters is the orchestration —
        sequential, reverse order, best-effort, and *bounded*: with
        ``batch_timeout`` set, a hung rollback restart is interrupted
        after the deadline and recorded in ``rollback_failed`` instead
        of wedging the abort path forever.
        """
        config = self.config
        for target in reversed(list(self._released)):
            name = self._target_name(target)
            try:
                generator = self._restart_generator(target)
            except TypeError as exc:
                self.errors[name] = f"rollback: {type(exc).__name__}: {exc}"
                self.rollback_failed.append(name)
                continue
            outcomes: dict[str, Optional[str]] = {}
            task = self.env.process(
                self._guarded(target, generator, outcomes))
            if config.batch_timeout is not None:
                outcome = yield from with_timeout(
                    self.env, task, config.batch_timeout)
                if outcome is TIMED_OUT and task.is_alive:
                    task.interrupt("rollback_timeout")
                    yield self.env.all_of([task])
            else:
                yield task
            error = outcomes.get(name)
            if error is not None:
                self.errors[name] = f"rollback: {error}"
                self.rollback_failed.append(name)
            else:
                self.rolled_back.append(name)

    @property
    def duration(self) -> float:
        """Wall time of the whole release (valid after execute())."""
        if self.started_at is None or self.finished_at is None:
            raise RuntimeError("release has not completed")
        return self.finished_at - self.started_at
