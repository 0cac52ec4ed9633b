"""Rolling-release orchestration: batching, gaps, timing records."""

import pytest

from repro.release import RollingRelease, RollingReleaseConfig
from repro.simkernel import Environment


class FakeTarget:
    """A restartable that takes a fixed time and records when it ran."""

    def __init__(self, env, name, duration=5.0):
        self.env = env
        self.name = name
        self.duration = duration
        self.restarts: list[tuple[float, float]] = []

    def release(self):
        start = self.env.now
        yield self.env.timeout(self.duration)
        self.restarts.append((start, self.env.now))


class FakeAppTarget:
    """Exposes restart() only (the AppServer duck type)."""

    def __init__(self, env, name, duration=5.0):
        self.env = env
        self.name = name
        self.duration = duration
        self.restarts = []

    def restart(self):
        yield self.env.timeout(self.duration)
        self.restarts.append((0, self.env.now))


def _targets(env, count, duration=5.0):
    return [FakeTarget(env, f"t{i}", duration) for i in range(count)]


def test_batches_calculation():
    config = RollingReleaseConfig(batch_fraction=0.2)
    assert config.batches(10) == 2
    assert config.batches(7) == 2
    assert config.batches(1) == 1
    assert RollingReleaseConfig(batch_fraction=1.0).batches(5) == 5


def test_batch_fraction_validated():
    env = Environment()
    release = RollingRelease(env, _targets(env, 4),
                             RollingReleaseConfig(batch_fraction=0.0))
    with pytest.raises(ValueError):
        env.run(until=env.process(release.execute()))


def test_all_targets_restarted_once():
    env = Environment()
    targets = _targets(env, 10)
    release = RollingRelease(env, targets,
                             RollingReleaseConfig(batch_fraction=0.3))
    env.run(until=env.process(release.execute()))
    assert all(len(t.restarts) == 1 for t in targets)


def test_batches_are_sequential():
    env = Environment()
    targets = _targets(env, 4, duration=10.0)
    release = RollingRelease(env, targets,
                             RollingReleaseConfig(batch_fraction=0.5))
    env.run(until=env.process(release.execute()))
    # Batch 1 = t0,t1 at time 0; batch 2 = t2,t3 at time 10.
    assert targets[0].restarts[0][0] == 0.0
    assert targets[1].restarts[0][0] == 0.0
    assert targets[2].restarts[0][0] == 10.0
    assert release.duration == 20.0
    assert len(release.batches) == 2


def test_inter_batch_gap_and_post_batch_wait():
    env = Environment()
    targets = _targets(env, 2, duration=5.0)
    release = RollingRelease(env, targets, RollingReleaseConfig(
        batch_fraction=0.5, inter_batch_gap=3.0, post_batch_wait=2.0))
    env.run(until=env.process(release.execute()))
    # t0: [0,5] + wait 2 + gap 3 -> t1 starts at 10.
    assert targets[1].restarts[0][0] == 10.0
    # No trailing gap after the last batch; post_batch_wait applies.
    assert release.duration == 17.0


def test_batch_records_capture_names_and_times():
    env = Environment()
    targets = _targets(env, 3, duration=1.0)
    release = RollingRelease(env, targets,
                             RollingReleaseConfig(batch_fraction=0.34))
    env.run(until=env.process(release.execute()))
    # ceil(3 × 0.34) = 2 per batch.
    assert [b.targets for b in release.batches] == [["t0", "t1"], ["t2"]]
    assert all(b.finished_at > b.started_at for b in release.batches)


def test_restart_duck_typing():
    env = Environment()
    targets = [FakeAppTarget(env, "app", 2.0)]
    release = RollingRelease(env, targets)
    env.run(until=env.process(release.execute()))
    assert targets[0].restarts


def test_unrestartable_target_rejected():
    env = Environment()
    release = RollingRelease(env, [object()])
    with pytest.raises(TypeError):
        env.run(until=env.process(release.execute()))


def test_duration_before_completion_raises():
    env = Environment()
    release = RollingRelease(env, _targets(env, 2))
    with pytest.raises(RuntimeError):
        release.duration


# -- hardening: timeout / retry / abort / rollback -------------------------


class FlakyTarget:
    """Fails its first ``failures`` release attempts, then succeeds."""

    def __init__(self, env, name, failures=1, duration=5.0):
        self.env = env
        self.name = name
        self.failures = failures
        self.duration = duration
        self.attempts = 0
        self.restarts = []

    def release(self):
        self.attempts += 1
        yield self.env.timeout(self.duration)
        if self.attempts <= self.failures:
            raise RuntimeError(f"boom #{self.attempts}")
        self.restarts.append(self.env.now)


class HangingTarget:
    """Never finishes a release until interrupted."""

    def __init__(self, env, name):
        self.env = env
        self.name = name
        self.attempts = 0
        self.interrupted = 0

    def release(self):
        from repro.simkernel import Interrupt

        self.attempts += 1
        try:
            yield self.env.event()  # wait forever
        except Interrupt:
            self.interrupted += 1
            raise


def test_failed_target_retried_with_backoff():
    env = Environment()
    target = FlakyTarget(env, "flaky", failures=2, duration=5.0)
    release = RollingRelease(env, [target], RollingReleaseConfig(
        batch_fraction=1.0, max_attempts=3, retry_backoff=4.0))
    env.run(until=env.process(release.execute()))
    # attempt1 [0,5] + backoff 4 + attempt2 [9,14] + backoff 8
    # (4 × BACKOFF_FACTOR) + attempt3 [22,27].
    assert target.attempts == 3
    assert target.restarts == [27.0]
    assert not release.failed_targets
    assert release.batches[0].attempts == 3
    assert "flaky" in release.errors  # the last recorded failure sticks


def test_exhausted_attempts_mark_target_failed():
    env = Environment()
    target = FlakyTarget(env, "flaky", failures=99)
    good = FakeTarget(env, "good", 1.0)
    release = RollingRelease(env, [good, target], RollingReleaseConfig(
        batch_fraction=1.0, max_attempts=2, retry_backoff=1.0))
    env.run(until=env.process(release.execute()))
    assert release.failed_targets == ["flaky"]
    assert release.batches[0].failed == ["flaky"]
    assert good.restarts  # the healthy half of the batch still released
    # The retry round must not re-release already-completed targets.
    assert len(good.restarts) == 1


def test_batch_timeout_interrupts_stragglers():
    env = Environment()
    hung = HangingTarget(env, "hung")
    good = FakeTarget(env, "good", 2.0)
    release = RollingRelease(env, [good, hung], RollingReleaseConfig(
        batch_fraction=1.0, batch_timeout=10.0))
    env.run(until=env.process(release.execute()))
    assert hung.interrupted == 1
    assert release.batches[0].timed_out
    assert release.failed_targets == ["hung"]
    assert release.errors["hung"].startswith("interrupted")
    assert good.restarts  # finished well inside the deadline
    assert release.duration == 10.0


def test_error_budget_aborts_release():
    env = Environment()
    targets = [FlakyTarget(env, "bad0", failures=99, duration=1.0),
               FakeTarget(env, "ok1", 1.0),
               FakeTarget(env, "ok2", 1.0)]
    release = RollingRelease(env, targets, RollingReleaseConfig(
        batch_fraction=0.34, error_budget=0))
    env.run(until=env.process(release.execute()))
    # Batch 1 = bad0+ok1 -> one failure > budget 0 -> abort before ok2.
    assert release.aborted
    assert release.failed_targets == ["bad0"]
    assert not targets[2].restarts


def test_rollback_rereleases_completed_in_reverse():
    env = Environment()
    ok = FakeTarget(env, "ok", 1.0)
    bad = FlakyTarget(env, "bad", failures=99, duration=1.0)
    release = RollingRelease(env, [ok, bad], RollingReleaseConfig(
        batch_fraction=0.5, error_budget=0, rollback_on_abort=True))
    env.run(until=env.process(release.execute()))
    assert release.aborted
    assert release.rolled_back == ["ok"]
    assert len(ok.restarts) == 2  # release + rollback


class HangsOnRollback:
    """First release succeeds fast; the rollback restart never returns."""

    def __init__(self, env, name):
        self.env = env
        self.name = name
        self.attempts = 0
        self.interrupted = 0

    def release(self):
        from repro.simkernel import Interrupt

        self.attempts += 1
        if self.attempts == 1:
            yield self.env.timeout(1.0)
            return
        try:
            yield self.env.event()  # the rollback hangs forever
        except Interrupt:
            self.interrupted += 1
            raise


def test_hung_rollback_is_bounded_by_batch_timeout():
    env = Environment()
    hung = HangsOnRollback(env, "hung")
    bad = FlakyTarget(env, "bad", failures=99, duration=1.0)
    release = RollingRelease(env, [hung, bad], RollingReleaseConfig(
        batch_fraction=0.5, batch_timeout=10.0, error_budget=0,
        rollback_on_abort=True))
    env.run(until=env.process(release.execute()))
    # Batch 1 released "hung" [0,1]; batch 2's failure aborted; the
    # rollback of "hung" then wedged and was cut at the deadline.
    assert release.aborted
    assert hung.interrupted == 1
    assert release.rolled_back == []
    assert release.rollback_failed == ["hung"]
    assert release.errors["hung"].startswith("rollback: interrupted")
    # Bounded: abort at t=3 (1 + attempt 1 + budget check... ) plus one
    # rollback deadline — nowhere near "forever".
    assert release.finished_at is not None
    assert release.finished_at <= 2.0 + 10.0


def test_failing_rollback_is_recorded_and_skipped():
    env = Environment()
    ok = FakeTarget(env, "ok", 1.0)
    broken = FlakyTarget(env, "broken", failures=99, duration=1.0)

    class RollbackBreaks(FakeTarget):
        def release(self):
            if self.restarts:
                raise RuntimeError("old binary gone")
            yield from super().release()

    fragile = RollbackBreaks(env, "fragile", 1.0)
    release = RollingRelease(env, [fragile, ok, broken],
                             RollingReleaseConfig(
                                 batch_fraction=0.34, error_budget=0,
                                 rollback_on_abort=True))
    env.run(until=env.process(release.execute()))
    # Rollback walks newest-first: ok succeeds, fragile fails, and the
    # failure does not stop the walk (it already visited ok).
    assert release.aborted
    assert release.rolled_back == ["ok"]
    assert release.rollback_failed == ["fragile"]
    assert release.errors["fragile"].startswith("rollback: RuntimeError")


def test_rollback_typeerror_target_is_recorded_not_fatal():
    env = Environment()
    ok = FakeTarget(env, "ok", 1.0)
    mutant = FakeTarget(env, "mutant", 1.0)
    bad = FlakyTarget(env, "bad", failures=99, duration=1.0)
    release = RollingRelease(env, [mutant, ok, bad], RollingReleaseConfig(
        batch_fraction=0.34, error_budget=0, rollback_on_abort=True))

    # The target stops being restartable between its release (batch 1,
    # done at t=1) and the rollback (t≈3): building its rollback
    # generator raises TypeError, which must be recorded, not propagated.
    def sabotage():
        yield env.timeout(1.5)
        mutant.release = None  # e.g. decommissioned mid-flight

    env.process(sabotage())
    env.run(until=env.process(release.execute()))
    assert release.aborted
    assert "mutant" in release.rollback_failed
    assert release.errors["mutant"].startswith("rollback: TypeError")
    assert release.rolled_back == ["ok"]


def test_budget_boundary_is_strict_failed_must_exceed():
    env = Environment()
    targets = [FlakyTarget(env, "bad0", failures=99, duration=1.0),
               FakeTarget(env, "ok1", 1.0),
               FakeTarget(env, "ok2", 1.0)]
    release = RollingRelease(env, targets, RollingReleaseConfig(
        batch_fraction=0.34, error_budget=1))
    env.run(until=env.process(release.execute()))
    # Exactly budget-many failures (1 == 1): the release walks on.
    assert not release.aborted
    assert release.failed_targets == ["bad0"]
    assert targets[2].restarts


def test_budget_cut_interrupts_the_rest_of_the_batch():
    env = Environment()
    fast_bad = FlakyTarget(env, "bad", failures=99, duration=1.0)
    slow = [FakeTarget(env, f"slow{i}", 100.0) for i in range(2)]
    release = RollingRelease(env, [fast_bad] + slow, RollingReleaseConfig(
        batch_fraction=1.0, error_budget=0))
    env.run(until=env.process(release.execute()))
    # The moment bad's failure blows the budget (t=1), the in-flight
    # slow restarts are interrupted rather than run for 100s more.
    assert release.aborted
    assert env.now == 1.0
    assert not any(t.restarts for t in slow)
    for target in slow:
        assert release.errors[target.name] == \
            "interrupted: error_budget_exhausted"


def test_budget_cut_holds_fire_at_exactly_budget():
    env = Environment()
    fast_bad = FlakyTarget(env, "bad", failures=99, duration=1.0)
    slow = FakeTarget(env, "slow", duration=20.0)
    release = RollingRelease(env, [fast_bad, slow], RollingReleaseConfig(
        batch_fraction=1.0, error_budget=1))
    env.run(until=env.process(release.execute()))
    # One failure == budget: not exhausted, so slow finishes normally.
    assert not release.aborted
    assert slow.restarts == [(0.0, 20.0)]


def test_budget_cut_only_arms_on_the_final_attempt():
    env = Environment()
    flaky = FlakyTarget(env, "flaky", failures=1, duration=1.0)
    slow = FakeTarget(env, "slow", duration=10.0)
    release = RollingRelease(env, [flaky, slow], RollingReleaseConfig(
        batch_fraction=1.0, error_budget=0, max_attempts=2,
        retry_backoff=1.0))
    env.run(until=env.process(release.execute()))
    # Attempt 1's failure is not permanent yet — slow must not be cut,
    # and the retry turns flaky green: no abort at all.
    assert not release.aborted
    assert slow.restarts and flaky.restarts


def test_hardening_config_validated():
    env = Environment()
    for config in (RollingReleaseConfig(max_attempts=0),
                   RollingReleaseConfig(batch_timeout=-1.0),
                   RollingReleaseConfig(error_budget=-2)):
        release = RollingRelease(env, _targets(env, 2), config)
        with pytest.raises(ValueError):
            env.run(until=env.process(release.execute()))


# -- the run's channel: "release_end" exactly once on every exit path --------


class _Observer:
    def __init__(self):
        self.begins = []
        self.ends = []

    def __call__(self, name, release=None, **_fields):
        if name == "release_begin":
            self.begins.append(release)
        elif name == "release_end":
            self.ends.append(release)


def _observed(env, release, expect_raises=None):
    observer = _Observer()
    release.run_record.subscribe(observer)
    process = env.process(release.execute())
    if expect_raises is not None:
        with pytest.raises(expect_raises):
            env.run(until=process)
    else:
        env.run(until=process)
    return observer


def test_observer_sees_one_begin_one_end_on_clean_run():
    env = Environment()
    release = RollingRelease(env, _targets(env, 4),
                             RollingReleaseConfig(batch_fraction=0.5))
    observer = _observed(env, release)
    assert observer.begins == [release]
    assert observer.ends == [release]


def test_observer_end_fires_once_on_abort_with_rollback():
    env = Environment()
    ok = FakeTarget(env, "ok", 1.0)
    bad = FlakyTarget(env, "bad", failures=99, duration=1.0)
    release = RollingRelease(env, [ok, bad], RollingReleaseConfig(
        batch_fraction=0.5, error_budget=0, rollback_on_abort=True))
    observer = _observed(env, release)
    assert release.aborted and release.rolled_back == ["ok"]
    assert observer.ends == [release]


def test_observer_end_fires_once_on_canary_abort():
    class VetoGate:
        def review(self, release, batch, record):
            yield release.env.timeout(1.0)
            return "abort"

    env = Environment()
    release = RollingRelease(env, _targets(env, 4),
                             RollingReleaseConfig(batch_fraction=0.25),
                             gate=VetoGate())
    observer = _observed(env, release)
    assert release.aborted and release.abort_reason == "canary"
    assert observer.ends == [release]


def test_observer_end_fires_once_when_execute_raises_mid_fleet():
    env = Environment()
    targets = _targets(env, 2) + [object()]  # batch 2 is unrestartable
    release = RollingRelease(env, targets,
                             RollingReleaseConfig(batch_fraction=0.34))
    observer = _observed(env, release, expect_raises=TypeError)
    # Batch 1 (t0, t1) released fine, the TypeError tore execute()
    # down — the observer still saw exactly one end.
    assert len(release.batches) == 1
    assert observer.ends == [release]
    assert observer.begins == [release]


def test_release_does_not_reach_another_environments_observer():
    from repro.run import run_of

    env_a, env_b = Environment(), Environment()
    # Held here: the table from environment to record is weak.
    run_a, run_b = run_of(env_a), run_of(env_b)
    mine, theirs = _Observer(), _Observer()
    run_a.subscribe(mine)
    run_b.subscribe(theirs)
    release = RollingRelease(env_a, _targets(env_a, 2),
                             RollingReleaseConfig(batch_fraction=1.0))
    assert release.run_record is run_a
    env_a.run(until=env_a.process(release.execute()))
    assert mine.begins == [release] and mine.ends == [release]
    assert theirs.begins == [] and theirs.ends == []


def test_observers_run_in_registration_order():
    env = Environment()
    release = RollingRelease(env, _targets(env, 1))
    calls = []
    for tag in "abc":
        release.run_record.subscribe(
            lambda name, tag=tag, **_fields: calls.append((tag, name)))
    env.run(until=env.process(release.execute()))
    assert calls == [(tag, name)
                     for name in ("release_begin", "release_end")
                     for tag in "abc"]


def test_observer_dies_with_its_run_without_anyone_unhooking():
    """The shape every real listener has — a method of an object that
    holds the environment (suite, governor, collector, cohort set) —
    must not be kept alive by anything outside the run, and neither
    must the environment or the record."""
    import gc
    import weakref

    from repro.run import RunRecord

    def record_alive(record_id):
        gc.collect()
        return any(id(obj) == record_id and type(obj) is RunRecord
                   for obj in gc.get_objects())

    class Owner:
        def __init__(self, env):
            self.env = env
            self.seen = []

        def on_announce(self, name, **_fields):
            self.seen.append(name)

    env = Environment()
    owner = Owner(env)
    release = RollingRelease(env, _targets(env, 1))
    release.run_record.subscribe(owner.on_announce)
    env.run(until=env.process(release.execute()))
    assert owner.seen == ["release_begin", "release_end"]
    refs = [weakref.ref(env), weakref.ref(owner)]
    record_id = id(release.run_record)
    del env, owner, release
    assert not record_alive(record_id)
    assert [ref() for ref in refs] == [None, None]


def test_run_options_gate_factory_builds_gates_for_ungated_releases():
    from repro.options import RunOptions

    class CountingGate:
        def __init__(self):
            self.reviews = 0

        def review(self, release, batch, record):
            self.reviews += 1
            yield release.env.timeout(0.1)
            return "proceed"

    built = []

    def factory(release):
        gate = CountingGate()
        built.append((release, gate))
        return gate

    env = Environment()
    release = RollingRelease(env, _targets(env, 4),
                             RollingReleaseConfig(batch_fraction=0.5))
    # A release reads its own run's options (a topology sets them; a
    # bare environment has none until somebody does).
    release.run_record.options = RunOptions(release_gate=factory)
    env.run(until=env.process(release.execute()))
    assert built and built[0][0] is release
    assert built[0][1].reviews == 2  # one review per batch
    # Another run's release builds no gate.
    env2 = Environment()
    ungated = RollingRelease(env2, _targets(env2, 2),
                             RollingReleaseConfig(batch_fraction=1.0))
    env2.run(until=env2.process(ungated.execute()))
    assert len(built) == 1
