"""Property-based tests for the kernel edge cases the two-lane
scheduler touched: an interrupt while a process waits on a condition,
URGENT vs NORMAL order within one tick (heap entries *landing* on it vs
events *triggered* on it), yielding an already-processed event, and
conditions over failing children.

Each property runs a randomly-drawn program and asserts its log —
callback order, values and times — is what a few-line model of the
classic single heap predicts: strict ``(time, priority, event id)`` pop
order, and a condition's value holds the children processed when it
triggered.
"""

from hypothesis import given, settings, strategies as st

from repro.simkernel.core import Environment
from repro.simkernel.events import URGENT, Interrupt

#: Deterministic example selection: the suite must never flake, so the
#: properties run a fixed derandomized corpus (still hundreds of
#: distinct programs per property).
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@SETTINGS
@given(
    kind=st.sampled_from(["all", "any"]),
    delays=st.lists(st.integers(1, 50), min_size=1, max_size=6),
    interrupt_after=st.integers(0, 60),
)
def test_interrupt_during_condition(kind, delays, interrupt_after):
    env = Environment()
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

    # The condition fires at its last (all) or first (any) child.  The
    # interrupt wins a tie: its timeout was pushed before the trigger
    # joined the instant's lane, and the interruption is URGENT.
    fires = max(delays) if kind == "all" else min(delays)
    if interrupt_after <= fires:
        at = interrupt_after / 1000.0
        assert log == [("sent", at), ("interrupted", "boom", at)]
    else:
        # An AnyOf holds only the first child processed (the quirk).
        values = (list(range(len(delays))) if kind == "all"
                  else [delays.index(fires)])
        assert log == [("done", values, fires / 1000.0)]
    assert env.now == max(*delays, interrupt_after) / 1000.0


@SETTINGS
@given(ops=st.lists(
    st.sampled_from(["pre_landing", "succeed", "urgent", "zero_timeout"]),
    min_size=1, max_size=12))
def test_same_tick_urgent_normal_ordering(ops):
    """Mixes, within one tick, every way an event can become runnable:
    heap entries landing on the tick ("pre_landing", scheduled in the
    past), same-tick triggers ("succeed"), urgent-priority scheduling
    and zero-delay timeouts.  Callback order must be the single heap's
    strict ``(time, priority, eid)`` order."""
    env = Environment()
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
    # Heap entries landing on the tick carry the smallest ids (pushed
    # at t = 0); then URGENT before NORMAL, each in the order made.
    order = [i for kinds in (("pre_landing",), ("urgent",),
                             ("succeed", "zero_timeout"))
             for i, op in enumerate(ops) if op in kinds]
    assert log == [(i, 1.0) for i in order]


@SETTINGS
@given(
    chain=st.lists(st.sampled_from(["processed", "fresh"]),
                   min_size=1, max_size=10),
)
def test_already_processed_target_fast_path(chain):
    """Yielding an already-processed event resumes the generator in the
    same dispatch (no re-scheduling): no time passes for it."""
    env = Environment()
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
    now = 0.001
    expected = [("instant", i, now)
                for i, kind in enumerate(chain) if kind == "processed"]
    for i, kind in enumerate(chain):
        if kind == "fresh":
            now += 0.001
            expected.append(("waited", i, now))
    assert log == expected and env.now == now


@SETTINGS
@given(
    children=st.lists(st.tuples(st.sampled_from(["ok", "fail"]),
                                st.integers(1, 30)),
                      min_size=1, max_size=6),
    kind=st.sampled_from(["all", "any"]),
)
def test_condition_over_failing_children(children, kind):
    env = Environment()
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
    # Children end in (time, start) order; the first to end decides an
    # AnyOf, the first failure (or the last child) an AllOf.
    ends = sorted((delay, i, outcome)
                  for i, (outcome, delay) in enumerate(children))
    failures = [end for end in ends if end[2] == "fail"]
    if kind == "any" or failures:
        delay, i, outcome = ends[0] if kind == "any" else failures[0]
        expected = (("fail", f"child-{i}") if outcome == "fail"
                    else ("ok", [i]))
    else:
        delay, expected = ends[-1][0], ("ok", list(range(len(children))))
    assert log == [(*expected, delay / 1000.0)]
    assert env.now == ends[-1][0] / 1000.0
