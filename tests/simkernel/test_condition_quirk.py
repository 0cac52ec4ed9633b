"""Pins the ``Condition._collect_values`` quirk — deliberately.

The value dict a condition succeeds with contains only the children
that were *processed and succeeded at the moment the condition
triggered*.  Two consequences, both long-standing behavior that callers
rely on:

* an :class:`AnyOf` race reports exactly the winners processed so far —
  a child that succeeds *later* never appears in the dict, even though
  ``child.value`` is readable;
* a child that is already *triggered* but whose callbacks have not yet
  run when the condition fires is excluded too (it is still in the
  scheduler queue at that instant).

If either assertion here starts failing, the kernel's observable
semantics changed: fix the kernel, don't update the test — or, if the
change is intentional, rerecord ``tests/golden`` in the same commit and
say so loudly in the log.
"""

from repro.simkernel.core import Environment


def test_anyof_excludes_late_winner():
    env = Environment()
    results = []

    def waiter():
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(2.0, value="slow")
        values = yield env.any_of([fast, slow])
        results.append((sorted(values.values()), env.now))
        # The loser is excluded from the dict but its value is
        # still readable once it triggers.
        yield env.timeout(2.0)
        assert slow.value == "slow"
        assert slow not in values

    env.process(waiter())
    env.run()
    assert results == [(["fast"], 1.0)]


def test_triggered_but_unprocessed_child_is_excluded():
    """Two children trigger at the same tick: the one whose callbacks
    have not run yet when the condition fires is *not* collected."""
    env = Environment()
    collected = []

    def driver():
        first = env.event()
        second = env.event()
        cond = env.any_of([first, second])
        cond.callbacks.append(
            lambda event: collected.append(sorted(
                value for value in event.value.values())))
        # Trigger both in the same tick.  ``first`` is dispatched
        # first; the condition fires inside that dispatch, while
        # ``second`` is triggered-but-unprocessed — excluded.
        first.succeed("a")
        second.succeed("b")
        yield env.timeout(0.001)
        assert second.processed and second.value == "b"

    env.process(driver())
    env.run()
    assert collected == [["a"]]


def test_allof_collects_every_child():
    """AllOf cannot fire before every child is processed, so the quirk
    never drops values there — the dict is always complete."""
    env = Environment()
    seen = []

    def waiter():
        events = [env.timeout(d, value=i)
                  for i, d in enumerate((0.3, 0.1, 0.2))]
        values = yield env.all_of(events)
        seen.append([values[event] for event in events])

    env.process(waiter())
    env.run()
    assert seen == [[0, 1, 2]]
