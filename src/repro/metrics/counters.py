"""Tagged monotonic counters."""

from __future__ import annotations

from typing import Optional

__all__ = ["Counter", "CounterSet"]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter; negative increments are rejected."""
        if amount < 0:
            raise ValueError(f"Counter {self.name} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class CounterSet:
    """A family of counters keyed by name (optionally with tag suffixes).

    Used for the paper's per-instance connection counters, e.g.::

        counters.inc("http_status", tag="500")
        counters.inc("tcp_rst")
        counters.get("http_status", tag="500")

    Per-packet call sites should hold a *bound* counter handle
    (:meth:`bound`) instead of calling :meth:`inc` with strings each
    time; repeated ``inc``/``get`` calls are still cheap because the
    ``(name, tag)`` pair is cached — the string key is built at most
    once per pair.

    Key flattening caveat (pinned by ``tests/metrics/test_counters.py``):
    snapshot keys are the flat string ``name[:tag]``, so
    ``("a", tag="b:c")`` and ``("a:b", tag="c")`` alias the *same*
    counter.  Don't put ``:`` in counter names.
    """

    __slots__ = ("_counters", "_by_pair")

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        #: (name, tag) → Counter cache so the hot path never rebuilds
        #: the f-string key.  Distinct pairs that flatten to the same
        #: string share one Counter (see the class docstring).
        self._by_pair: dict[tuple[str, Optional[str]], Counter] = {}

    def _key(self, name: str, tag: Optional[str]) -> str:
        key = name
        if tag is not None:
            key = f"{key}:{tag}"
        return key

    def counter(self, name: str, tag: Optional[str] = None) -> Counter:
        """Return (creating if needed) the counter for ``name``/``tag``."""
        counter = self._by_pair.get((name, tag))
        if counter is None:
            key = self._key(name, tag)
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter(key)
            self._by_pair[(name, tag)] = counter
        return counter

    def bound(self, name: str, tag: Optional[str] = None) -> Counter:
        """A live handle for hot call sites: ``c = cs.bound("x"); c.inc()``.

        The handle *is* the underlying :class:`Counter`, so increments
        through it are visible to :meth:`get`/:meth:`snapshot`
        immediately and vice versa.
        """
        return self.counter(name, tag)

    def inc(self, name: str, amount: float = 1.0, tag: Optional[str] = None) -> None:
        counter = self._by_pair.get((name, tag))
        if counter is None:
            counter = self.counter(name, tag)
        if amount < 0:
            raise ValueError(f"Counter {counter.name} cannot decrease")
        counter.value += amount

    def get(self, name: str, tag: Optional[str] = None) -> float:
        """Current value, zero if never incremented."""
        counter = self._by_pair.get((name, tag))
        if counter is not None:
            return counter.value
        counter = self._counters.get(self._key(name, tag))
        return counter.value if counter is not None else 0.0

    def with_tag_prefix(self, name: str) -> dict[str, float]:
        """All counters whose key starts with ``name:`` keyed by tag."""
        wanted = f"{name}:"
        return {
            key[len(wanted):]: counter.value
            for key, counter in self._counters.items()
            if key.startswith(wanted)
        }

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of every counter value."""
        return {key: counter.value for key, counter in self._counters.items()}

