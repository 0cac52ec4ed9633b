"""Deterministic-RNG / monotonic-clock / share-nothing discipline, for
every module.

Same-seed runs must replay bit-exact, so nothing under ``src/repro`` may
draw from the global ``random`` module or read a host clock: randomness
comes from an injected ``repro.simkernel`` stream, time from ``env.now``.
And two runs in one process must not be able to reach each other, so
there is no process-global mutable state at all: no mutable module or
class attribute, no mutable default argument.
And the one order-sensitive store primitive, ``Store.deliver``, stays
where its precondition (kernel context, tail position) was argued, the
kernel's private event counter is read nowhere outside the kernel, and
a component finds its run's listeners one way, through ``repro.run``.
Nor does any module touch the garbage collector: fewer collections must
come from less cyclic garbage, not from collector settings.
This walks every module with ``ast`` (so aliased imports are seen too)
and carries the few exceptions explicitly.
"""

import ast
import functools
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

CLOCKS = {"time", "perf_counter", "monotonic"}

#: path (or directory prefix) relative to src/repro → what it may use.
ALLOWED = {
    # The seeded stream factory wraps ``random.Random``.
    "simkernel/rng.py": {"import random"},
    # Real sockets need real deadlines — monotonic ones only.
    "realnet/": {"import time", "monotonic"},
    # Human-facing "(1.2s wall)" print.
    "experiments/__main__.py": {"import time", "time"},
}


#: The kernel modules that define ``deliver`` (``Event.deliver``, and
#: ``Store.deliver``, which hands its getter off through it) and call
#: it from inside the kernel: a deadline's expiry, the last act of its
#: heap entry's callback or of a call entry.
KERNEL_DELIVER = {"simkernel/events.py", "simkernel/resources.py"}

#: Besides the kernel, the modules that may name ``deliver``: the
#: socket layer binds ``Store.deliver`` once per socket and calls it
#: last in a delivery's callback;
#: ``H2Connection._demux`` *is* that hand-off for an HTTP/2 socket and
#: ends every branch with the one ``deliver`` that can find a reader (a
#: stream it just created has none; its backlog task runs in process
#: context, where ``deliver`` is ``put``; transport-down walks
#: ``streams`` and uses ``put``).  ``H2Stream.take_arrivals`` binds the
#: same ``deliver`` as a plain socket's hand-off, aimed at a stream's
#: inbox, so it is still the socket's last act.  ``Kernel._handle_syn``
#: ends with the accept queue's ``deliver``, and the SYN-ACK's receiver
#: *is* the connect result's ``Event.deliver``: each is the last act of
#: a delivery's call.  A new caller has to argue both
#: in review (see the method's docstring), not discover a reordered run
#: later.
DELIVER_CALLERS = {"netsim/sockets.py", "netsim/kernel.py",
                   "protocols/http2.py"}

#: Outside ``simkernel/``, the modules that read the kernel's private
#: scheduled-event counter: none, ``Environment.stats()`` reports it.
EID_READERS = set()

#: The ways a component used to find its run's listeners, each replaced
#: by the run record (``repro.run``): nothing under ``src/repro`` may
#: name them again.
RETIRED_NAMES = {"invariant_tap", "invariant_suite",
                 "add_release_observer"}
#: A registry measures; it does not carry the tracer or the governor.
REGISTRY_LOCATOR_ATTRS = {"tracing", "splice"}
#: Windows reach the governor as announcements; only its own package
#: calls these.
GOVERNOR_WINDOW_CALLS = {"suspend", "resume"}

#: Calls whose result is a mutable container (or a stateful iterator).
MUTABLE_FACTORIES = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter", "count", "WeakKeyDictionary",
    "WeakValueDictionary", "WeakSet"}
MUTATORS = {
    "append", "extend", "insert", "pop", "popitem", "remove", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse"}


@functools.cache
def _modules() -> dict:
    """Every module of the package, parsed once: relative path → tree."""
    return {p.relative_to(PACKAGE).as_posix(): ast.parse(p.read_text())
            for p in PACKAGE.rglob("*.py")}


def _parse(source) -> ast.AST:
    return source if isinstance(source, ast.AST) else ast.parse(source)


def _allowed(relative: str) -> set:
    return set().union(*(what for prefix, what in ALLOWED.items()
                         if relative == prefix
                         or (prefix.endswith("/")
                             and relative.startswith(prefix))))


def violations(source) -> set:
    """What ``source`` uses: ``import random``, ``import time`` and/or
    the clock functions it reaches (through any alias)."""
    tree = _parse(source)
    found = set()
    time_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in ("random", "time"):
                    found.add(f"import {root}")
                if root == "time":
                    time_aliases.add(alias.asname or root)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module in ("random", "time"):
            found.add(f"import {node.module}")
            if node.module == "time":
                found.update(alias.name.removesuffix("_ns")
                             for alias in node.names
                             if alias.name.removesuffix("_ns") in CLOCKS)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in time_aliases \
                and node.attr.removesuffix("_ns") in CLOCKS:
            found.add(node.attr.removesuffix("_ns"))
    return found


def _is_constant_name(name: str) -> bool:
    return name.startswith("__") or name.strip("_").isupper()


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        return name in MUTABLE_FACTORIES
    return False


def _mutable_bindings(body: list):
    """``(name, is_constant)`` of every name a statement of ``body``
    binds to a mutable value."""
    for node in body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if _is_mutable_value(node.value):
            yield from ((target.id, _is_constant_name(target.id))
                        for target in targets
                        if isinstance(target, ast.Name))


def shared_state(source) -> set:
    """Names of the process-global mutable state ``source`` declares.

    The rule: a module-level name bound to a list/dict/set display or
    comprehension, to a mutable-container constructor call or to
    ``itertools.count`` is shared state, and so is any name a
    ``global`` statement rebinds, a class attribute bound to such a
    value in its class body (``C.cache``: every instance and every run
    shares it) and a function with such a default argument (``f()``:
    every call shares it).  Exempt are *constants*: tuples, frozensets
    and other immutable values by construction (a frozen
    ``RunOptions()`` default included), and ``__dunder__`` /
    ``UPPER_CASE`` names (``__all__``, lookup tables) by convention — a
    convention this checks as far as the module itself goes: a
    constant-named module-level container its own module mutates
    (``TABLE[k] = v``, ``TABLE.append(...)``) is reported too.
    """
    tree = _parse(source)
    found, constants = set(), set()
    for name, constant in _mutable_bindings(tree.body):
        (constants if constant else found).add(name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found.update(f"{node.name}.{name}" for name, constant
                         in _mutable_bindings(node.body) if not constant)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)) and any(
                map(_is_mutable_value,
                    node.args.defaults + node.args.kw_defaults)):
            found.add(f"{getattr(node, 'name', 'lambda')}()")
        elif isinstance(node, ast.Global):
            found.update(node.names)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and isinstance(node.value, ast.Name):
            found.update({node.value.id} & constants)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS \
                and isinstance(node.func.value, ast.Name):
            found.update({node.func.value.id} & constants)
    return found


def names_deliver(source) -> bool:
    """Whether ``source`` reaches for ``deliver``: as an attribute, or
    by name through ``getattr(x, "deliver", ...)``."""
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "deliver":
            return True
        if isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "getattr" \
                and any(isinstance(arg, ast.Constant)
                        and arg.value == "deliver" for arg in node.args):
            return True
    return False


def wiring_violations(source, in_splice: bool = False) -> set:
    """Hand-wiring ``source`` does around the run record: a retired
    name (identifier, attribute, keyword or string, so ``getattr`` by
    name counts), ``.tracing`` / ``.splice`` read or written on
    anything called ``metrics``, or — outside ``splice/`` — a call of
    the governor's ``suspend`` / ``resume``."""
    found = set()
    for node in ast.walk(_parse(source)):
        names = {getattr(node, field, None)
                 for field in ("id", "attr", "arg", "name")}
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        found.update(names & RETIRED_NAMES)
        if isinstance(node, ast.Attribute):
            owner = node.value
            owner_name = getattr(owner, "attr", getattr(owner, "id", None))
            if node.attr in REGISTRY_LOCATOR_ATTRS \
                    and owner_name == "metrics":
                found.add(f"metrics.{node.attr}")
        if isinstance(node, ast.Call) and not in_splice \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in GOVERNOR_WINDOW_CALLS:
            found.add(f".{node.func.attr}()")
    return found


def test_no_global_random_or_host_clock():
    modules = _modules()
    assert len(modules) > 100 and "options.py" in modules
    for prefix in ALLOWED:  # no stale allowlist entries
        assert any(n == prefix or n.startswith(prefix) for n in modules)
    bad = {name: sorted(extra) for name, tree in sorted(modules.items())
           if (extra := violations(tree) - _allowed(name))}
    assert not bad, (
        f"{bad}: draw from an injected repro.simkernel RandomStreams "
        f"stream and read env.now instead (or extend ALLOWED, with a reason)")


def test_the_lint_sees_what_grep_could_not():
    assert violations("import random") == {"import random"}
    assert violations("from random import choice") == {"import random"}
    assert violations("import time as t\nx = t.perf_counter_ns()") == \
        {"import time", "perf_counter"}
    assert violations("from time import monotonic as now") == \
        {"import time", "monotonic"}
    assert violations("import time\ntime.sleep(1)") == {"import time"}
    assert violations("def f(env):\n    return env.time()") == set()
    assert violations("from .random import x\nfrom . import time") == set()


def test_process_global_mutable_state_can_only_shrink():
    found = {name: sorted(state) for name, tree in _modules().items()
             if (state := shared_state(tree))}
    assert not found, (
        f"{found}: process-global mutable state — give it to an object "
        f"its run owns, or hand it over as an argument")


def test_deliver_stays_where_its_precondition_holds():
    modules = _modules()
    for name in KERNEL_DELIVER:
        assert any(isinstance(node, ast.FunctionDef)
                   and node.name == "deliver"
                   for node in ast.walk(modules[name]))
    found = {name for name, tree in modules.items()
             if name not in KERNEL_DELIVER and names_deliver(tree)}
    assert found == DELIVER_CALLERS, (
        "Store.deliver and Event.deliver may resume the waiter before "
        "they return: call them "
        "only as the last act of a kernel (timeout) callback — tail "
        "position, once, never inside a loop over state the waiter may "
        "change — and list the module here with that argument made in "
        "review")
    assert names_deliver("sock.inbox.deliver(item)")
    assert names_deliver("wake = getattr(inbox, 'deliver', inbox.put)")
    assert not names_deliver("def deliver(x): ...\ndeliver(1)\n"
                             "delivered = 'deliver'")


def imports_gc(source) -> bool:
    """Whether ``source`` imports the garbage collector's module."""
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Import) and any(
                alias.name == "gc" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module == "gc":
            return True
    return False


def test_fewer_collections_come_from_less_garbage():
    """No ``gc.disable``, ``gc.freeze`` or threshold tuning: a run
    collects less because it leaves fewer cycles behind."""
    found = {name for name, tree in _modules().items() if imports_gc(tree)}
    assert not found, (
        f"{sorted(found)} import gc: break the cycle instead of tuning "
        "the collector")
    assert imports_gc("import gc") and imports_gc("import os, gc as g")
    assert imports_gc("from gc import freeze")
    assert not imports_gc("from . import gc\nimport gcx")


def test_the_event_counter_is_read_in_a_closed_list():
    found = {name for name, tree in _modules().items()
             if not name.startswith("simkernel/")
             and any(isinstance(node, ast.Attribute) and node.attr == "_eid"
                     for node in ast.walk(tree))}
    assert found == EID_READERS, (
        "env._eid is the kernel's: report events through the run's own "
        "result, and drop entries that are gone")


def test_one_way_to_the_runs_listeners():
    modules = _modules()
    registry = modules["metrics/registry.py"]
    assert not any(isinstance(node, ast.Attribute)
                   and node.attr in REGISTRY_LOCATOR_ATTRS
                   for node in ast.walk(registry))
    bad = {name: sorted(found) for name, tree in sorted(modules.items())
           if (found := wiring_violations(
               tree, in_splice=name.startswith("splice/")))}
    assert not bad, (
        f"{bad}: announce on the run record (repro.run) and let the "
        f"listener subscribe there; nothing is wired by hand")
    assert wiring_violations("server.invariant_tap = suite") == \
        {"invariant_tap"}
    assert wiring_violations(
        "getattr(deployment, 'invariant_suite', None)") == \
        {"invariant_suite"}
    assert wiring_violations(
        "from .orchestrator import add_release_observer") == \
        {"add_release_observer"}
    assert wiring_violations("t = self.host.metrics.tracing\n"
                             "metrics.splice = governor") == \
        {"metrics.tracing", "metrics.splice"}
    assert wiring_violations("deployment.splice.suspend('fault')") == \
        {".suspend()"}
    assert wiring_violations("self.resume(kind)", in_splice=True) == set()
    assert wiring_violations("spec.splice\nrun_record.splice\n"
                             "options.trace\ninstance.tracer") == set()


def test_the_shared_state_rule():
    assert shared_state("_observers = []") == {"_observers"}
    assert shared_state("_seen: set = set()") == {"_seen"}
    assert shared_state("import weakref\n"
                        "_by_env = weakref.WeakKeyDictionary()") == \
        {"_by_env"}
    assert shared_state("import itertools\n"
                        "_ids = itertools.count(1)") == {"_ids"}
    assert shared_state("from itertools import count\n"
                        "_ids = count()") == {"_ids"}
    assert shared_state("_slot = None\n"
                        "def use(x):\n    global _slot\n    _slot = x") == \
        {"_slot"}
    assert shared_state("_TYPES = (int,)\n"
                        "def register(t):\n    global _TYPES\n"
                        "    _TYPES += (t,)") == {"_TYPES"}
    # Constants, by construction or by (checked) convention.
    assert shared_state("__all__ = ['a']\nTABLE = {'a': 1}\n"
                        "_PAIRS = [(1, 2)]\nnames = ('a',)\n"
                        "empty = frozenset()") == set()
    assert shared_state("TABLE = {}\n"
                        "def add(k):\n    TABLE[k] = 1") == {"TABLE"}
    assert shared_state("ORDER = []\n"
                        "def add(k):\n    ORDER.append(k)") == {"ORDER"}
    # Function- and instance-level containers are not module state.
    assert shared_state("def f():\n    local = []\n    return local\n"
                        "class C:\n    def __init__(self):\n"
                        "        self.items = {}") == set()
    # A class body is built once, like a module: its containers are
    # shared by every instance, nested classes included.
    assert shared_state("class C:\n    cache = {}\n"
                        "    class Inner:\n        seen: set = set()") == \
        {"C.cache", "Inner.seen"}
    assert shared_state("class C:\n    __slots__ = ['a']\n"
                        "    KINDS = ['a']\n    order = ('a',)") == set()
    # So is a default argument: one container for every call.
    assert shared_state("def f(x=[]):\n    pass\n"
                        "def g(*, n=1, seen=set()):\n    pass\n"
                        "async def h(a, b={}):\n    pass\n"
                        "k = lambda acc=[]: acc") == \
        {"f()", "g()", "h()", "lambda()"}
    assert shared_state("def run(seed=0, options=RunOptions(),\n"
                        "        kinds=('a',), plan=None):\n    pass") == \
        set()
