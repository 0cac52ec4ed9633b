"""Deterministic-RNG / monotonic-clock discipline, for every module.

Same-seed runs must replay bit-exact, so nothing under ``src/repro`` may
draw from the global ``random`` module or read a host clock: randomness
comes from an injected ``repro.simkernel`` stream, time from ``env.now``.
This walks every module with ``ast`` (so aliased imports are seen too)
and carries the few exceptions explicitly.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

CLOCKS = {"time", "perf_counter", "monotonic"}

#: path (or directory prefix) relative to src/repro → what it may use.
ALLOWED = {
    # The seeded stream factory wraps ``random.Random``.
    "simkernel/rng.py": {"import random"},
    # Benchmark timers live here and nowhere else in repro.perf.
    "perf/harness.py": {"import time", "perf_counter"},
    # Real sockets need real deadlines — monotonic ones only.
    "realnet/": {"import time", "monotonic"},
    # Human-facing "(1.2s wall)" print.
    "experiments/__main__.py": {"import time", "time"},
}


def _allowed(relative: str) -> set:
    return set().union(*(what for prefix, what in ALLOWED.items()
                         if relative == prefix
                         or (prefix.endswith("/")
                             and relative.startswith(prefix))))


def violations(source: str) -> set:
    """What ``source`` uses: ``import random``, ``import time`` and/or
    the clock functions it reaches (through any alias)."""
    tree = ast.parse(source)
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


def test_no_global_random_or_host_clock():
    modules = {p.relative_to(PACKAGE).as_posix(): p
               for p in PACKAGE.rglob("*.py")}
    assert len(modules) > 100 and "options.py" in modules
    for prefix in ALLOWED:  # no stale allowlist entries
        assert any(n == prefix or n.startswith(prefix) for n in modules)
    bad = {name: sorted(extra) for name, path in sorted(modules.items())
           if (extra := violations(path.read_text()) - _allowed(name))}
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
