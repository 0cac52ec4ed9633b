"""The call census's rules, on a planted tree (``tests/census_reached.py``
runs them over ``src/repro`` in CI; it takes minutes, this does not)."""

from tests.census_reached import census_problems, functions_in

PLANTED = {"repro/m.py": (
    "class Pool:\n"
    "    def used(self):\n"
    "        def inner():\n"
    "            pass\n"
    "    @property\n"
    "    def size(self):\n"
    "        pass\n"
    "    def __repr__(self):\n"
    "        pass\n"
    "def orphan():\n"
    "    pass\n"),
    "repro/frozen/__init__.py": "def kept():\n    pass\n"}


def _problems(reached: set, allowlist: dict) -> list:
    functions = functions_in(PLANTED)
    where = {name.split(":")[1]: spot for name, spot in functions.items()}
    return census_problems(functions, {where[name] for name in reached},
                           allowlist)


def test_the_census_names_functions_as_their_code_objects_start():
    assert functions_in(PLANTED) == {
        "repro.m:Pool.used": ("repro/m.py", 2),
        "repro.m:Pool.used.inner": ("repro/m.py", 3),
        "repro.m:Pool.size": ("repro/m.py", 5),  # the decorator's line
        "repro.m:Pool.__repr__": ("repro/m.py", 8),
        "repro.m:orphan": ("repro/m.py", 10),
        "repro.frozen:kept": ("repro/frozen/__init__.py", 1),
    }


def test_the_census_rules():
    everything = {"Pool.used", "Pool.used.inner", "Pool.size",
                  "Pool.__repr__", "orphan", "kept"}
    assert _problems(everything, {}) == []
    # An unreached function nobody listed fails...
    unreached = _problems(everything - {"orphan"}, {})
    assert len(unreached) == 1 and unreached[0].startswith("repro.m:orphan:")
    # ...and passes once it is allowlisted with a reason, as does a
    # whole module.
    allowlist = {"repro.m:orphan": "error path: a planted fault",
                 "repro.frozen": "test observation"}
    assert _problems(everything - {"orphan", "kept"}, allowlist) == []
    # A stale entry fails: its function is reached, or gone, or its
    # module is reached throughout.
    for stale in ({"repro.m:orphan": "error path"},
                  {"repro.m:gone": "error path"},
                  {"repro.frozen": "test observation"},
                  {"repro.gone": "test observation"}):
        (problem,) = _problems(everything, stale)
        assert problem.startswith(next(iter(stale)) + ": allowlisted")
    # An entry without a reason from the fixed list fails.
    for reason in ("", "nobody calls it yet"):
        (problem,) = _problems(everything - {"orphan"},
                               {"repro.m:orphan": reason})
        assert "allowlist reason" in problem

