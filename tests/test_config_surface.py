"""Settable-surface ratchet: every value a caller can set, some run sets.

Each independently settable value doubles the configurations tests and
benchmarks would have to cover, so a value that no run sets is a
constant that has not been written as one.  Three surfaces, one rule
each, all read with ``ast``:

* **Config fields.**  Every field of a ``*Config`` / ``*Spec`` /
  ``*Policy`` / ``*Options`` dataclass under ``src/repro`` is set by
  some call site in ``src/`` or ``bench/``, outside the explicit
  allowlist of deployment settings.  Tests and examples do not justify
  a knob: a test that needs another value patches the named constant.
* **CLI flags.**  Every long option a ``src/repro/**/__main__.py``
  declares is passed by some run: a step of the CI workflow, the call
  census's run set (``tests/census_reached.py``) or the benchmark.
* **Harness parameters.**  Every parameter of a harness's ``run()``
  other than ``seed`` and ``options`` is passed by some call in
  ``src/``, ``tests/``, ``examples/`` or ``bench/``: tests shrink a
  figure through these to keep tier-1 fast.

A field counts as set when a caller passes it as a keyword (to the class
that declares or inherits it, or to a lower-case callee such as
``replace()`` or a ``**kwargs`` helper, which credits every class with
a field of that name), assigns it as an attribute, or names it as a
string constant.  A keyword to some *other* class credits nothing, and
neither does a keyword whose value is the literal the field declares as
its default: passing the default sets nothing a run varies.  A harness
parameter counts as passed when some call of a ``run`` passes a keyword
of its name.
"""

import ast
import re
from pathlib import Path

from repro.experiments import ALL_EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "bench")
CONFIG_CLASS = re.compile(r"(Configs?|Spec|Policy|Options)$")
LONG_OPTION = re.compile(r"--[a-z][a-z0-9-]*")

#: Deployment settings — addresses, ports and paths stay configurable
#: whether or not a run in this tree happens to move them.
DEPLOYMENT_SETTINGS = {
    "edge_vip_ip", "anycast_vip_ip", "origin_vip_ip", "https_port",
    "mqtt_port", "broker_port", "port", "takeover_path",
    "forward_port_base",
}

#: Harness parameters every figure takes alike.
HARNESS_COMMON = {"seed", "options"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _config_classes(sources: dict):
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) \
                    and CONFIG_CLASS.search(node.name):
                yield node, [s for s in node.body
                             if isinstance(s, ast.AnnAssign)
                             and isinstance(s.target, ast.Name)]


def declared(sources: dict) -> dict:
    """class name → (its own annotated fields, its base-class names)."""
    return {node.name: ([s.target.id for s in fields],
                        [b.id for b in node.bases if isinstance(b, ast.Name)])
            for node, fields in _config_classes(sources)}


_NOT_A_LITERAL = object()


def _literal(node) -> object:
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NOT_A_LITERAL


def literal_defaults(sources: dict) -> dict:
    """``(class, field)`` → the literal its declaration defaults to (a
    field without a default, or with a computed one, is absent)."""
    defaults = {}
    for node, fields in _config_classes(sources):
        for statement in fields:
            if statement.value is not None:
                value = _literal(statement.value)
                if value is not _NOT_A_LITERAL:
                    defaults[node.name, statement.target.id] = value
    return defaults


def fields_set(classes: dict, sources: dict, defaults=None) -> set:
    """Every ``(declaring class, field)`` some call site under
    :data:`CALLERS` sets (``sources`` is keyed by repo-relative path) to
    something other than its literal default (``defaults``, as from
    :func:`literal_defaults`)."""
    defaults = defaults or {}
    owners = {}
    for cls, (fields, _) in classes.items():
        for name in fields:
            owners.setdefault(name, set()).add(cls)

    def declaring(cls, name):
        if name in classes[cls][0]:
            return cls
        for base in classes[cls][1]:
            if base in classes and (found := declaring(base, name)):
                return found
        return None

    used = set()
    for path, source in sources.items():
        if path.split("/")[0] not in CALLERS:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", "")
                for keyword in node.keywords:
                    name = keyword.arg
                    if name not in owners:
                        continue
                    value = _literal(keyword.value)
                    if callee in classes:
                        targets = {declaring(callee, name)} - {None}
                    elif not callee[:1].isupper():
                        targets = owners[name]
                    else:
                        continue
                    used.update(
                        (cls, name) for cls in targets
                        if value is _NOT_A_LITERAL
                        or defaults.get((cls, name), _NOT_A_LITERAL) != value)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                used.update((cls, node.attr)
                            for cls in owners.get(node.attr, ()))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                used.update((cls, node.value)
                            for cls in owners.get(node.value, ()))
    return used


def never_set(classes: dict, sources: dict, defaults=None) -> list:
    used = fields_set(classes, sources, defaults)
    return sorted(f"{cls}.{name}" for cls, (fields, _) in classes.items()
                  for name in fields
                  if (cls, name) not in used
                  and name not in DEPLOYMENT_SETTINGS)


def declared_flags(mains: dict) -> dict:
    """Long option → the ``__main__.py`` whose parser declares it."""
    flags = {}
    for path, source in mains.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", "") == "add_argument":
                for arg in node.args:
                    if isinstance(arg, ast.Constant) \
                            and str(arg.value).startswith("--"):
                        flags[arg.value] = path
    return flags


def _strings(tree: ast.AST) -> list:
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def flags_never_passed(mains: dict, workflow: str, census: str,
                       bench: dict) -> list:
    """``path: flag`` for each declared long option that no CI step,
    census run (the strings of ``_runs()``) or benchmark source passes."""
    texts = [workflow]
    texts += [text for node in ast.walk(ast.parse(census))
              if isinstance(node, ast.FunctionDef) and node.name == "_runs"
              for text in _strings(node)]
    texts += [text for source in bench.values()
              for text in _strings(ast.parse(source))]
    passed = {flag for text in texts for flag in LONG_OPTION.findall(text)}
    return sorted(f"{path}: {flag}"
                  for flag, path in declared_flags(mains).items()
                  if flag not in passed)


def harness_parameters(harnesses: dict) -> dict:
    """Harness name → the parameters of its module-level ``run()``."""
    parameters = {}
    for name, source in harnesses.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name == "run":
                arguments = node.args.args + node.args.kwonlyargs
                parameters[name] = [a.arg for a in arguments
                                    if a.arg not in HARNESS_COMMON]
    return parameters


def parameters_never_passed(harnesses: dict, sources: dict) -> list:
    """``harness.parameter`` for each harness ``run()`` parameter that
    no call of a ``run`` passes as a keyword."""
    passed = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", "")
                if callee == "run":
                    passed.update(k.arg for k in node.keywords)
    return sorted(f"{name}.{parameter}"
                  for name, parameters in harness_parameters(harnesses).items()
                  for parameter in parameters
                  if parameter not in passed)


def _read(*tops: str) -> dict:
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for top in tops for path in sorted((ROOT / top).rglob("*.py"))}


def test_every_config_field_is_set_by_some_caller():
    sources = _read("src/repro")
    classes = declared(sources)
    assert len(classes) > 15 and "DeploymentSpec" in classes
    all_fields = {name for fields, _ in classes.values() for name in fields}
    assert DEPLOYMENT_SETTINGS <= all_fields  # no stale allowlist entries
    unset = never_set(classes, _read(*CALLERS), literal_defaults(sources))
    assert not unset, (
        f"{unset}: no run in src/ or bench/ sets these to anything but "
        f"their default — make each a "
        f"named constant beside its reader, which a test may patch (or, "
        f"for an address, port or path, extend DEPLOYMENT_SETTINGS)")


def test_every_cli_flag_is_passed_by_some_run():
    mains = {path: source for path, source in _read("src/repro").items()
             if path.endswith("/__main__.py")}
    assert len(declared_flags(mains)) > 15
    unpassed = flags_never_passed(
        mains, (ROOT / ".github/workflows/ci.yml").read_text(),
        (ROOT / "tests/census_reached.py").read_text(), _read("bench"))
    assert not unpassed, (
        f"{unpassed}: no CI step, census run or benchmark passes these — "
        f"make each a named constant beside its reader")


def test_every_harness_parameter_is_passed_by_some_call():
    harnesses = {name: Path(module.__file__).read_text()
                 for name, module in ALL_EXPERIMENTS.items()}
    assert set(harness_parameters(harnesses)) == set(ALL_EXPERIMENTS)
    unpassed = parameters_never_passed(
        harnesses, _read("src", "tests", "examples", "bench"))
    assert not unpassed, (
        f"{unpassed}: no call passes these — make each a named constant "
        f"beside its reader (keep its param row)")


def test_the_census_resolves_by_callee_class():
    planted = {"m.py": (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass BaseConfigs:\n    seed: int = SEED\n"
        "@dataclass\nclass ASpec(BaseConfigs):\n"
        "    jitter: float = -0.5\n    depth: int = 1\n"
        "@dataclass\nclass BConfig:\n"
        "    jitter: float = 0.0\n    https_port: int = 443\n"
        "class NotAConfig:\n    knob: int = 0\n")}
    classes = declared(planted)
    assert set(classes) == {"BaseConfigs", "ASpec", "BConfig"}

    def unset(caller: str, path: str = "src/c.py") -> list:
        return never_set(classes, {path: caller})

    everything = ["ASpec.depth", "ASpec.jitter", "BConfig.jitter",
                  "BaseConfigs.seed"]
    assert unset("") == everything
    # Inherited field, credited to the class that declares it.
    assert "BaseConfigs.seed" not in unset("ASpec(seed=1)")
    # A keyword to one class does not mask the same name on another,
    # and a keyword to an unrelated class credits nobody.
    assert unset("ASpec(jitter=1)") == [
        "ASpec.depth", "BConfig.jitter", "BaseConfigs.seed"]
    assert unset("LinkProfile(jitter=1)") == everything
    # replace()/helpers, attribute stores and string keys cannot be
    # resolved, so they credit every class with the name.
    for caller in ("replace(cfg, jitter=1)", "cfg.jitter = 1",
                   "setattr(cfg, 'jitter', 1)"):
        assert unset(caller) == ["ASpec.depth", "BaseConfigs.seed"]
    # Passing the declared literal default sets nothing; any other
    # value, or one the census cannot read as a literal, does.  A
    # default that is not a literal (``SEED``) is never matched.
    defaults = literal_defaults(planted)
    assert defaults == {("ASpec", "jitter"): -0.5, ("ASpec", "depth"): 1,
                        ("BConfig", "jitter"): 0.0,
                        ("BConfig", "https_port"): 443}

    def unset_default(caller: str) -> list:
        return never_set(classes, {"src/c.py": caller}, defaults)

    assert unset_default("ASpec(depth=1, jitter=-0.5)") == everything
    assert unset_default("ASpec(depth=2)") == [
        "ASpec.jitter", "BConfig.jitter", "BaseConfigs.seed"]
    assert unset_default("ASpec(depth=DEPTH)") == unset_default(
        "ASpec(depth=2)")
    assert unset_default("replace(cfg, jitter=0.0)") == [
        "ASpec.depth", "BConfig.jitter", "BaseConfigs.seed"]
    assert "BaseConfigs.seed" not in unset_default("ASpec(seed=0)")
    # A benchmark is a run; a test or an example is not.
    assert "ASpec.depth" not in unset("ASpec(depth=2)", "bench/w.py")
    for path in ("tests/test_a.py", "examples/demo.py"):
        assert "ASpec.depth" in unset("ASpec(depth=2)", path)


def test_the_flag_and_parameter_rules():
    mains = {"src/repro/tool/__main__.py": (
        "p.add_argument('cmd')\n"
        "p.add_argument('--trace', action='store_true')\n"
        "p.add_argument('--trace-json')\np.add_argument('--seed')\n")}

    def unpassed(workflow="", census="", bench=""):
        return flags_never_passed(mains, workflow, census,
                                  {"bench/b.py": bench})

    every = [f"src/repro/tool/__main__.py: {flag}"
             for flag in ("--seed", "--trace", "--trace-json")]
    assert unpassed() == every
    # A longer option does not pass its prefix.
    assert unpassed(workflow="run --trace-json x") == [every[0], every[1]]
    # Census runs count only from the run set, not a docstring.
    census = ('"""--seed"""\n'
              'def _runs():\n    return [["--trace", "--seed 1"]]\n')
    assert unpassed(census=census) == [every[2]]
    assert unpassed(bench='ARGV = ["--trace-json", "x"]') == every[:2]

    harnesses = {"figX": "def run(seed=0, flows=10, drain=5.0, "
                         "options=None):\n    pass\n"
                         "def run_arm(users=3):\n    pass\n"}
    assert harness_parameters(harnesses) == {"figX": ["flows", "drain"]}
    assert parameters_never_passed(harnesses, {"t.py": ""}) == [
        "figX.drain", "figX.flows"]
    # A keyword to some call of a ``run`` passes it; one to another
    # callee does not.
    assert parameters_never_passed(harnesses, {"t.py": (
        "figX.run(seed=1, flows=2)\nrun_arm(drain=1)\n")}) == ["figX.drain"]
