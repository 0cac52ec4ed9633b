"""Config-surface ratchet: every spec/config field is set by somebody.

Each independently settable value doubles the configurations tests and
benchmarks would have to cover, so a field that no run, test, example
or benchmark ever sets is a constant that has not been written as one.
This walks every ``*Config`` / ``*Spec`` / ``*Policy`` / ``*Options``
dataclass under ``src/repro`` with ``ast`` and fails for any field that
no call site in ``src/``, ``bench/``, ``examples/`` or ``tests/`` sets,
outside the explicit allowlist of deployment settings.

A field counts as set when a caller passes it as a keyword (to the class
that declares or inherits it, or to a lower-case callee such as
``replace()`` or a ``**kwargs`` helper, which credits every class with
a field of that name), assigns it as an attribute, or names it as a
string constant.  A keyword to some *other* class credits nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "bench", "examples", "tests")
CONFIG_CLASS = re.compile(r"(Configs?|Spec|Policy|Options)$")

#: Deployment settings — addresses, ports and paths stay configurable
#: whether or not a run in this tree happens to move them.
DEPLOYMENT_SETTINGS = {
    "edge_vip_ip", "anycast_vip_ip", "origin_vip_ip", "https_port",
    "mqtt_port", "broker_port", "takeover_path", "forward_port_base",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def declared(sources: dict) -> dict:
    """class name → (its own annotated fields, its base-class names)."""
    classes = {}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) \
                    and CONFIG_CLASS.search(node.name):
                fields = [s.target.id for s in node.body
                          if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)]
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                classes[node.name] = (fields, bases)
    return classes


def fields_set(classes: dict, sources: dict) -> set:
    """Every ``(declaring class, field)`` some call site sets."""
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
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", "")
                for keyword in node.keywords:
                    name = keyword.arg
                    if name not in owners:
                        continue
                    if callee in classes:
                        if (cls := declaring(callee, name)):
                            used.add((cls, name))
                    elif not callee[:1].isupper():
                        used.update((cls, name) for cls in owners[name])
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                used.update((cls, node.attr)
                            for cls in owners.get(node.attr, ()))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                used.update((cls, node.value)
                            for cls in owners.get(node.value, ()))
    return used


def never_set(classes: dict, sources: dict) -> list:
    used = fields_set(classes, sources)
    return sorted(f"{cls}.{name}" for cls, (fields, _) in classes.items()
                  for name in fields
                  if (cls, name) not in used
                  and name not in DEPLOYMENT_SETTINGS)


def _read(*tops: str) -> dict:
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for top in tops for path in sorted((ROOT / top).rglob("*.py"))}


def test_every_config_field_is_set_by_some_caller():
    classes = declared(_read("src/repro"))
    assert len(classes) > 15 and "DeploymentSpec" in classes
    all_fields = {name for fields, _ in classes.values() for name in fields}
    assert DEPLOYMENT_SETTINGS <= all_fields  # no stale allowlist entries
    unset = never_set(classes, _read(*CALLERS))
    assert not unset, (
        f"{unset}: no run, test, example or benchmark sets these — make "
        f"each a named constant beside its reader (or, for an address, "
        f"port or path, extend DEPLOYMENT_SETTINGS)")


def test_the_census_resolves_by_callee_class():
    classes = declared({"m.py": (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass BaseConfigs:\n    seed: int = 0\n"
        "@dataclass\nclass ASpec(BaseConfigs):\n"
        "    jitter: float = 0.0\n    depth: int = 1\n"
        "@dataclass\nclass BConfig:\n"
        "    jitter: float = 0.0\n    https_port: int = 443\n"
        "class NotAConfig:\n    knob: int = 0\n")})
    assert set(classes) == {"BaseConfigs", "ASpec", "BConfig"}

    def unset(caller: str) -> list:
        return never_set(classes, {"c.py": caller})

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
