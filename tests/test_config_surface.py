"""Settable-surface ratchet: every value a caller can set, some run sets.

Each independently settable value doubles the configurations tests and
benchmarks would have to cover, so a value that no run sets is a
constant that has not been written as one.  Four surfaces, one rule
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
* **Defaulted parameters.**  Every parameter with a default, positional
  or keyword-only, of every ``def`` under ``src/repro`` is passed
  something other than that default by some call in ``src/`` or
  ``bench/`` — for a function under ``repro/experiments/``, in
  ``tests/`` or ``examples/`` too — outside :data:`PARAMETER_ALLOWLIST`
  (kernel API the kernel tests drive, a CLI entry point's ``argv``;
  it can only shrink) and the deployment settings.

A field counts as set when a caller passes it as a keyword (to the class
that declares or inherits it, or to a lower-case callee such as
``replace()`` or a ``**kwargs`` helper, which credits every class with
a field of that name), assigns it as an attribute, or names it as a
string constant.  A keyword to some *other* class credits nothing, and
neither does a keyword whose value is the literal the field declares as
its default: passing the default sets nothing a run varies.  A harness
parameter counts as passed when some call of a ``run`` passes a keyword
of its name.

A call passes a defaulted parameter positionally past its index, by
keyword with a value other than its literal default, or through
``*args`` / ``**kwargs``; a value that is the calling function's own
defaulted parameter passes on whatever that one is passed.  Callees
resolve by name: a class to its (or its nearest base's) ``__init__``,
``super().__init__`` to the enclosing class's bases, an imported name
to its module's def, ``self.m`` and a receiver whose class an
annotation, a constructor or a ``self.x = C(...)`` shows to that
class's method, any other ``x.m`` to every method ``m``; a
``f(*args, **kwargs)`` pass-through's callers call what it wraps.  A
call through a lower-case name that no def has (``cls(...)``,
``listener(...)``), or a ``**fields`` a def hands such a name, credits
every function that is passed around as a value and has a parameter of
that keyword's name.
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


def _moves(value, default) -> bool:
    """Whether passing ``value`` sets something other than ``default``:
    a value the census cannot read as a literal always does, and a
    default that is not a literal is never matched."""
    return value is _NOT_A_LITERAL or default is _NOT_A_LITERAL \
        or value != default


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


#: Why a defaulted parameter may keep a value no run passes.  Every
#: :data:`PARAMETER_ALLOWLIST` reason starts with one of these.
PARAMETER_REASONS = (
    "kernel API the kernel tests drive",
    "a CLI entry point's argv",
)

#: ``module:Qualname(parameter=)`` → why it stays settable.  Like the
#: call census's allowlist it can only shrink: an entry some run now
#: passes, or one that names nothing, fails.
PARAMETER_ALLOWLIST = {
    "repro.simkernel.core:Environment.__init__(initial_time=)":
        "kernel API the kernel tests drive: a clock that starts late "
        "(tests/simkernel/test_core_edge_cases.py)",
    "repro.simkernel.core:Environment.schedule(delay=)":
        "kernel API the kernel tests drive: an event put on a chosen "
        "lane (tests/simkernel/test_kernel_properties.py)",
    "repro.simkernel.core:Environment.schedule(priority=)":
        "kernel API the kernel tests drive: an event put on a chosen "
        "lane (tests/simkernel/test_kernel_properties.py)",
    "repro.fuzz.__main__:main(argv=)":
        "a CLI entry point's argv: tests drive `python -m repro.fuzz` "
        "in process",
}

#: The package whose functions tests and examples may justify a
#: parameter of: the experiment harnesses, which tests shrink.
HARNESS_PACKAGE = "src/repro/experiments/"


def _module(path: str) -> str:
    dotted = path.removeprefix("src/").removesuffix(".py").replace("/", ".")
    return dotted.removesuffix(".__init__")


class _Def:
    """One ``def``: its name and its defaulted parameters."""

    def __init__(self, path: str, qualname: str, node, owner):
        self.name = f"{_module(path)}:{qualname}"
        self.short = node.name
        self.module = _module(path)
        self.owner = owner  # the class whose body holds it, or None
        self.harness = path.startswith(HARNESS_PACKAGE)
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        bound = owner is not None and not any(
            getattr(d, "id", "") == "staticmethod"
            for d in node.decorator_list)
        #: parameter → (its index among what a caller passes
        #: positionally, or None if keyword-only; its literal default).
        self.defaulted = {}
        first = len(positional) - len(arguments.defaults)
        for index, default in enumerate(arguments.defaults, first):
            self.defaulted[positional[index].arg] = (
                index - bound, _literal(default))
        for argument, default in zip(arguments.kwonlyargs,
                                     arguments.kw_defaults):
            if default is not None:
                self.defaulted[argument.arg] = (None, _literal(default))
        #: Whether ``**kwargs`` goes on to a function held in a name
        #: (``listener(name, **fields)``), which may be anything.
        self.forwards_keywords = arguments.kwarg is not None and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and any(k.arg is None and getattr(k.value, "id", "")
                    == arguments.kwarg.arg for k in call.keywords)
            for call in ast.walk(node))
        self.parameters = {a.arg: a.annotation
                           for a in positional + arguments.kwonlyargs}
        self.spread = (getattr(arguments.vararg, "arg", None),
                       getattr(arguments.kwarg, "arg", None))
        self.returns = node.returns

    def key(self, parameter: str) -> str:
        return f"{self.name}({parameter}=)"


class _Functions:
    """Every ``def`` of a tree, indexed the ways a call names one."""

    def __init__(self, sources: dict):
        self.defs = []
        self.classes = {}  # name → [(base names, {method: _Def})]
        self.modules = {_module(path) for path in sources}
        self.at = {}  # (path, line of the def) → _Def
        self.attributes = {}  # (class, attribute) → classes it holds
        for path, source in sources.items():
            tree = ast.parse(source)
            self._visit(path, tree.body, "", None)
            self._attributes(tree)
        self.by_name, self.by_parameter = {}, {}
        for record in self.defs:
            self.by_name.setdefault(record.short, []).append(record)
            for parameter in record.defaulted:
                self.by_parameter.setdefault(parameter, []).append(record)
        self.values = set()
        #: A ``f(*args, **kwargs)`` pass-through's name → what it calls.
        self.wraps = {}

    def passed_around(self, sources: dict):
        """Note the functions and classes ``sources`` use as values (not
        calling them): a call through a name may reach these."""
        for source in sources.values():
            tree = ast.parse(source)
            skip = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    skip.add(id(node.func))
                for annotation in (getattr(node, "annotation", None),
                                   getattr(node, "returns", None)):
                    skip.update(map(id, ast.walk(annotation))
                                if annotation else ())
            for node in ast.walk(tree):
                if id(node) in skip \
                        or not isinstance(node, (ast.Name, ast.Attribute)):
                    continue
                name = getattr(node, "id", getattr(node, "attr", None))
                if name in self.classes:
                    self.values.update(self.method(name, "__init__"))
                else:
                    self.values.update(self.by_name.get(name, ()))

    def _visit(self, path, body, prefix, owner) -> dict:
        """Record the defs in ``body``; return its own, by name."""
        own = {}
        for node in body:
            if isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, []).append((
                    [getattr(b, "id", getattr(b, "attr", ""))
                     for b in node.bases],
                    self._visit(path, node.body, f"{prefix}{node.name}.",
                                node.name)))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own[node.name] = _Def(path, prefix + node.name, node, owner)
                self.defs.append(own[node.name])
                self.at[path, node.lineno] = own[node.name]
                self._visit(path, node.body, f"{prefix}{node.name}.", None)
        return own

    def _attributes(self, tree):
        """``self.x = SomeClass(...)`` and ``self.x: SomeClass`` in a
        class's methods: ``x`` holds a ``SomeClass``."""
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign) \
                        and isinstance(node.value, ast.Call):
                    held = self.named(node.value.func)
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    held, targets = self.named(node.annotation), [node.target]
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and getattr(target.value, "id", "") == "self":
                        self.attributes.setdefault(
                            (cls.name, target.attr), set()).update(held)

    def named(self, annotation) -> set:
        """The classes of this tree an annotation (or a callee) names:
        ``C``, ``m.C``, ``"C"``, ``Optional[C]`` or ``C | None``."""
        if isinstance(annotation, ast.Subscript) \
                and getattr(annotation.value, "id", "") == "Optional":
            return self.named(annotation.slice)
        if isinstance(annotation, ast.BinOp):
            return self.named(annotation.left) | self.named(annotation.right)
        name = getattr(annotation, "id", getattr(annotation, "attr", None))
        if isinstance(annotation, ast.Constant):
            name = annotation.value
        return {name} if name in self.classes else set()

    def method(self, cls: str, name: str) -> list:
        """What ``cls.name`` runs: its own def, or the nearest base's."""
        found = []
        for bases, methods in self.classes.get(cls, ()):
            if name in methods:
                found.append(methods[name])
            else:
                for base in bases:
                    found += self.method(base, name)
        return found

    def top_level(self, module: str, name: str) -> list:
        """What calling ``name`` as imported from ``module`` runs (a
        name a package re-exports resolves by name alone)."""
        if name in self.classes:
            return self.method(name, "__init__")
        defs = [d for d in self.by_name.get(name, ()) if d.owner is None]
        return [d for d in defs if d.module == module] or defs


def _imports(path: str, tree: ast.AST, functions: _Functions) -> dict:
    """Local name → ``(module, name)`` it imports (name None: a module)."""
    package = _module(path).split(".")
    if not path.endswith("/__init__.py"):
        package = package[:-1]
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name in functions.modules:
                    names[alias.asname] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                submodule = f"{module}.{alias.name}"
                names[alias.asname or alias.name] = (
                    (submodule, None) if submodule in functions.modules
                    else (module, alias.name))
    return names


class _Calls(ast.NodeVisitor):
    """Reads one file's calls into credits: ``direct`` (keys some call
    passes) and ``forwarded`` (key → the enclosing defs' keys whose
    parameter a call passes on unchanged)."""

    def __init__(self, functions: _Functions, path: str, tree, direct: set,
                 forwarded: dict):
        self.functions, self.path = functions, path
        self.module = _module(path)
        self.imports = _imports(path, tree, functions)
        self.direct, self.forwarded = direct, forwarded
        #: Enclosing defs, innermost last, each with the classes its
        #: local names hold.
        self.scopes = []
        self.visit(tree)

    def _enter(self, node):
        record = self.functions.at.get((self.path, node.lineno))
        held = {}
        if record is not None:
            for name, annotation in record.parameters.items():
                held[name] = self.functions.named(annotation)
            if record.owner is not None:
                held["self"] = held["cls"] = {record.owner}
        self.scopes.append((record, held))
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Assign(self, node):
        self.generic_visit(node)
        if self.scopes:
            held = self.classes_of(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.scopes[-1][1][target.id] = held

    def _own_class(self):
        for record, _ in reversed(self.scopes):
            if record is not None and record.owner is not None:
                return record.owner
        return None

    def classes_of(self, expression) -> set:
        """The classes of this tree ``expression`` may evaluate to, as
        far as names, ``self`` attributes and annotations tell."""
        functions = self.functions
        if isinstance(expression, ast.Name):
            for _, held in reversed(self.scopes):
                if expression.id in held:
                    return held[expression.id]
            return set()
        if isinstance(expression, ast.Attribute):
            return {held for owner in self.classes_of(expression.value)
                    for held in functions.attributes.get(
                        (owner, expression.attr), ())}
        if isinstance(expression, ast.Call):
            callees = self.callees(expression.func)
            return {held for record in callees or ()
                    for held in ({record.owner}
                                 if record.short == "__init__"
                                 else functions.named(record.returns))}
        return set()

    def callees(self, func) -> list:
        """The defs a call of ``func`` may reach: none if it cannot be
        resolved, or None for a lower-case name no def has
        (``cls(...)``, ``listener(...)``)."""
        functions = self.functions
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.imports:
                module, imported = self.imports[name]
                if imported is not None:
                    return functions.top_level(module, imported)
            if name in functions.classes:
                return functions.method(name, "__init__")
            local = [d for d in functions.by_name.get(name, ())
                     if d.module == self.module and d.owner is None]
            if local or name in functions.by_name:
                return local or functions.by_name[name]
            return None if name[:1].islower() else []
        if not isinstance(func, ast.Attribute):
            return []
        name, receiver = func.attr, func.value
        if isinstance(receiver, ast.Call) \
                and getattr(receiver.func, "id", "") == "super":
            return [d for bases, _ in functions.classes.get(
                        self._own_class(), ())
                    for base in bases
                    for d in functions.method(base, name)]
        if isinstance(receiver, ast.Name) and receiver.id in self.imports:
            module, imported = self.imports[receiver.id]
            if imported is None:
                return functions.top_level(module, name)
        found = [d for owner in self.classes_of(receiver)
                 for d in functions.method(owner, name)]
        if found:
            return found
        if name in functions.classes:
            return functions.method(name, "__init__")
        candidates = functions.by_name.get(name, [])
        methods = [d for d in candidates if d.owner is not None]
        # A receiver of unknown class: every method of that name (or
        # function, reached through a module object) may be the one.
        return methods or candidates

    def _forwarded_from(self, value):
        """The key of the enclosing def's defaulted parameter ``value``
        names, if it is one."""
        if isinstance(value, ast.Name):
            for record, _ in reversed(self.scopes):
                if record is not None and value.id in record.parameters:
                    return record.key(value.id) \
                        if value.id in record.defaulted else None
        return None

    def _credit(self, key, value, default=_NOT_A_LITERAL):
        source = self._forwarded_from(value)
        if source is not None:
            self.forwarded.setdefault(key, set()).add(source)
        elif _moves(_literal(value), default):
            self.direct.add(key)

    def _credit_by_name(self, keywords: dict):
        """A keyword to a function held in a name credits every function
        that is passed around as a value and has a parameter of its
        name."""
        for name, value in keywords.items():
            for record in self.functions.by_parameter.get(name, ()):
                if record in self.functions.values:
                    self._credit(record.key(name), value,
                                 record.defaulted[name][1])

    def _wrapper(self, node):
        """The enclosing def, if ``node`` is its whole
        ``f(*args, **kwargs)`` pass-through."""
        record = self.scopes[-1][0] if self.scopes else None
        if record is None or None in record.spread \
                or len(node.args) != 1 or len(node.keywords) != 1:
            return None
        starred, keyword = node.args[0], node.keywords[0]
        if isinstance(starred, ast.Starred) and keyword.arg is None \
                and (getattr(starred.value, "id", None),
                     getattr(keyword.value, "id", None)) == record.spread:
            return record
        return None

    def visit_Call(self, node):
        self.generic_visit(node)
        callees = self.callees(node.func)
        wrapper = self._wrapper(node)
        if wrapper is not None:
            # Its callers' arguments reach the callee, not these.
            self.functions.wraps[wrapper.name] = callees or []
            return
        if callees:
            callees = callees + [wrapped for record in callees for wrapped
                                 in self.functions.wraps.get(record.name, ())]
        keywords = {k.arg: k.value for k in node.keywords if k.arg}
        if callees is None:
            self._credit_by_name(keywords)
            return
        spread_keywords = any(k.arg is None for k in node.keywords)
        positional = []
        for argument in node.args:
            if isinstance(argument, ast.Starred):
                break
            positional.append(argument)
        spread = len(positional) < len(node.args)
        for record in callees:
            for parameter, (index, default) in record.defaulted.items():
                key = record.key(parameter)
                if parameter in keywords:
                    self._credit(key, keywords[parameter], default)
                elif index is not None and index < len(positional):
                    self._credit(key, positional[index])
                elif spread_keywords or (spread and index is not None):
                    self.direct.add(key)
            if record.forwards_keywords:
                self._credit_by_name({
                    name: value for name, value in keywords.items()
                    if name not in record.parameters})


def parameters_never_set(functions: dict, callers: dict,
                         harness_callers: dict) -> list:
    """``module:Qualname(parameter=)`` for each defaulted parameter of a
    ``def`` in ``functions`` (repo-relative path → source) that no call
    in ``callers`` passes — nor, for a harness function, one in
    ``harness_callers``.

    A call passes a parameter positionally past its index, by keyword
    with a value other than its literal default, or through ``*args`` /
    ``**kwargs``.  A value that is the calling function's own defaulted
    parameter passes on whatever that parameter is passed."""
    tree = _Functions(functions)
    tree.passed_around({**functions, **callers})
    for path, source in functions.items():  # find the pass-throughs
        _Calls(tree, path, ast.parse(source), set(), {})
    direct, forwarded, by_tests = set(), {}, set()
    for sources, credits in ((callers, direct), (harness_callers, by_tests)):
        for path, source in sources.items():
            _Calls(tree, path, ast.parse(source), credits, forwarded)
    harness = {d.key(p) for d in tree.defs if d.harness for p in d.defaulted}
    passed = direct | (by_tests & harness)
    while True:
        more = {key for key, sources in forwarded.items()
                if key not in passed and sources & passed}
        if not more:
            break
        passed |= more
    return sorted(d.key(p) for d in tree.defs for p in d.defaulted
                  if d.key(p) not in passed and p not in DEPLOYMENT_SETTINGS)


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


def test_every_defaulted_parameter_is_passed_by_some_call():
    unset = parameters_never_set(_read("src/repro"), _read(*CALLERS),
                                 _read("tests", "examples"))
    assert len(unset) >= len(PARAMETER_ALLOWLIST)
    unpassed = sorted(set(unset) - set(PARAMETER_ALLOWLIST))
    assert not unpassed, (
        f"{unpassed}: no call in src/ or bench/ (or, for a harness, in "
        f"tests/ or examples/) passes these anything but their default — "
        f"make each a named constant beside its reader, which a test may "
        f"patch")
    stale = sorted(set(PARAMETER_ALLOWLIST) - set(unset))
    assert not stale, (
        f"{stale}: allowlisted, but some call passes it or it is gone — "
        f"delete the entry")
    for entry, reason in PARAMETER_ALLOWLIST.items():
        assert reason.startswith(PARAMETER_REASONS), (entry, reason)


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


def test_the_parameter_rule():
    functions = {"src/repro/m.py": (
        "class Base:\n"
        "    def __init__(self, depth=1, *, width=2):\n        pass\n"
        "class Child(Base):\n"
        "    def __init__(self):\n        super().__init__(3)\n"
        "class Pool:\n"
        "    def __init__(self, size=8, name='p'):\n        pass\n"
        "def fetch(url, retries=3, timeout=5.0):\n    pass\n"
        "def wrapper(*args, **kwargs):\n    return fetch(*args, **kwargs)\n"
        "def outer(limit=3):\n    return inner(limit=limit)\n"
        "def inner(limit=3):\n    pass\n"),
        "src/repro/experiments/figX.py": "def run_arm(flows=10):\n    pass\n"}
    every = ["repro.experiments.figX:run_arm(flows=)",
             "repro.m:Base.__init__(width=)",
             "repro.m:Pool.__init__(name=)", "repro.m:Pool.__init__(size=)",
             "repro.m:fetch(retries=)", "repro.m:fetch(timeout=)",
             "repro.m:inner(limit=)", "repro.m:outer(limit=)"]

    def unset(caller: str = "") -> list:
        return parameters_never_set(
            functions, {**functions, "src/c.py": caller}, {})

    # super().__init__ passes the base's depth positionally.
    assert unset() == every
    # Positionally past its index, or by keyword...
    assert unset("fetch('u', 4)") == [k for k in every
                                      if k != "repro.m:fetch(retries=)"]
    assert unset("fetch('u', timeout=1.0)") == [
        k for k in every if k != "repro.m:fetch(timeout=)"]
    # ...but not by keyword with the literal default it declares.
    assert unset("fetch('u', retries=3, timeout=5.0)") == every
    assert "repro.m:fetch(retries=)" not in unset("fetch('u', retries=N)")
    # *args / **kwargs pass everything; a pass-through's callers pass
    # to what it wraps, not the pass-through's own spread.
    assert "repro.m:fetch(timeout=)" not in unset("fetch(*xs)")
    assert unset("wrapper('u', retries=4)") == [
        k for k in every if k != "repro.m:fetch(retries=)"]
    # A class call reaches its __init__; a forwarded parameter is passed
    # what the forwarding one is.
    assert "repro.m:Pool.__init__(size=)" not in unset("Pool(16)")
    assert "repro.m:inner(limit=)" not in unset("outer(limit=5)")
    # A lower-case name no def has reaches only what is passed around
    # as a value, by keyword.
    assert "repro.m:Pool.__init__(name=)" in unset("cls(name='q')")
    assert "repro.m:Pool.__init__(name=)" not in unset(
        "KINDS = {'pool': Pool}\ncls(name='q')")
    # Tests and examples count for a harness function only.
    harness = "repro.experiments.figX:run_arm(flows=)"
    only_tests = parameters_never_set(
        functions, functions,
        {"tests/t.py": "run_arm(flows=2)\nfetch('u', retries=4)"})
    assert harness not in only_tests
    assert "repro.m:fetch(retries=)" in only_tests


def test_the_parameter_rule_reads_the_receiver():
    functions = {"src/repro/m.py": (
        "class Series:\n"
        "    def series(self, start, end, default=0.0):\n        pass\n"
        "class Registry:\n"
        "    def series(self, name, mode='sum') -> Series:\n        pass\n"
        "    def window(self, metrics: 'Registry'):\n"
        "        return metrics.series('x').series(0, 1)\n")}
    mode = "repro.m:Registry.series(mode=)"
    assert mode in parameters_never_set(functions, functions, {})
    # A receiver of unknown class may be either's: both are credited.
    caller = {**functions, "src/c.py": "thing.series(0, 1)"}
    assert mode not in parameters_never_set(functions, caller, {})
