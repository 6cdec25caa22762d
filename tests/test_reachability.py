"""Nothing under ``src/repro`` is kept alive only by its own tests.

ROADMAP rule: a module backs a CLI verb — a table, the claims ledger
(``python -m repro claims``, whose registry reaches every ablation's
module), the fleet, chaos, lint — or it goes with its example and
tests.  Mechanically: every module must be importable by following
imports from the one root, ``repro.__main__`` — directly, or through a
name a package ``__init__`` re-exports.  An ``__init__``'s own import
of its submodule does not count (it would make every module reachable
by construction); tests and examples are not roots, and there is no
allowlist.

The same holds one level down: every function, method, property and
class defined under ``src/repro`` is named somewhere in ``src/`` or
``bench/`` outside its own definition.  Names are matched, not
resolved: a ``Name``, an ``Attribute``, a ``from``-import or an
identifier string (``__all__``) counts.  Exemptions go by rule:
dunders, the ``visit_*`` methods of an ``ast.NodeVisitor`` (its
``visit`` dispatches to them by name), and functions handed to a
project-defined decorator (``@_claim`` registers each claim).

And one level further: an *option* — a defaulted ``__init__``
parameter or a defaulted dataclass field of a class under
``src/repro`` — must be given a value at some call of its own class in
``src/`` or non-test ``bench/``: by keyword, by position, through
``dataclasses.replace`` / ``.replace`` (dataclass fields), or as a
string key of a dict display, a ``dict(...)`` keyword or a
``d["key"] =`` store in a function that feeds ``**`` (or of a dict a
function returns when its result is fed to ``**``).  A call through
``cls(...)`` counts for the class it is in, ``super().__init__(...)``
for its bases, a module-level alias (``TwoHostNetwork = Network``) for
the class it names, and a keyword passed to a function or class that
forwards its ``**`` parameter counts for the callee it forwards to.
Names are matched as above.
One exemption goes by rule: the fields of a dataclass ``src/``
assigns into after construction (result and counter records —
``FetchResult``, ``PerfCounters``, ``MatrixStats``).  Fault injection
is no exception: a test that needs a faulty unit stands in for
``repro.matrix.runner.run_unit`` instead of setting an option.  A
spec's fields are options like any other: a field only tests set
would key the cache for a measurement nothing runs.

And state: an attribute a class under ``src/repro`` stores on ``self``
must be loaded somewhere in ``src/``, ``tests/``, ``bench/``,
``examples/`` or ``scripts/`` — an ``Attribute`` load, or the name as a
string given to ``getattr`` / ``hasattr``.  An augmented assignment
stores; it is not a read.  Names are matched as above, so an attribute
that shares its name with one something reads escapes; there is no
allowlist.
"""

import ast
import collections
import functools
import pathlib
import sys

from repro.lint.graph import build_graph, terminal_name

REPO = pathlib.Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def _graph(directory):
    """The parsed modules of ``REPO / directory``, built once for the
    gates."""
    return build_graph(REPO / directory).modules


def _unreached():
    modules = _graph("src/repro")
    packages = {name for name, info in modules.items()
                if info.path.endswith("__init__.py")}

    def resolve(origin, symbol):
        """The plain module an imported name lives in, if any."""
        while origin in packages and symbol:
            # Follow the __init__'s re-export (None: bound right there).
            origin, symbol = modules[origin].imports.get(symbol,
                                                         (None, ""))
        if origin in modules and origin not in packages:
            return origin
        return None

    queue = list(modules["__main__"].imports.values())
    reached = set()
    while queue:
        module = resolve(*queue.pop())
        if module is not None and module not in reached:
            reached.add(module)
            queue.extend(modules[module].imports.values())
    return set(modules) - packages - reached - {"__main__"}


def _imports_lint(info):
    """Whether a module imports ``repro.lint``, relatively (resolved to
    ``lint...``) or absolutely (an external-looking ``repro.lint...``)."""
    return (any(module.split(".")[0] == "lint"
                for module, _symbol in info.imports.values())
            or any(origin.split(".")[:2] == ["repro", "lint"]
                   for origin in info.module_aliases.values()))


def test_only_lint_imports_repro_lint():
    """``repro.lint`` is the static lint and nothing else: no module
    outside ``lint/`` imports it, at module level or in a function,
    except the ``__main__`` root registering the ``lint`` verb."""
    importers = sorted(
        name for name, info in _graph("src/repro").items()
        if name.split(".")[0] not in ("lint", "__main__")
        and _imports_lint(info))
    assert importers == [], (
        f"modules outside repro.lint that import it: {importers}")


def test_lint_imports_only_lint():
    """The other direction: every import under ``repro/lint/`` — at
    module level or in a function — names a ``repro.lint`` module or
    the standard library.  The TCP protocol check is simulator code, so
    the static lint neither reads traces nor reaches into the
    simulator."""
    outside = []
    for name, info in sorted(_graph("src/repro").items()):
        if name.split(".")[0] != "lint":
            continue
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                # ``repro/lint/`` is flat: one dot stays inside it.
                targets = ([] if node.level == 1
                           else ["." * node.level + (node.module or "")])
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                targets = [
                    module for module in
                    ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else [node.module])
                    if module.split(".")[0] not in sys.stdlib_module_names
                    and module.split(".")[:2] != ["repro", "lint"]]
            else:
                continue
            outside += [f"{name}:{node.lineno} {target}"
                        for target in targets]
    assert outside == [], (
        f"repro.lint imports from outside itself: {outside}")


def test_every_module_backs_a_verb_or_a_benchmark():
    unreached = _unreached()
    assert unreached == set(), (
        "modules no CLI verb imports (delete them with their tests and "
        f"examples, or declare the claim they back): {sorted(unreached)}")


def _referenced_names(modules):
    """name -> [(path, line)] of every reference in ``modules``."""
    references = collections.defaultdict(list)
    for info in modules:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Name):
                names = (node.id,)
            elif isinstance(node, ast.Attribute):
                names = (node.attr,)
            elif isinstance(node, ast.ImportFrom):
                names = tuple(alias.name for alias in node.names)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names = (node.value,)
            else:
                continue
            for name in names:
                references[name].append((info.path, node.lineno))
    return references


def _exempt_by_rule(node, visitor_methods, project_names):
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    return node in visitor_methods or any(
        terminal_name(decorator) in project_names
        for decorator in node.decorator_list)


def _unreferenced():
    src = _graph("src/repro").values()
    bench = [info for info in _graph("bench").values()
             if "/tests/" not in info.posix_path]
    references = _referenced_names([*src, *bench])
    definitions = []
    visitor_methods = set()
    for info in src:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ClassDef) and any(
                    terminal_name(base) == "NodeVisitor"
                    for base in node.bases):
                visitor_methods.update(
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name.startswith("visit_"))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.append((info, node))
    project_names = {node.name for _info, node in definitions}
    return sorted(
        f"{info.name}:{node.name}" for info, node in definitions
        if not _exempt_by_rule(node, visitor_methods, project_names)
        and not any(path != info.path
                    or not node.lineno <= line <= node.end_lineno
                    for path, line in references.get(node.name, ())))


def test_every_definition_is_used_outside_its_tests():
    unreferenced = _unreferenced()
    assert unreferenced == [], (
        "functions, methods or classes nothing in src/ or bench/ names "
        "(delete them with their tests): " + ", ".join(unreferenced))



def _is_dataclass(cls):
    return any(terminal_name(decorator) == "dataclass"
               for decorator in cls.decorator_list)


def _fields(cls, classes):
    """A dataclass's init fields in order, inherited ones first."""
    if cls is None:
        return []
    inherited = [field for base in cls.bases
                 for field in _fields(classes.get(terminal_name(base)),
                                      classes)]
    if not _is_dataclass(cls):
        return inherited
    return inherited + [
        stmt for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and not ast.unparse(stmt.annotation).startswith("ClassVar")
        and not (isinstance(stmt.value, ast.Call) and any(
            keyword.arg == "init" for keyword in stmt.value.keywords))]


def _options(cls, classes):
    """(name, position or None) of each option ``cls`` declares."""
    if _is_dataclass(cls):
        for position, stmt in enumerate(_fields(cls, classes)):
            if stmt.value is not None and stmt in cls.body:
                yield stmt.target.id, position
    for init in cls.body:
        if isinstance(init, ast.FunctionDef) and init.name == "__init__":
            args = init.args
            positional = (args.posonlyargs + args.args)[1:]
            first = len(positional) - len(args.defaults)
            for position in range(first, len(positional)):
                yield positional[position].arg, position
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield arg.arg, None


def _splatted(call):
    """The expressions ``call`` feeds to ``**`` (a dict display's own
    ``**`` entries included)."""
    for keyword in call.keywords:
        if keyword.arg is None:
            yield keyword.value
            if isinstance(keyword.value, ast.Dict):
                yield from (value for key, value in zip(
                    keyword.value.keys, keyword.value.values) if key is None)


def _calls(tree, aliases):
    """(callee name, call, enclosing function, enclosing class) of every
    call; ``cls(...)`` names its class, ``super().__init__(...)`` each
    base, an alias the class it stands for."""
    def walk(node, function, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if cls and isinstance(func, ast.Name) and func.id == "cls":
                    callees = [cls.name]
                elif (cls and isinstance(func, ast.Attribute)
                      and func.attr == "__init__"
                      and terminal_name(func.value) == "super"):
                    callees = [terminal_name(base) for base in cls.bases]
                else:
                    callees = [aliases.get(terminal_name(func),
                                           terminal_name(func))]
                for callee in callees:
                    yield callee, child, function, cls
            yield from walk(
                child,
                child if isinstance(child, ast.FunctionDef) else function,
                child if isinstance(child, ast.ClassDef) else cls)
    yield from walk(tree, None, None)


def _dict_keys(scope):
    """String keys ``scope`` spells into dict displays, ``dict(...)``
    keywords and ``d["key"] =`` stores."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Dict):
            yield from (key.value for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str))
        elif (isinstance(node, ast.Call)
              and terminal_name(node.func) == "dict"):
            yield from (keyword.arg for keyword in node.keywords
                        if keyword.arg)
        elif isinstance(node, ast.Assign):
            yield from (target.slice.value for target in node.targets
                        if isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str))


def _records(modules, classes):
    """Dataclasses ``modules`` assign a field of after construction:
    ``x.field = / += / [k] =`` on another object, or ``self.field`` in
    one of the class's own methods other than ``__init__`` /
    ``__post_init__``."""
    def walk(node, function, cls):
        for child in ast.iter_child_nodes(node):
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target]
                       if isinstance(child, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    on_self = (isinstance(target.value, ast.Name)
                               and target.value.id == "self")
                    if not on_self:
                        yield from fielded.get(target.attr, ())
                    elif function not in ("__init__", "__post_init__") \
                            and target.attr in fields.get(cls, ()):
                        yield cls
            yield from walk(
                child,
                child.name if isinstance(child, ast.FunctionDef)
                else function,
                child.name if isinstance(child, ast.ClassDef) else cls)

    fields = {name: {stmt.target.id for stmt in _fields(cls, classes)}
              for name, cls in classes.items() if _is_dataclass(cls)}
    fielded = collections.defaultdict(list)
    for name, names in fields.items():
        for field in names:
            fielded[field].append(name)
    return {name for info in modules for name in walk(info.tree, None, None)}


def _unset_options():
    src = list(_graph("src/repro").values())
    callers = [*src, *(info for info in _graph("bench").values()
                       if "/tests/" not in info.posix_path)]
    classes = {node.name: node for info in src
               for node in ast.walk(info.tree)
               if isinstance(node, ast.ClassDef)}
    aliases = {target.id: stmt.value.id for info in src
               for stmt in info.tree.body
               if isinstance(stmt, ast.Assign)
               and isinstance(stmt.value, ast.Name)
               for target in stmt.targets if isinstance(target, ast.Name)}
    calls = [call for info in callers for call in _calls(info.tree, aliases)]

    # A function (a class, for its __init__) that hands its ``**``
    # parameter on -> the callees receiving it; what feeds ``**``.
    forwards = collections.defaultdict(list)
    feeding, fed = set(), set()
    for callee, call, function, cls in calls:
        for value in _splatted(call):
            feeding.add(function)
            if isinstance(value, ast.Call):
                fed.add(terminal_name(value.func))
            kwarg = function.args.kwarg if function else None
            if (kwarg and isinstance(value, ast.Name)
                    and value.id == kwarg.arg):
                forwards[cls.name if cls and function.name == "__init__"
                         else function.name].append(callee)
    given = collections.defaultdict(set)
    most_positional = collections.defaultdict(int)
    for callee, call, _function, _cls in calls:
        for target in [callee, *forwards[callee]]:
            given[target].update(keyword.arg for keyword in call.keywords
                                 if keyword.arg)
            most_positional[target] = max(
                most_positional[target],
                sum(not isinstance(arg, ast.Starred) for arg in call.args))
    splat_keys = {key for function in feeding - {None}
                  for key in _dict_keys(function)}
    splat_keys.update(key for info in callers
                      for function in ast.walk(info.tree)
                      if isinstance(function, ast.FunctionDef)
                      and function.name in fed
                      for node in ast.walk(function)
                      if isinstance(node, ast.Return) and node.value
                      for key in _dict_keys(node.value))
    records = _records(src, classes)

    unset = []
    for info in src:
        for cls in ast.walk(info.tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in records:
                continue
            for name, position in _options(cls, classes):
                if (name in given[cls.name] or name in splat_keys
                        or (_is_dataclass(cls) and name in given["replace"])
                        or (position is not None
                            and position < most_positional[cls.name])):
                    continue
                unset.append(f"{info.name}:{cls.name}.{name}")
    return sorted(unset)


def test_every_option_is_set_outside_its_tests():
    unset = _unset_options()
    assert unset == [], (
        "options nothing in src/ or bench/ sets (fold each into the value "
        "src/ uses, and delete the code paths the others selected): "
        + ", ".join(unset))


def _loaded_names(modules):
    """Every attribute name ``modules`` load: an ``Attribute`` in a load
    context, or a string handed to ``getattr`` / ``hasattr``."""
    loaded = set()
    for info in modules:
        for node in ast.walk(info.tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and terminal_name(node.func) in ("getattr", "hasattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                loaded.add(node.args[1].value)
    return loaded


def _write_only_attributes():
    stored = collections.defaultdict(set)
    for info in _graph("src/repro").values():
        for node in ast.walk(info.tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                stored[node.attr].add(info.name)
    loaded = _loaded_names(
        info for directory in ("src/repro", "tests", "bench", "examples",
                               "scripts")
        for info in _graph(directory).values())
    return sorted(f"{name} ({', '.join(sorted(stored[name]))})"
                  for name in stored.keys() - loaded)


def test_every_stored_attribute_is_read():
    write_only = _write_only_attributes()
    assert write_only == [], (
        "attributes nothing reads (delete each with its stores): "
        + ", ".join(write_only))
