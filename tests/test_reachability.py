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
"""

import ast
import collections
import pathlib

from repro.lint.graph import build_graph, terminal_name

REPO = pathlib.Path(__file__).resolve().parents[1]


def _unreached():
    modules = build_graph(REPO / "src" / "repro").modules
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
    src = build_graph(REPO / "src" / "repro").modules.values()
    bench = [info for info in build_graph(REPO / "bench").modules.values()
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
