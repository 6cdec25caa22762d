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
"""

import ast
import pathlib

from repro.lint.graph import build_graph

REPO = pathlib.Path(__file__).resolve().parents[1]


def _project_imports(info, package):
    """(module, symbol) for every ``repro`` import in a parsed module;
    symbol is "" for ``import repro.x.y``.  Names are relative to the
    ``repro`` package, like the graph's module table."""
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro."):
                    yield alias.name[len("repro."):], ""
        elif isinstance(node, ast.ImportFrom):
            target = node.module.split(".") if node.module else []
            if node.level:
                base = package.split(".") if package else []
                origin = base[:len(base) - (node.level - 1)] + target
            elif target[:1] == ["repro"]:
                origin = target[1:]
            else:
                continue
            for alias in node.names:
                yield ".".join(origin), alias.name


def _unreached():
    modules = build_graph(REPO / "src" / "repro").modules
    packages = {name for name, info in modules.items()
                if info.path.endswith("__init__.py")}

    def imports_of(name, info):
        package = name if name in packages else name.rpartition(".")[0]
        return list(_project_imports(info, package))

    def resolve(origin, symbol):
        """The plain module an imported name lives in, if any."""
        while origin in packages and symbol:
            dotted = f"{origin}.{symbol}".lstrip(".")
            if dotted in modules and dotted not in packages:
                return dotted       # ``from ..content import artifacts``
            # Follow the __init__'s re-export (None: bound right there).
            origin = next(
                (target for target, name
                 in imports_of(origin, modules[origin]) if name == symbol),
                None)
        if origin in modules and origin not in packages:
            return origin
        return None

    queue = imports_of("__main__", modules["__main__"])
    reached = set()
    while queue:
        module = resolve(*queue.pop())
        if module is not None and module not in reached:
            reached.add(module)
            queue.extend(imports_of(module, modules[module]))
    return set(modules) - packages - reached - {"__main__"}


def test_every_module_backs_a_verb_or_a_benchmark():
    unreached = _unreached()
    assert unreached == set(), (
        "modules no CLI verb imports (delete them with their tests and "
        f"examples, or declare the claim they back): {sorted(unreached)}")
