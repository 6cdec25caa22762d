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

import pathlib

from repro.lint.graph import build_graph

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
