"""The lint front end: modules, imports, call edges, reachability."""

import ast
import collections
import pathlib
import textwrap

import pytest

from repro.lint import LintError, lint_paths
from repro.lint.graph import build_graph

REPO = pathlib.Path(__file__).resolve().parents[2]


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def _project(tmp_path):
    _write(tmp_path, "pkg/__init__.py", "")
    _write(tmp_path, "pkg/util.py", """\
        def helper(x):
            return x + 1

        class Widget:
            def __init__(self, size):
                self.size = size

            def resize(self, size):
                self.size = self.grow(size)

            def grow(self, size):
                return helper(size)
        """)
    _write(tmp_path, "pkg/app.py", """\
        from .util import Widget, helper

        STATE = {}

        def main(n):
            w = Widget(n)
            w.resize(n)
            return helper(n)

        def untouched():
            STATE["k"] = 1
        """)
    return build_graph(tmp_path)


def test_module_table_uses_package_relative_names(tmp_path):
    graph = _project(tmp_path)
    assert {"pkg", "pkg.util", "pkg.app"} <= set(graph.modules)


def test_relative_from_import_resolves(tmp_path):
    graph = _project(tmp_path)
    imports = graph.modules["pkg.app"].imports
    assert imports["Widget"] == ("pkg.util", "Widget")
    assert imports["helper"] == ("pkg.util", "helper")


def test_plain_name_call_resolves_to_imported_function(tmp_path):
    graph = _project(tmp_path)
    main = graph.functions["pkg.app:main"]
    targets = {t for call in main.calls for t in call.targets}
    assert "pkg.util:helper" in targets


def test_class_construction_dispatches_init(tmp_path):
    graph = _project(tmp_path)
    main = graph.functions["pkg.app:main"]
    by_raw = {call.raw: call.targets for call in main.calls}
    assert by_raw["Widget"] == ("pkg.util:Widget.__init__",)


def test_self_method_call_resolves_in_class(tmp_path):
    graph = _project(tmp_path)
    resize = graph.functions["pkg.util:Widget.resize"]
    targets = {t for call in resize.calls for t in call.targets}
    assert "pkg.util:Widget.grow" in targets


def test_attribute_call_falls_back_to_name_matching(tmp_path):
    graph = _project(tmp_path)
    main = graph.functions["pkg.app:main"]
    by_raw = {call.raw: call.targets for call in main.calls}
    assert by_raw["w.resize"] == ("pkg.util:Widget.resize",)


def test_reachability_follows_resolved_edges(tmp_path):
    graph = _project(tmp_path)
    reached = graph.reachable(["pkg.app:main"])
    assert {"pkg.app:main", "pkg.util:Widget.__init__",
            "pkg.util:Widget.resize", "pkg.util:Widget.grow",
            "pkg.util:helper"} <= reached
    assert "pkg.app:untouched" not in reached


def test_callers_of_lists_every_dispatch_site(tmp_path):
    graph = _project(tmp_path)
    callers = {fn.qualname
               for fn, _ in graph.callers_of("pkg.util:helper")}
    assert callers == {"pkg.app:main", "pkg.util:Widget.grow"}


def test_module_subscript_write_recorded(tmp_path):
    graph = _project(tmp_path)
    untouched = graph.functions["pkg.app:untouched"]
    assert [name for name, _ in untouched.module_subscript_writes] \
        == ["STATE"]


def test_shadowed_name_is_not_a_module_write(tmp_path):
    _write(tmp_path, "mod.py", """\
        TABLE = {}

        def local_shadow():
            TABLE = {}
            TABLE["k"] = 1
            return TABLE
        """)
    graph = build_graph(tmp_path)
    assert graph.functions["mod:local_shadow"] \
        .module_subscript_writes == []


def test_global_write_requires_assignment(tmp_path):
    _write(tmp_path, "mod.py", """\
        COUNT = 0

        def bump():
            global COUNT
            COUNT += 1

        def reader():
            global COUNT
            return COUNT
        """)
    graph = build_graph(tmp_path)
    assert [n for n, _ in graph.functions["mod:bump"].global_writes] \
        == ["COUNT"]
    assert graph.functions["mod:reader"].global_writes == []


def test_nested_def_calls_fold_into_enclosing_function(tmp_path):
    _write(tmp_path, "mod.py", """\
        def leaf():
            return 1

        def outer():
            def inner():
                return leaf()
            return inner
        """)
    graph = build_graph(tmp_path)
    assert "mod:leaf" in graph.reachable(["mod:outer"])


def test_dataclass_fields_and_lookup(tmp_path):
    _write(tmp_path, "mod.py", """\
        import dataclasses

        @dataclasses.dataclass
        class Spec:
            mode: str = "x"
            seed: int = 0
        """)
    graph = build_graph(tmp_path)
    spec = graph.find_class("Spec")
    assert spec is not None
    assert spec.fields == ("mode", "seed")
    assert spec.is_dataclass


def test_pragma_waives_at_line_and_line_above(tmp_path):
    _write(tmp_path, "mod.py", """\
        import random

        def f(seed):
            rng = random.Random(99)  # repro-lint: allow(rng-seed-origin)
            # repro-lint: allow(pool-global-write)
            return rng
        """)
    graph = build_graph(tmp_path)
    assert graph.waived("mod", "rng-seed-origin", 4)
    assert graph.waived("mod", "pool-global-write", 6)
    assert not graph.waived("mod", "rng-seed-origin", 6)


def test_unparsable_file_raises_lint_error(tmp_path):
    _write(tmp_path, "ok.py", "def fine():\n    return 0\n")
    _write(tmp_path, "broken.py", "def broken(:\n")
    with pytest.raises(LintError, match="broken.py"):
        build_graph(tmp_path)


def _reexporting_project(tmp_path):
    _write(tmp_path, "pkg/__init__.py", """\
        from .util import helper
        from .shapes import Widget as Shape
        """)
    _write(tmp_path, "pkg/util.py", """\
        def helper(x):
            return x + 1
        """)
    _write(tmp_path, "pkg/shapes.py", """\
        class Widget:
            def __init__(self, size):
                self.size = size
        """)
    _write(tmp_path, "app/main.py", """\
        from ..pkg import helper, Shape
        from .. import pkg

        def run(n):
            return helper(n), Shape(n), pkg.helper(n)
        """)
    return build_graph(tmp_path)


def test_relative_import_inside_a_package_init(tmp_path):
    # ``from .util import helper`` in pkg/__init__.py names pkg.util,
    # not a top-level ``util``.
    graph = _reexporting_project(tmp_path)
    assert graph.modules["pkg"].imports["helper"] == ("pkg.util", "helper")
    assert graph.modules["pkg"].module_aliases == {}


def test_call_through_a_package_reexport_resolves(tmp_path):
    graph = _reexporting_project(tmp_path)
    run = graph.functions["app.main:run"]
    by_raw = {call.raw: call.targets for call in run.calls}
    assert by_raw["helper"] == ("pkg.util:helper",)
    assert by_raw["Shape"] == ("pkg.shapes:Widget.__init__",)
    assert by_raw["pkg.helper"] == ("pkg.util:helper",)


def test_single_file_graph_is_restricted_to_that_file(tmp_path):
    graph = _reexporting_project(tmp_path)
    single = build_graph(tmp_path / "pkg" / "util.py")
    assert list(single.modules) == ["util"]
    assert single.root == tmp_path / "pkg"
    assert set(graph.modules) == {"pkg", "pkg.util", "pkg.shapes",
                                  "app.main"}


def test_lint_parses_each_file_once(monkeypatch):
    # One front end: the per-file rules and the deep passes visit the
    # same parsed trees.
    parsed = collections.Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.chdir(REPO)
    assert lint_paths(["src/repro"], deep=True) == []
    files = {str(p) for p in pathlib.Path("src/repro").rglob("*.py")}
    assert set(parsed) == files
    assert set(parsed.values()) == {1}
