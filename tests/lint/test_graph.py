"""The lint front end: modules, imports, call edges, pragmas."""

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

        def main(n):
            w = Widget(n)
            w.resize(n)
            return helper(n)
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


def test_callers_of_lists_every_dispatch_site(tmp_path):
    graph = _project(tmp_path)
    callers = {fn.qualname
               for fn, _ in graph.callers_of("pkg.util:helper")}
    assert callers == {"pkg.app:main", "pkg.util:Widget.grow"}


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
    outer = graph.functions["mod:outer"]
    assert [call.targets for call in outer.calls] == [("mod:leaf",)]


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


def test_pragma_waives_at_line_and_line_above(tmp_path):
    _write(tmp_path, "mod.py", """\
        import random

        def f(seed):
            rng = random.Random(99)  # repro-lint: allow(rng-seed-origin)
            # repro-lint: allow(rng-shared-stream)
            return rng
        """)
    graph = build_graph(tmp_path)
    assert graph.waived("mod", "rng-seed-origin", 4)
    assert graph.waived("mod", "rng-shared-stream", 6)
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
