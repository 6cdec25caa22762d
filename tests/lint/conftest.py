"""One parse of ``src/repro`` for the tests that lint the whole tree.

Four tests assert the source tree lints clean, per-file and deep,
through :func:`~repro.lint.cli.lint_paths` and through the ``lint``
verb.  Each one used to build the same project graph again; the
``src_graph`` fixture builds it once per session and hands it to
every ``build_graph`` call :mod:`repro.lint.cli` makes for that path.
The lint passes only read a graph, so sharing it changes no finding.
``test_lint_parses_each_file_once`` counts parses and so does not use
the fixture.
"""

import pathlib

import pytest

from repro.lint import cli
from repro.lint.graph import build_graph

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="session")
def _src_project_graph():
    return build_graph(SRC)


@pytest.fixture
def src_graph(_src_project_graph, monkeypatch):
    """The session's ``src/repro`` graph, served to the lint CLI for
    that path (relative or absolute); any other path builds as usual."""
    def build(path):
        if pathlib.Path(path).resolve() == SRC:
            return _src_project_graph
        return build_graph(path)

    monkeypatch.setattr(cli, "build_graph", build)
    return _src_project_graph
