"""The flow-aware deep passes: corpus, pragmas, the clean src gate."""

import pathlib
import re
import textwrap

from repro import memo
from repro.lint import lint_paths

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "deep"


def _deep(path):
    """Every pass, per-file and deep, over one path."""
    return lint_paths([path], deep=True)


def _rules(findings):
    return sorted(f.rule for f in findings)


# ----------------------------------------------------------------------
# The bad_* corpus: one seeded mutation per deep rule
# ----------------------------------------------------------------------

def test_bad_cache_key_corpus():
    findings = _deep(FIXTURES / "bad_cache_key")
    assert _rules(findings) == ["cache-key-unkeyed-param"]
    assert "'turbo'" in findings[0].message


def test_bad_rng_corpus():
    findings = _deep(FIXTURES / "bad_rng")
    assert _rules(findings) == ["rng-seed-origin", "rng-seed-origin",
                                "rng-shared-stream"]
    messages = " | ".join(f.message for f in findings)
    assert "fixed_stream()" in messages
    assert "untraceable()" in messages
    assert "shared()" in messages
    # The sanctioned patterns stay clean: seed-derived construction
    # and one private stream per consumer.
    assert "private()" not in messages
    assert "make_link()" not in messages


def test_a_purity_waiver_cannot_outlive_its_memo():
    # No lint waiver holds the memos to the tree; the registry does,
    # checked against DESIGN.md 6b's table in both directions:
    # every declared name has a row stating its bound, and every row
    # that names a registry memo is declared.
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    import repro.__main__  # noqa: F401  (imports every declaring module)
    rows = re.findall(                  # | `name` … | … | … | N entries … |
        r"^ *\| `([a-z]+\.[a-z-]+)` .*\| ([\d,]+) [^|]*\|$",
        design[design.index("## 6b."):design.index("## 6c.")], re.M)
    assert {name: int(bound.replace(",", ""))
            for name, bound in rows} == memo.declared()


# ----------------------------------------------------------------------
# Seeded-mutation acceptance: fresh trees, one defect each
# ----------------------------------------------------------------------

def _write(tmp_path, name, source):
    (tmp_path / name).write_text(textwrap.dedent(source),
                                 encoding="utf-8")


def test_param_fed_from_a_non_field_attribute_is_caught(tmp_path):
    # Spec fields key the cache by declaration, so the one way left to
    # smuggle a knob past the key is to forward something that is not
    # a dataclass field (a class attribute, a property).
    _write(tmp_path, "spec.py", """\
        import dataclasses

        class TcpConfig:
            def __init__(self, window):
                self.window = window

        def run_experiment(mode, window=4, seed=0):
            return TcpConfig(window)

        @dataclasses.dataclass(frozen=True)
        class ExperimentSpec:
            mode: str = "x"
            window = 8

            def execute_unit(self, seed):
                return run_experiment(self.mode, window=self.window,
                                      seed=seed)
        """)
    findings = _deep(tmp_path)
    assert _rules(findings) == ["cache-key-unkeyed-param"]
    assert "'window'" in findings[0].message
    assert "not a dataclass field" in findings[0].message


def test_constant_seeded_rng_is_caught(tmp_path):
    _write(tmp_path, "noise.py", """\
        import random

        def sample():
            rng = random.Random(7)
            return rng.random()
        """)
    findings = _deep(tmp_path)
    assert _rules(findings) == ["rng-seed-origin"]


def test_seed_derived_rng_is_clean(tmp_path):
    _write(tmp_path, "noise.py", """\
        import random

        def sample(seed):
            rng = random.Random(seed + 7919)
            return rng.random()
        """)
    assert _deep(tmp_path) == []


def test_drawing_inside_arguments_is_not_sharing(tmp_path):
    # Builtins that receive a *number* drawn from the stream are not
    # components (the shape of content/html.py::filler_paragraphs) ...
    _write(tmp_path, "filler.py", """\
        import random

        def filler(seed):
            rng = random.Random(seed)
            out = []
            for i in range(0, 9, rng.randint(5, 9)):
                out.append(f"{rng.randint(1, 4)}")
            return "".join(str(rng.random()) for _ in out)
        """)
    assert _deep(tmp_path) == []
    # ... while handing the RNG object itself to two callees still is,
    # positionally or by keyword.
    _write(tmp_path, "links.py", """\
        import random

        def make_link(rng):
            return rng.random()

        def wire(seed):
            rng = random.Random(seed)
            return make_link(rng) + make_link(rng=rng)
        """)
    findings = _deep(tmp_path)
    assert _rules(findings) == ["rng-shared-stream"]
    assert "wire()" in findings[0].message


def test_interprocedural_seed_rename_is_accepted(tmp_path):
    _write(tmp_path, "noise.py", """\
        import random

        def sample(entropy):
            return random.Random(entropy).random()

        def drive(seed):
            return sample(seed * 2)
        """)
    assert _deep(tmp_path) == []


def test_pragma_waives_deep_finding(tmp_path):
    _write(tmp_path, "noise.py", """\
        import random

        def sample():
            # repro-lint: allow(rng-seed-origin)
            rng = random.Random(7)
            return rng.random()
        """)
    assert _deep(tmp_path) == []


# ----------------------------------------------------------------------
# The repository's own tree: a plain must-be-clean gate
# ----------------------------------------------------------------------

def test_src_tree_is_deep_clean(monkeypatch):
    monkeypatch.chdir(REPO)
    findings = _deep("src/repro")
    assert findings == [], [f.format() for f in findings]


def test_deep_findings_are_deterministically_ordered():
    first = _deep(FIXTURES / "bad_rng")
    second = _deep(FIXTURES / "bad_rng")
    key = lambda f: (f.path, f.line, f.col, f.rule)
    assert [key(f) for f in first] == [key(f) for f in second]
    assert [key(f) for f in first] == sorted(key(f) for f in first)


def test_single_file_is_the_graph_of_its_directory(tmp_path):
    # The one file is analyzed; its siblings are not part of the graph.
    _write(tmp_path, "noise.py", """\
        import random

        def sample():
            return random.Random(7).random()
        """)
    _write(tmp_path, "other.py", """\
        import random

        def other():
            return random.Random(8).random()
        """)
    findings = _deep(tmp_path / "noise.py")
    assert _rules(findings) == ["rng-seed-origin"]
    assert findings[0].path == str(tmp_path / "noise.py")
