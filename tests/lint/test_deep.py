"""The flow-aware deep passes: corpus, waivers, the clean src gate."""

import dataclasses
import pathlib
import re
import textwrap

import pytest

from repro import memo
from repro.lint import (DEFAULT_DEEP_CONFIG, DeepError, build_graph,
                        run_deep)

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "deep"

#: The bad_pool corpus names its own dispatch entry; the real tree's
#: entries (``_run_chunk_supervised`` …) are the config default.
BAD_POOL_CONFIG = dataclasses.replace(
    DEFAULT_DEEP_CONFIG, dispatch_entries=("_pool_chunk_entry",))


def _rules(findings):
    return sorted(f.rule for f in findings)


# ----------------------------------------------------------------------
# The bad_* corpus: one seeded mutation per deep rule
# ----------------------------------------------------------------------

def test_bad_cache_key_corpus():
    findings = run_deep(FIXTURES / "bad_cache_key")
    assert _rules(findings) == ["cache-key-unkeyed-param"]
    assert "'turbo'" in findings[0].message


def test_bad_rng_corpus():
    findings = run_deep(FIXTURES / "bad_rng")
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


def test_bad_pool_corpus():
    findings = run_deep(FIXTURES / "bad_pool", BAD_POOL_CONFIG)
    assert _rules(findings) == ["pool-global-write", "pool-global-write"]
    messages = " | ".join(f.message for f in findings)
    assert "'_COUNT'" in messages
    assert "'_MEMO[...]'" in messages
    # Same writes outside the dispatch's reach are not findings.
    assert "offline_report" not in messages


def test_bad_pool_memo_corpus():
    # The mirror image: a declared Memo written through store() is clean
    # by construction; the rebind beside it still fires.
    findings = run_deep(FIXTURES / "bad_pool_memo", BAD_POOL_CONFIG)
    assert _rules(findings) == ["pool-global-write"]
    assert "'_COUNT'" in findings[0].message


def test_purity_waiver_needs_a_name_and_carries_a_reason():
    # The two pure memos are declared by name in the registry, not
    # waived: one named global is left, with its reason...
    import repro.__main__  # noqa: F401  (imports every declaring module)
    assert {"html.classify", "modem.lzw-sizes"} <= set(memo.declared())
    waivers = DEFAULT_DEEP_CONFIG.purity_global_waivers
    assert set(waivers) == {"_DEFAULT_SITE_AND_STORE"}
    assert all(reason.strip() for reason in waivers.values())
    # ...and a waiver covers that global only: the corpus memo is
    # caught by default (above) and accepted once named, while the
    # rebind beside it still fires.
    config = dataclasses.replace(
        BAD_POOL_CONFIG,
        purity_global_waivers={"_MEMO": "pure: item -> item * 2"})
    findings = run_deep(FIXTURES / "bad_pool", config)
    assert _rules(findings) == ["pool-global-write"]
    assert "'_COUNT'" in findings[0].message


def test_a_purity_waiver_cannot_outlive_its_memo():
    # Every waived global is still written by some function of the real
    # tree, and DESIGN.md (the 6d pool-purity bullet) still explains it.
    graph = build_graph(REPO / "src" / "repro")
    written = {name for fn in graph.functions.values()
               for name, _node in (fn.global_writes
                                   + fn.module_subscript_writes)}
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    engine_sections = design[design.index("## 6b."):design.index("## 7.")]
    for name in DEFAULT_DEEP_CONFIG.purity_global_waivers:
        assert name in written, f"{name} is waived but never written"
        assert f"`{name}`" in engine_sections, \
            f"{name} is waived but DESIGN.md 6b-6d does not name it"
    # The memos need no waiver; what holds them to the tree is the
    # registry, checked against DESIGN.md 6b's table in both directions:
    # every declared name has a row stating its bound, and every row
    # that names a registry memo is declared.
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
    findings = run_deep(tmp_path)
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
    findings = run_deep(tmp_path)
    assert _rules(findings) == ["rng-seed-origin"]


def test_seed_derived_rng_is_clean(tmp_path):
    _write(tmp_path, "noise.py", """\
        import random

        def sample(seed):
            rng = random.Random(seed + 7919)
            return rng.random()
        """)
    assert run_deep(tmp_path) == []


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
    assert run_deep(tmp_path) == []
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
    findings = run_deep(tmp_path)
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
    assert run_deep(tmp_path) == []


def test_global_write_in_dispatched_function_is_caught(tmp_path):
    _write(tmp_path, "worker.py", """\
        TOTAL = 0

        def _run_chunk_supervised(chunk):
            return [step(item) for item in chunk]

        def step(item):
            global TOTAL
            TOTAL += item
            return TOTAL
        """)
    findings = run_deep(tmp_path)
    assert _rules(findings) == ["pool-global-write"]
    assert "'TOTAL'" in findings[0].message


def test_pragma_waives_deep_finding(tmp_path):
    _write(tmp_path, "noise.py", """\
        import random

        def sample():
            # repro-lint: allow(rng-seed-origin)
            rng = random.Random(7)
            return rng.random()
        """)
    assert run_deep(tmp_path) == []


# ----------------------------------------------------------------------
# The repository's own tree: a plain must-be-clean gate
# ----------------------------------------------------------------------

def test_src_tree_matches_committed_baseline(monkeypatch):
    monkeypatch.chdir(REPO)
    findings = run_deep("src/repro")
    assert findings == [], [f.format() for f in findings]


def test_deep_findings_are_deterministically_ordered():
    first = run_deep(FIXTURES / "bad_rng")
    second = run_deep(FIXTURES / "bad_rng")
    key = lambda f: (f.path, f.line, f.col, f.rule)
    assert [key(f) for f in first] == [key(f) for f in second]
    assert [key(f) for f in first] == sorted(key(f) for f in first)


def test_root_must_be_a_directory(tmp_path):
    target = tmp_path / "single.py"
    target.write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(DeepError):
        run_deep(target)
