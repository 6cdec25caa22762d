"""The flow-aware deep passes: corpus, waivers, baseline plumbing."""

import dataclasses
import json
import pathlib
import textwrap

import pytest

from repro.lint import (DEFAULT_DEEP_CONFIG, DeepError, apply_baseline,
                        load_baseline, run_deep, write_baseline)

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "deep"
BASELINE = REPO / "DEEP_BASELINE.json"

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
    assert _rules(findings) == ["cache-key-missing", "cache-key-stale",
                                "cache-key-unkeyed-param"]
    by_rule = {f.rule: f.message for f in findings}
    assert "'jitter'" in by_rule["cache-key-missing"]
    assert "'ghost'" in by_rule["cache-key-stale"]
    assert "'turbo'" in by_rule["cache-key-unkeyed-param"]


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


def test_purity_waiver_needs_a_name_and_carries_a_reason():
    # The two pure memos are waived by name, each with its argument...
    waivers = DEFAULT_DEEP_CONFIG.purity_global_waivers
    assert {"_CLASSIFY_CACHE", "_COMPRESSED_MEMO"} <= set(waivers)
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


# ----------------------------------------------------------------------
# Seeded-mutation acceptance: fresh trees, one defect each
# ----------------------------------------------------------------------

def _write(tmp_path, name, source):
    (tmp_path / name).write_text(textwrap.dedent(source),
                                 encoding="utf-8")


def test_new_spec_field_omitted_from_key_is_caught(tmp_path):
    _write(tmp_path, "spec.py", """\
        import dataclasses

        CACHE_KEY_FIELDS = ("mode",)

        @dataclasses.dataclass(frozen=True)
        class ExperimentSpec:
            mode: str = "x"
            shiny: bool = False
        """)
    findings = run_deep(tmp_path)
    assert _rules(findings) == ["cache-key-missing"]
    assert "'shiny'" in findings[0].message


def test_missing_key_constant_is_itself_a_finding(tmp_path):
    _write(tmp_path, "spec.py", """\
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class ExperimentSpec:
            mode: str = "x"
        """)
    findings = run_deep(tmp_path)
    assert _rules(findings) == ["cache-key-missing"]
    assert "CACHE_KEY_FIELDS" in findings[0].message


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
# The repository's own tree, gated by the committed baseline
# ----------------------------------------------------------------------

def test_src_tree_matches_committed_baseline(monkeypatch):
    monkeypatch.chdir(REPO)
    findings = run_deep("src/repro")
    kept, stale = apply_baseline(findings, load_baseline(BASELINE),
                                 BASELINE)
    assert kept == [], [f.format() for f in kept]
    assert stale == [], [f.format() for f in stale]


def test_deep_findings_are_deterministically_ordered():
    first = run_deep(FIXTURES / "bad_rng")
    second = run_deep(FIXTURES / "bad_rng")
    key = lambda f: (f.path, f.line, f.col, f.rule)
    assert [key(f) for f in first] == [key(f) for f in second]
    assert [key(f) for f in first] == sorted(key(f) for f in first)


# ----------------------------------------------------------------------
# Baseline plumbing
# ----------------------------------------------------------------------

def test_baseline_round_trip(tmp_path):
    findings = run_deep(FIXTURES / "bad_rng")
    path = tmp_path / "baseline.json"
    write_baseline(findings, path)
    kept, stale = apply_baseline(findings, load_baseline(path), path)
    assert kept == []
    assert stale == []


def test_stale_baseline_entry_is_reported(tmp_path):
    findings = run_deep(FIXTURES / "bad_rng")
    path = tmp_path / "baseline.json"
    write_baseline(findings, path)
    baseline = load_baseline(path)
    baseline["deadbeef0000"] = {"rule": "rng-seed-origin",
                                "path": "gone.py"}
    kept, stale = apply_baseline(findings, baseline, path)
    assert kept == []
    assert [f.rule for f in stale] == ["stale-baseline"]
    assert "deadbeef0000" in stale[0].message


def test_finding_id_is_line_independent():
    findings = run_deep(FIXTURES / "bad_pool", BAD_POOL_CONFIG)
    from repro.lint.findings import Finding
    moved = Finding(path=findings[0].path, line=findings[0].line + 40,
                    col=0, rule=findings[0].rule,
                    message=findings[0].message, hint="")
    assert moved.finding_id == findings[0].finding_id
    assert len(moved.finding_id) == 12
    int(moved.finding_id, 16)


def test_malformed_baseline_raises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(DeepError):
        load_baseline(bad)
    bad.write_text('{"findings": 3}', encoding="utf-8")
    with pytest.raises(DeepError):
        load_baseline(bad)
    bad.write_text('{"findings": [{"rule": "x"}]}', encoding="utf-8")
    with pytest.raises(DeepError):
        load_baseline(bad)
    with pytest.raises(DeepError):
        load_baseline(tmp_path / "missing.json")


def test_root_must_be_a_directory(tmp_path):
    target = tmp_path / "single.py"
    target.write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(DeepError):
        run_deep(target)
