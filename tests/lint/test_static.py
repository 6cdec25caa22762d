"""The per-file determinism rules: fixture corpus, pragmas, self-check."""

import dataclasses
import pathlib

import pytest

from repro.lint import DEFAULT_CONFIG, LintConfig, LintError, lint_paths

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: fixture file -> the single rule it must trigger.
CORPUS = {
    "bad_wall_clock.py": "wall-clock",
    "bad_set_iteration.py": "set-iteration",
    "bad_float_clock_compare.py": "float-clock-compare",
    "bad_mutable_default.py": "mutable-default",
    "bad_missing_slots.py": "slots-hot-path",
    "bad_pool_outside_matrix.py": "pool-outside-matrix",
    "bad_unknown_pragma.py": "unknown-pragma-rule",
}


def _config_for(filename):
    if filename == "bad_missing_slots.py":
        return dataclasses.replace(
            DEFAULT_CONFIG, hot_path_modules=("bad_missing_slots",))
    return DEFAULT_CONFIG


def _lint_text(tmp_path, source, name="mod.py", config=DEFAULT_CONFIG):
    """Lint ``source`` written to ``tmp_path / name``."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_paths([path], config)


@pytest.mark.parametrize("filename,rule", sorted(CORPUS.items()))
def test_fixture_triggers_exactly_one_rule(filename, rule):
    findings = lint_paths([FIXTURES / filename], _config_for(filename))
    assert [f.rule for f in findings] == [rule]
    finding = findings[0]
    assert finding.line > 0
    assert finding.hint
    assert f"[{rule}]" in finding.format()


def test_corpus_covers_every_rule():
    from repro.lint import ALL_RULES
    assert set(CORPUS.values()) == set(ALL_RULES)


@pytest.mark.usefixtures("src_graph")
def test_src_lints_clean():
    """The repository's own source tree carries zero findings."""
    assert lint_paths([SRC]) == []


def test_pragma_waives_rule_on_same_line(tmp_path):
    source = "import time\nt = time.time()  # repro-lint: allow(wall-clock)\n"
    assert _lint_text(tmp_path, source) == []


def test_pragma_waives_rule_on_previous_line(tmp_path):
    source = ("import time\n"
              "# repro-lint: allow(wall-clock)\n"
              "t = time.time()\n")
    assert _lint_text(tmp_path, source) == []


def test_pragma_star_waives_everything(tmp_path):
    source = "import time\nt = time.time()  # repro-lint: allow(*)\n"
    assert _lint_text(tmp_path, source) == []


def test_pragma_for_other_rule_does_not_waive(tmp_path):
    source = ("import time\n"
              "t = time.time()  # repro-lint: allow(set-iteration)\n")
    assert [f.rule for f in _lint_text(tmp_path, source)] == ["wall-clock"]


def test_import_alias_resolution(tmp_path):
    source = "import time as clock\nt = clock.time()\n"
    assert [f.rule for f in _lint_text(tmp_path, source)] == ["wall-clock"]


def test_from_import_resolution(tmp_path):
    source = "from time import time\nt = time()\n"
    assert [f.rule for f in _lint_text(tmp_path, source)] == ["wall-clock"]


def test_local_name_is_not_flagged(tmp_path):
    """A local variable named ``time`` is not the stdlib module."""
    source = "def f(time):\n    return time.time()\n"
    assert _lint_text(tmp_path, source) == []


def test_seeded_random_is_clean(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import random\n\ndef f(seed):\n"
                    "    return random.Random(seed).random()\n",
                    encoding="utf-8")
    assert lint_paths([path], deep=True) == []


def test_unseeded_random_instance_flagged(tmp_path):
    # The deep seed-origin pass owns it: an argless Random() has no
    # seed to trace.
    path = tmp_path / "mod.py"
    path.write_text("import random\n\ndef f():\n"
                    "    return random.Random()\n", encoding="utf-8")
    findings = lint_paths([path], deep=True)
    assert [f.rule for f in findings] == ["rng-seed-origin"]
    assert "f()" in findings[0].message


@pytest.mark.parametrize("expression", [
    "list(set(hosts))", "tuple({'a', 'b'})", "enumerate(frozenset(hosts))",
    "iter(set(hosts))", "', '.join(set(hosts))"])
def test_set_through_an_order_keeping_consumer_flagged(tmp_path,
                                                       expression):
    # The set's hash order survives the consumer, so the loop over it
    # (or the joined string) is as salted as a loop over the set.
    source = f"for host in {expression}:\n    pass\n"
    assert [f.rule for f in _lint_text(tmp_path, source)] \
        == ["set-iteration"]


def test_sorted_set_iteration_is_clean(tmp_path):
    source = "for h in sorted(set(hosts)):\n    pass\n"
    assert _lint_text(tmp_path, source) == []


def test_allowlist_exempts_file(tmp_path):
    config = LintConfig(allowlist={"wall-clock": ("timing/bench.py",)})
    source = "import time\nt = time.time()\n"
    assert _lint_text(tmp_path, source, "pkg/timing/bench.py",
                       config) == []
    assert len(_lint_text(tmp_path, source, "pkg/other.py", config)) == 1


def test_pool_via_get_context_flagged(tmp_path):
    source = ("import multiprocessing\n"
              "p = multiprocessing.get_context('fork').Pool(2)\n")
    assert [f.rule for f in _lint_text(tmp_path, source)] \
        == ["pool-outside-matrix"]


def test_matrix_runner_pool_is_allowlisted(tmp_path):
    source = "import multiprocessing\np = multiprocessing.Pool(2)\n"
    path = "src/repro/matrix/runner.py"
    assert _lint_text(tmp_path, source, path) == []


def test_dataclass_exempt_from_slots_rule(tmp_path):
    config = LintConfig(hot_path_modules=("hot.py",))
    source = ("import dataclasses\n"
              "@dataclasses.dataclass\n"
              "class Record:\n"
              "    x: int = 0\n")
    assert _lint_text(tmp_path, source, "hot.py", config) == []


def test_exception_exempt_from_slots_rule(tmp_path):
    config = LintConfig(hot_path_modules=("hot.py",))
    source = "class BadThing(RuntimeError):\n    pass\n"
    assert _lint_text(tmp_path, source, "hot.py", config) == []


def test_syntax_error_raises_lint_error(tmp_path):
    with pytest.raises(LintError):
        _lint_text(tmp_path, "def broken(:\n")


def test_missing_path_raises_lint_error():
    with pytest.raises(LintError):
        lint_paths(["no/such/path_xyz"])


def test_findings_sorted_and_structured(tmp_path):
    source = ("import time\n"
              "b = list({1, 2})\n"
              "a = time.time()\n")
    findings = _lint_text(tmp_path, source, "m.py")
    assert [f.line for f in findings] == [2, 3]
    payload = findings[0].to_dict()
    assert payload["rule"] == "set-iteration"
    assert payload["path"] == str(tmp_path / "m.py")
