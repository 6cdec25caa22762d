"""The determinism linter: fixture corpus, pragmas, self-check."""

import dataclasses
import pathlib

import pytest

from repro.lint import (DEFAULT_CONFIG, LintConfig, LintError,
                        lint_file, lint_paths, lint_source)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: fixture file -> the single rule it must trigger.
CORPUS = {
    "bad_wall_clock.py": "wall-clock",
    "bad_unseeded_random.py": "unseeded-random",
    "bad_entropy.py": "entropy-source",
    "bad_set_iteration.py": "set-iteration",
    "bad_float_clock_compare.py": "float-clock-compare",
    "bad_mutable_default.py": "mutable-default",
    "bad_missing_slots.py": "slots-hot-path",
    "bad_pool_outside_matrix.py": "pool-outside-matrix",
}


def _config_for(filename):
    if filename == "bad_missing_slots.py":
        return dataclasses.replace(
            DEFAULT_CONFIG, hot_path_modules=("bad_missing_slots",))
    return DEFAULT_CONFIG


@pytest.mark.parametrize("filename,rule", sorted(CORPUS.items()))
def test_fixture_triggers_exactly_one_rule(filename, rule):
    findings = lint_file(FIXTURES / filename, _config_for(filename))
    assert [f.rule for f in findings] == [rule]
    finding = findings[0]
    assert finding.line > 0
    assert finding.hint
    assert f"[{rule}]" in finding.format()


def test_corpus_covers_every_rule():
    from repro.lint import ALL_RULES
    assert set(CORPUS.values()) == set(ALL_RULES)


def test_src_lints_clean():
    """The repository's own source tree carries zero findings."""
    assert lint_paths([SRC]) == []


def test_pragma_waives_rule_on_same_line():
    source = "import time\nt = time.time()  # repro-lint: allow(wall-clock)\n"
    assert lint_source(source) == []


def test_pragma_waives_rule_on_previous_line():
    source = ("import time\n"
              "# repro-lint: allow(wall-clock)\n"
              "t = time.time()\n")
    assert lint_source(source) == []


def test_pragma_star_waives_everything():
    source = "import os\nn = os.urandom(4)  # repro-lint: allow(*)\n"
    assert lint_source(source) == []


def test_pragma_for_other_rule_does_not_waive():
    source = "import time\nt = time.time()  # repro-lint: allow(nagle)\n"
    assert [f.rule for f in lint_source(source)] == ["wall-clock"]


def test_import_alias_resolution():
    source = "import time as clock\nt = clock.time()\n"
    assert [f.rule for f in lint_source(source)] == ["wall-clock"]


def test_from_import_resolution():
    source = "from time import time\nt = time()\n"
    assert [f.rule for f in lint_source(source)] == ["wall-clock"]


def test_local_name_is_not_flagged():
    """A local variable named ``time`` is not the stdlib module."""
    source = "def f(time):\n    return time.time()\n"
    assert lint_source(source) == []


def test_seeded_random_is_clean():
    source = "import random\nrng = random.Random(42)\nx = rng.random()\n"
    assert lint_source(source) == []


def test_unseeded_random_instance_flagged():
    source = "import random\nrng = random.Random()\n"
    assert [f.rule for f in lint_source(source)] == ["unseeded-random"]


def test_sorted_set_iteration_is_clean():
    source = "for h in sorted(set(hosts)):\n    pass\n"
    assert lint_source(source) == []


def test_allowlist_exempts_file():
    config = LintConfig(allowlist={"wall-clock": ("timing/bench.py",)})
    source = "import time\nt = time.time()\n"
    assert lint_source(source, "pkg/timing/bench.py", config) == []
    assert len(lint_source(source, "pkg/other.py", config)) == 1


def test_pool_via_get_context_flagged():
    source = ("import multiprocessing\n"
              "p = multiprocessing.get_context('fork').Pool(2)\n")
    assert [f.rule for f in lint_source(source)] == ["pool-outside-matrix"]


def test_matrix_runner_pool_is_allowlisted():
    source = "import multiprocessing\np = multiprocessing.Pool(2)\n"
    path = "src/repro/matrix/runner.py"
    assert lint_source(source, path, DEFAULT_CONFIG) == []


def test_dataclass_exempt_from_slots_rule():
    config = LintConfig(hot_path_modules=("hot.py",))
    source = ("import dataclasses\n"
              "@dataclasses.dataclass\n"
              "class Record:\n"
              "    x: int = 0\n")
    assert lint_source(source, "hot.py", config) == []


def test_exception_exempt_from_slots_rule():
    config = LintConfig(hot_path_modules=("hot.py",))
    source = "class BadThing(RuntimeError):\n    pass\n"
    assert lint_source(source, "hot.py", config) == []


def test_syntax_error_raises_lint_error():
    with pytest.raises(LintError):
        lint_source("def broken(:\n")


def test_missing_path_raises_lint_error():
    with pytest.raises(LintError):
        lint_paths(["no/such/path_xyz"])


def test_findings_sorted_and_structured():
    source = ("import time, os\n"
              "b = os.urandom(2)\n"
              "a = time.time()\n")
    findings = lint_source(source, "m.py")
    assert [f.line for f in findings] == [2, 3]
    payload = findings[0].to_dict()
    assert payload["rule"] == "entropy-source"
    assert payload["path"] == "m.py"
