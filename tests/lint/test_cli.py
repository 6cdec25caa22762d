"""The ``python -m repro lint`` verb: exit codes and JSON."""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.lint import LintConfig

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.mark.usefixtures("src_graph")
def test_lint_src_exits_clean(capsys):
    assert main(["lint", str(REPO / "src" / "repro")]) == 0
    assert "clean" in capsys.readouterr().err


def test_lint_fixture_corpus_exits_dirty(capsys):
    code = main(["lint", str(FIXTURES)])
    assert code == 1
    out = capsys.readouterr().out
    for rule in ("wall-clock", "set-iteration", "float-clock-compare",
                 "mutable-default"):
        assert f"[{rule}]" in out


def test_hot_path_config_activates_slots_rule(capsys, monkeypatch):
    target = str(FIXTURES / "bad_missing_slots.py")
    assert main(["lint", target]) == 0
    # The hot-path list is configuration, not a flag.
    monkeypatch.setattr("repro.lint.cli.DEFAULT_CONFIG", LintConfig(
        hot_path_modules=("bad_missing_slots",)))
    assert main(["lint", target]) == 1
    assert "[slots-hot-path]" in capsys.readouterr().out


def test_json_output_structure(capsys):
    code = main(["lint", "--json", str(FIXTURES / "bad_wall_clock.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["finding_count"] == 1
    assert payload["findings"][0]["rule"] == "wall-clock"
    assert set(payload) == {"findings", "finding_count", "clean"}


DEEP_FIXTURES = FIXTURES / "deep"


def test_deep_flag_exits_dirty_on_corpus(capsys):
    code = main(["lint", "--deep", str(DEEP_FIXTURES / "bad_rng")])
    assert code == 1
    out = capsys.readouterr().out
    assert "[rng-seed-origin]" in out
    assert "[rng-shared-stream]" in out


@pytest.mark.usefixtures("src_graph")
def test_deep_src_exits_clean(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert main(["lint", "--deep", "src/repro"]) == 0
    assert "clean" in capsys.readouterr().err


def test_removed_flags_are_usage_errors(capsys):
    for flag in ("--baseline", "--write-baseline", "--hot-path",
                 "--sanitize-traces"):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--deep", flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_deep_json_findings_carry_sorted_stable_ids(capsys):
    code = main(["lint", "--json", "--deep",
                 str(DEEP_FIXTURES / "bad_rng")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    findings = payload["findings"]
    assert len(findings) == 4
    for finding in findings:
        assert set(finding) == {"path", "line", "col", "rule",
                                "message", "hint"}
    keys = [(f["path"], f["line"], f["col"], f["rule"])
            for f in findings]
    assert keys == sorted(keys)


def test_missing_lint_path_is_usage_error(capsys):
    assert main(["lint", "no/such/dir_xyz"]) == 2
    assert "lint:" in capsys.readouterr().err


@pytest.mark.parametrize("deep", [[], ["--deep"]], ids=["files", "deep"])
@pytest.mark.parametrize("content", [b"name = '\xe9'\n",
                                     b"def broken(:\n"],
                         ids=["non-utf8", "syntax-error"])
def test_unreadable_source_is_usage_error(tmp_path, capsys, deep,
                                          content):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "bad.py").write_bytes(content)
    assert main(["lint", *deep, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lint: ") and "bad.py" in err


def test_deep_covers_every_path(tmp_path, capsys):
    # A constant-seeded RNG that lives only in the second path.
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "clean.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "b" / "noise.py").write_text(
        "import random\n\ndef sample():\n"
        "    return random.Random(7).random()\n", encoding="utf-8")
    code = main(["lint", "--deep", str(tmp_path / "a"),
                 str(tmp_path / "b")])
    assert code == 1
    assert "[rng-seed-origin]" in capsys.readouterr().out


@pytest.mark.parametrize("deep", [[], ["--deep"]], ids=["files", "deep"])
def test_single_file_lints(capsys, deep):
    target = str(DEEP_FIXTURES / "bad_rng" / "streams.py")
    code = main(["lint", *deep, target])
    out = capsys.readouterr().out
    assert code == (1 if deep else 0)
    assert ("[rng-seed-origin]" in out) == bool(deep)

