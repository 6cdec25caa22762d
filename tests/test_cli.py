"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def test_run_cell(capsys):
    assert main(["run", "--mode", "pipelined", "--scenario",
                 "revalidate", "--environment", "LAN",
                 "--server", "apache"]) == 0
    out = capsys.readouterr().out
    assert "packets:" in out
    assert "HTTP/1.1 Pipelined" in out


def test_run_unknown_mode(capsys):
    assert main(["run", "--mode", "spdy"]) == 2
    assert "unknown mode" in capsys.readouterr().err


def test_table_5(capsys):
    assert main(["table", "5", "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 5" in out
    assert "Pa(paper)" in out


def test_table_3(capsys):
    assert main(["table", "3", "--runs", "1"]) == 0
    assert "Table 3" in capsys.readouterr().out


def test_table_out_of_range(capsys):
    assert main(["table", "12"]) == 2


@pytest.mark.parametrize("argv", [["report", "--runs", "0"],
                                  ["table", "4", "--runs", "0"]])
def test_non_positive_runs_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--runs: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--users", "2", "--cohorts", "4"], "cohorts"),
    (["--rounds", "0"], "rounds"),
])
def test_invalid_fleet_spec_is_a_usage_error(flags, message, capsys):
    assert main(["fleet", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fleet: ") and message in err
    assert "Traceback" not in err


def test_modem(capsys):
    assert main(["modem", "--runs", "1"]) == 0
    assert "Modem compression" in capsys.readouterr().out


def test_content(capsys):
    assert main(["content"]) == 0
    out = capsys.readouterr().out
    assert "static PNG total" in out


def test_site(capsys):
    assert main(["site"]) == 0
    out = capsys.readouterr().out
    assert "/home.html" in out
    assert "/gifs/hero.gif" in out
    assert "TOTAL" in out


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_bench_verb_is_gone_and_every_other_verb_remains(capsys):
    # Host-time measurement is bench/run.sh; there is no shim or alias.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["bench"])
    assert excinfo.value.code == 2
    message = capsys.readouterr().err
    assert "invalid choice: 'bench'" in message
    for verb in ("table", "run", "modem", "content", "site", "report",
                 "fleet", "chaos", "lint"):
        assert f"'{verb}'" in message
