"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import build_parser, main


def test_run_cell(capsys):
    assert main(["run", "--mode", "pipelined", "--scenario",
                 "revalidate", "--environment", "LAN",
                 "--server", "apache"]) == 0
    out = capsys.readouterr().out
    assert "packets:" in out
    assert "HTTP/1.1 Pipelined" in out


def test_a_protocol_violation_exits_1_with_one_quarantine_line(capsys):
    argv = ["run", "--mode", "pipelined", "--server", "NaiveClose"]
    assert main(argv + ["--environment", "WAN"]) == 1
    captured = capsys.readouterr()
    quarantined = [line for line in captured.err.splitlines()
                   if ": invariant after 1 attempt(s): " in line]
    assert len(quarantined) == 1 and "[rst]" in quarantined[0]
    assert "Traceback" not in captured.err and captured.out == ""
    # On the LAN the naive close resets nothing in flight.
    assert main(argv + ["--environment", "LAN"]) == 0
    assert "packets:" in capsys.readouterr().out


def test_run_has_no_sanitize_flag(capsys):
    # Every unit is checked; there is nothing to switch on.
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--sanitize"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --sanitize" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["run", "--server", "Apache"],          # the name every table prints
    ["run", "--server", "NagleStall"],
    ["run", "--environment", "Wan"],
    ["run", "--scenario", "reval"],
])
def test_run_accepts_every_spelling_the_registry_resolves(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "scenario:    " + ("revalidate" if "reval" in argv
                              else "first-time") in out


@pytest.mark.parametrize("flag, kind", [("--server", "server"),
                                        ("--environment", "environment"),
                                        ("--scenario", "scenario")])
def test_run_unknown_name_is_the_registrys_error(flag, kind, capsys):
    assert main(["run", flag, "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"unknown {kind} 'bogus' (") and "choose from" in err


def test_table_out_of_range(capsys):
    # argparse rejects the number before any runner (or journal) exists.
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "12", "--journal"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 12" in err
    assert "journal:" not in err


@pytest.mark.parametrize("argv", [["report", "--runs", "0"],
                                  ["table", "4", "--runs", "0"]])
def test_non_positive_runs_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--runs: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--unit-deadline", "-1", "must be a positive number of seconds"),
    ("--unit-deadline", "0", "must be a positive number of seconds"),
    ("--unit-deadline", "nan", "must be a positive number of seconds"),
    ("--jobs", "-3", "must be at least 0"),
])
def test_nonsense_runner_flags_are_usage_errors(flag, value, message,
                                                capsys):
    # At the parent these ran: --unit-deadline -1 quarantined every
    # unit and exited 0; the negative counts were silently clamped.
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "4", "--runs", "1", flag, value])
    assert excinfo.value.code == 2
    assert f"{flag}: {message}" in capsys.readouterr().err


def test_jobs_zero_means_one_per_cpu():
    args = build_parser().parse_args(["table", "4", "--jobs", "0"])
    assert args.jobs == 0


# Each verb's first unit, named by its label, is poisoned at seed 0.
@pytest.mark.parametrize("argv, victim", [
    pytest.param(["table", "4", "--runs", "1"],
                 "HTTP/1.0 | first-time | LAN | Jigsaw", id="argv0"),
    pytest.param(["fleet", "--users", "4", "--cohorts", "2",
                  "--environment", "LAN", "--pages-per-user", "1",
                  "--rounds", "1"],
                 "fleet 4u/2c LAN seed=0 cohort 0", id="argv1"),
])
def test_a_quarantined_unit_exits_1_with_the_output_printed(argv, victim,
                                                            capsys,
                                                            unit_faults):
    unit_faults.poison(victim, 0)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "1 failed" in captured.err
    assert captured.out.strip()


@pytest.mark.parametrize("flags, message", [
    (["--users", "2", "--cohorts", "4"], "cohorts"),
    (["--rounds", "0"], "rounds"),
])
def test_invalid_fleet_spec_is_a_usage_error(flags, message, capsys):
    assert main(["fleet", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fleet: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, field", [
    ("--arrival-rate", "arrival_rate"), ("--think-time", "think_time"),
    ("--backbone-bps", "backbone_bps"), ("--epoch", "epoch"),
    ("--max-sim-time", "max_sim_time")])
def test_a_non_finite_fleet_number_is_a_usage_error(flag, field, capsys):
    assert main(_TINY_FLEET + [flag, "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fleet: {field} must be finite")
    assert "Traceback" not in err


_TINY_FLEET = ["fleet", "--users", "4", "--cohorts", "1", "--environment",
               "LAN", "--pages-per-user", "1", "--rounds", "1"]


@pytest.mark.parametrize("flags", [
    ["--server", "Apache"],             # the name every table prints
    ["--scenario", "reval"],
    ["--environment", "Wan"],
])
def test_fleet_accepts_every_spelling_the_registry_resolves(flags, capsys):
    assert main(_TINY_FLEET + flags) == 0
    assert "4 users" in capsys.readouterr().out


@pytest.mark.parametrize("flag, kind", [("--server", "server"),
                                        ("--environment", "environment"),
                                        ("--scenario", "scenario")])
def test_fleet_unknown_name_is_the_registrys_error(flag, kind, capsys):
    assert main(_TINY_FLEET + [flag, "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fleet: unknown {kind} 'bogus' (")
    assert "choose from" in err


def test_a_spelling_cannot_fork_a_fleet_journal(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)         # the journal lands under cwd
    outputs = []
    for server in ("apache", "Apache"):
        assert main(_TINY_FLEET + ["--server", server, "--journal"]) == 0
        captured = capsys.readouterr()
        assert re.search(r"^journal: fleet$", captured.err, re.M)
        outputs.append(captured.out)
    # One journal, keyed by unit: the second spelling replays the first.
    assert " 0 simulated" in captured.err
    assert " 0 journal hits" not in captured.err
    assert outputs[0] == outputs[1]
    assert [path.name for path in (tmp_path / ".repro-cache"
                                   / "runs").iterdir()] == ["fleet"]


@pytest.mark.parametrize("run_id", ["../x", "a/b", ""])
def test_a_journal_run_id_is_one_directory_name(run_id, tmp_path, capsys,
                                                monkeypatch):
    # At the parent `--resume ../x` died in RunJournal with a traceback.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "4", "--runs", "1", "--journal", run_id])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--journal: run id" in err
    assert not re.search(r"^journal:", err, re.M)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["table", "4"], ["modem"], ["report"],
                                  ["claims"], ["fleet"], ["chaos"]])
def test_a_bare_journal_flag_names_the_verbs_journal(argv):
    args = build_parser().parse_args([*argv, "--journal"])
    assert args.journal == argv[0]


def test_the_journal_lives_under_the_cache_dir(tmp_path, capsys,
                                               monkeypatch):
    """A report-shaped run: the verb's runner, a tiny batch."""
    from repro import __main__ as cli_main
    from repro.matrix import ExperimentSpec, unit_key

    def spec(runs):
        return ExperimentSpec(mode="pipelined", scenario="revalidate",
                              environment="LAN", server="Apache",
                              seeds=tuple(range(runs)))

    def tiny_report(runs, browser_runs, runner):
        return repr(runner.run(spec(runs)).packets)

    monkeypatch.setattr(cli_main, "generate_experiments_report",
                        tiny_report)
    monkeypatch.chdir(tmp_path)
    argv = ["report", "--cache-dir", "d", "--journal"]
    assert main(argv + ["--runs", "2"]) == 0
    first = capsys.readouterr()
    assert "journal: report" in first.err
    journal = tmp_path / "d" / "runs" / "report"
    assert sorted(path.name for path in journal.iterdir()) == sorted(
        f"{unit_key(spec(2), seed)}.json" for seed in (0, 1))
    assert sorted(path.name for path in tmp_path.iterdir()) == ["d"]
    assert main(argv + ["--runs", "2"]) == 0
    second = capsys.readouterr()
    assert " 0 simulated" in second.err and "2 journal hits" in second.err
    assert second.out == first.out
    # Entries are keyed by unit: fewer runs replay the seeds they share.
    assert main(argv + ["--runs", "1"]) == 0
    assert " 0 simulated" in capsys.readouterr().err


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


def test_claims_takes_the_runner_flags_and_nothing_else(capsys):
    args = build_parser().parse_args(
        ["claims", "--jobs", "2", "--cache-dir", "d", "--journal"])
    assert (args.jobs, args.cache_dir, args.journal) == (2, "d", "claims")
    for extra in (["--runs", "3"], ["--only", "nagle-stall"],
                  ["--resume"], ["--no-artifact-cache"]):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["claims", *extra])
        assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
