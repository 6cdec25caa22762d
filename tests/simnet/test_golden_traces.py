"""Golden-trace regression tests: every committed trace is its live cell.

The engine/TCP/trace optimization is only acceptable if it is
*behaviour-preserving at the packet level*: the fixtures under
``fixtures/`` were captured with the pre-optimization engine (WAN,
Apache, seed 0, first-time; the lossy one under the ``flaky-server``
fault plan) and every line — timestamps, flags, sequence numbers,
lengths — must still match byte for byte.  Any intentional protocol
change must re-capture them (see the module docstring in
``repro.simnet.engine`` before doing so).

Each cell runs checked (``sanitize=True``): the unit-end TCP check
replays the capture under the config the runner derives for that very
cell, so a fixture is never checked under a guessed one.  A protocol
regression fails there first, naming the invariant and the simulated
time, before the byte comparison runs.
"""

import pathlib

import pytest

from repro.core.runner import run_experiment

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GOLDEN_CELLS = [
    ("HTTP/1.0", "golden_http10-4conn_wan.trace"),
    ("HTTP/1.1", "golden_persistent_wan.trace"),
    ("HTTP/1.1 Pipelined", "golden_pipelined_wan.trace"),
    ("HTTP/1.1 Pipelined w. compression", "golden_pipelined-deflate_wan.trace"),
    # The post-paper modes: captured at their introduction, same cell.
    ("HTTP/MUX", "golden_mux_wan.trace"),
    ("HTTP/MUX Push", "golden_mux-push_wan.trace"),
    ("HTTP/1.1 Sharded x4", "golden_sharded-x4_wan.trace"),
    ("HTTP/1.1 Pipelined", "lossy_flaky-server_wan.trace"),
]

#: The fault plan a fixture was captured under; its cell is checked as
#: a faulty run.
CELL_FAULTS = {"lossy_flaky-server_wan.trace": "flaky-server"}


@pytest.mark.parametrize("mode,fixture", GOLDEN_CELLS,
                         ids=[fixture for _, fixture in GOLDEN_CELLS])
def test_trace_matches_golden_fixture(mode, fixture):
    result = run_experiment(mode, "first-time", environment="WAN",
                            profile="Apache", seed=0, keep_trace=True,
                            sanitize=True, faults=CELL_FAULTS.get(fixture))
    expected = (FIXTURES / fixture).read_text()
    actual = result.trace_lines + "\n"
    if actual != expected:
        expected_lines = expected.splitlines()
        actual_lines = actual.splitlines()
        for i, (want, got) in enumerate(zip(expected_lines, actual_lines)):
            assert got == want, (
                f"{fixture}: first divergence at line {i + 1}:\n"
                f"  expected: {want}\n  actual:   {got}")
        pytest.fail(f"{fixture}: line count changed "
                    f"({len(expected_lines)} -> {len(actual_lines)})")


def test_keep_trace_off_by_default():
    result = run_experiment("HTTP/1.1", "first-time", environment="WAN",
                            profile="Apache", seed=0)
    assert result.trace_lines is None
