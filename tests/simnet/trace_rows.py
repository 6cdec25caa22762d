"""Test helpers for the unit-end TCP check: committed trace text read
back into rows, and the one way the tests build a check config.

The simulator never reads trace text; the checks' mutation tests edit
the frozen golden bytes and replay them, so the reader lives here."""

import re

from repro.simnet.checks import SanitizerConfig
from repro.simnet.link import WAN

#: One line of ``PacketRecord.format`` output, e.g.::
#:
#:     0.090648 zorch.w3.org:32768 > www26.w3.org:80 [PA] seq=1 ack=1 len=97
_TRACE_LINE = re.compile(
    r"^\s*(?P<time>[0-9.]+)\s+"
    r"(?P<src>\S+):(?P<sport>\d+)\s+>\s+"
    r"(?P<dst>\S+):(?P<dport>\d+)\s+"
    r"\[(?P<flags>[SFRPA.]+)\]\s+"
    r"seq=(?P<seq>\d+)\s+ack=(?P<ack>\d+)\s+len=(?P<len>\d+)\s*$")


def parse_trace_text(text):
    """The rows of ``format_trace`` output; blank lines are skipped and
    any other line that is not a trace line raises ``ValueError``."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        match = _TRACE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a trace line: {line!r}")
        rows.append((float(match.group("time")),
                     match.group("src"), int(match.group("sport")),
                     match.group("dst"), int(match.group("dport")),
                     match.group("flags"), int(match.group("seq")),
                     int(match.group("ack")), int(match.group("len"))))
    return rows


def wan_config(max_parallel=1, *, nagle_server=False, faulty=False,
               mode_rules=None):
    """The config the runner derives for a WAN Apache cell with
    ``max_parallel`` connections: 200 ms client and 50 ms server
    delayed-ACK heartbeats, ``TCP_NODELAY`` on the server unless
    ``nagle_server``."""
    return SanitizerConfig.for_run(
        environment=WAN, server_nodelay=not nagle_server,
        client_delack=0.200, server_delack=0.050,
        max_parallel=max_parallel, faulty=faulty, mode_rules=mode_rules)
