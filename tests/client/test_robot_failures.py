"""Robot failure paths: resets, truncation, requeue order, hardening."""

import pytest

from repro.client import FIRST_TIME, ClientConfig, Robot
from repro.client import robot as robot_module
from repro.content import build_microscape_site
from repro.faults import FaultyProfile, ServerFaultConfig
from repro.http import HTTP10, HTTP11
from repro.server import APACHE, ResourceStore, SimHttpServer
from repro.simnet import LAN, SERVER_HOST, TwoHostNetwork


@pytest.fixture(scope="module")
def site():
    return build_microscape_site()


@pytest.fixture(scope="module")
def store(site):
    return ResourceStore.from_site(site)


def run_fetch(site, store, config, profile=APACHE, follow_images=True):
    import dataclasses
    config = dataclasses.replace(config, follow_images=follow_images)
    net = TwoHostNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, profile)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80, config)
    result = robot.fetch(site.html_url, FIRST_TIME)
    net.run()
    return robot, result


def faulty(**kwargs):
    return FaultyProfile.wrap(APACHE, ServerFaultConfig(**kwargs))


def tune(monkeypatch, **constants):
    """Set the robot's retry constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(robot_module, name, value)


# ----------------------------------------------------------------------
# Connection reset / truncation
# ----------------------------------------------------------------------
def test_reset_mid_body_is_recorded_and_recovered(site, store):
    """The server RSTs the first response mid-body; _on_reset requeues
    the unanswered request and the retry succeeds."""
    profile = faulty(abort_requests=(1,), abort_after_bytes=100)
    _, result = run_fetch(site, store,
                          ClientConfig(http_version=HTTP11), profile)
    assert result.complete
    assert len(result.responses) == 43
    assert result.retries >= 1
    assert any("connection reset" in error for error in result.errors)
    assert result.recovery.count("client", "retry") >= 1


@pytest.mark.parametrize("mode, cut", [
    # The stale inflater choked on the second copy and the error was
    # swallowed: no image was ever discovered.
    ("HTTP/1.1 Pipelined w. compression", 512),
    # The cut lands inside an <img src="..."> value; the stale tail fused
    # with the second copy's start into a URL the site does not have.
    ("HTTP/1.1 Pipelined", 1218),
    ("HTTP/1.1 Sharded x4", 1218),
])
def test_a_refetched_page_is_scanned_from_a_clean_state(mode, cut):
    """The page is RST ``cut`` bytes in — inside its body, unlike the
    100 bytes above — and fetched again: the scan belongs to the
    response, so the second copy never continues the first one's."""
    from repro.core import run_experiment
    from repro.faults import FaultPlan
    plan = FaultPlan("cut-page", "RST the page mid-body",
                     server=ServerFaultConfig(abort_requests=(1,),
                                              abort_after_bytes=cut))
    result = run_experiment(mode, FIRST_TIME, environment="LAN",
                            profile="Apache", faults=plan)
    assert len(result.fetch.responses) == 43     # and _verify passed
    # (Each of the four sharded origins aborts its own first request.)
    assert result.recovery["server.abort"] >= 1
    assert result.retries >= 1


def test_truncated_response_on_eof_records_parse_error(site, store):
    """A connection closed inside a Content-Length body is a truncated
    response: the error is recorded and the request requeued."""
    net = TwoHostNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, APACHE)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80,
                  ClientConfig(http_version=HTTP11))
    state = robot._new_conn()
    net.run()                       # let the handshake finish
    robot._started = True
    robot._html_complete = True
    robot._expected["/x.html"] = None
    robot._unhandled.add("/x.html")
    state.parser.expect("GET")
    state.outstanding.append("/x.html")
    state._on_data(state.conn, b"HTTP/1.1 200 OK\r\n"
                               b"Content-Length: 100\r\n\r\nshort")
    state._on_eof(state.conn)
    assert any("truncated response" in error
               for error in robot.result.errors)
    assert not state.open
    assert robot.result.retries == 1
    assert list(robot._pending) == ["/x.html"]


def test_garbage_bytes_record_parse_error_and_abort(site, store):
    net = TwoHostNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, APACHE)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80, ClientConfig())
    state = robot._new_conn()
    net.run()
    state.parser.expect("GET")
    state.outstanding.append("/x.html")
    state._on_data(state.conn, b"GARBAGE\r\n\r\n")
    assert any("parse error" in error for error in robot.result.errors)
    assert not state.open


class GarbledServer:
    """A real server whose ``garbled`` (1-based) connections answer the
    first request with bytes that are no HTTP response head."""

    def __init__(self, net, store, garbled):
        self.garbled = garbled
        self.accepted = 0
        self.real = SimHttpServer(net.sim, net.server, store, APACHE,
                                  port=8000)
        net.server._listeners.pop(8000)
        net.server.listen(80, self._accept)

    def _accept(self, conn):
        self.accepted += 1
        if self.accepted in self.garbled:
            conn.on_data = lambda c, data: c.send(b"GARBAGE\r\n\r\n")
        else:
            self.real._accept(conn)


def test_garbage_head_mid_page_is_retried_like_a_truncation(site, store):
    """A parse error goes through the same exit as a cut connection:
    what the connection still owed is re-queued within the budget (it
    used to strand the page: neither re-queued nor failed)."""
    net = TwoHostNetwork(LAN)
    GarbledServer(net, store, garbled={2})
    robot = Robot(net.sim, net.client, SERVER_HOST, 80,
                  ClientConfig(http_version=HTTP10, max_connections=4))
    result = robot.fetch(site.html_url, FIRST_TIME)
    net.run()
    assert result.complete and len(result.responses) == 43
    assert result.retries == 1
    assert [e for e in result.errors if "parse error" in e]
    assert result.recovery.count("client", "retry") == 1


def test_garbage_on_every_attempt_exhausts_the_budget(site, store,
                                                      monkeypatch):
    tune(monkeypatch, RETRY_BUDGET=3, MAX_CONSECUTIVE_FAILURES=100,
         RETRY_BACKOFF_BASE=0.01)
    net = TwoHostNetwork(LAN)
    GarbledServer(net, store, garbled=range(1, 100))
    robot = Robot(net.sim, net.client, SERVER_HOST, 80,
                  ClientConfig(http_version=HTTP11))
    result = robot.fetch(site.html_url, FIRST_TIME)
    net.run()
    assert not result.complete
    assert result.terminal_error == "retry budget exhausted (3)"
    assert net.sim.now < 1.0        # decided at once, not at a deadline
    assert robot._conns == [] and not net.client._connections


# ----------------------------------------------------------------------
# Mid-pipeline requeue ordering
# ----------------------------------------------------------------------
def test_requeue_preserves_pipeline_order_ahead_of_pending(site, store):
    """Unanswered pipelined requests go back to the FRONT of the pending
    queue, in their original order, ahead of never-sent URLs."""
    net = TwoHostNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, APACHE)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80,
                  ClientConfig(http_version=HTTP11, pipeline=True))
    robot._started = True
    robot._html_complete = True
    for url in ("/a", "/b", "/c", "/d"):
        robot._expected[url] = None
        robot._unhandled.add(url)
    state = robot._new_conn()
    state.outstanding.extend(["/a", "/b", "/c"])
    state.shut()
    robot._pending.append("/d")
    robot._connection_gone(state)
    assert list(robot._pending) == ["/a", "/b", "/c", "/d"]
    assert robot.result.retries == 1
    assert not state.outstanding


# ----------------------------------------------------------------------
# Bounded retries and terminal errors
# ----------------------------------------------------------------------
def test_retry_budget_exhaustion_is_terminal(site, store, monkeypatch):
    tune(monkeypatch, RETRY_BUDGET=3, MAX_CONSECUTIVE_FAILURES=100,
         RETRY_BACKOFF_BASE=0.01)
    profile = faulty(abort_requests=tuple(range(1, 300)),
                     abort_after_bytes=0)
    config = ClientConfig(http_version=HTTP11)
    _, result = run_fetch(site, store, config, profile,
                          follow_images=False)
    assert not result.complete
    assert "retry budget exhausted" in result.terminal_error
    assert result.retries == 4      # the failure that broke the budget
    assert any(error.startswith("terminal:") for error in result.errors)


def test_consecutive_zero_progress_failures_are_terminal(site, store,
                                                        monkeypatch):
    tune(monkeypatch, RETRY_BUDGET=100, MAX_CONSECUTIVE_FAILURES=3,
         RETRY_BACKOFF_BASE=0.01)
    profile = faulty(abort_requests=tuple(range(1, 300)),
                     abort_after_bytes=0)
    config = ClientConfig(http_version=HTTP11)
    robot, result = run_fetch(site, store, config, profile,
                              follow_images=False)
    assert not result.complete
    assert "consecutive connection failures" in result.terminal_error
    assert result.recovery.count("client", "backoff") == 2


def test_on_complete_fires_on_terminal_error(site, store, monkeypatch):
    tune(monkeypatch, MAX_CONSECUTIVE_FAILURES=2)
    profile = faulty(abort_requests=tuple(range(1, 300)),
                     abort_after_bytes=0)
    net = TwoHostNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, profile)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80,
                  ClientConfig(follow_images=False))
    done = []
    robot.on_complete = done.append
    robot.fetch(site.html_url)
    net.run()
    assert done and done[0].terminal_error is not None


# ----------------------------------------------------------------------
# Watchdog and downgrade ladder
# ----------------------------------------------------------------------
def test_watchdog_aborts_stalled_connection_and_recovers(site, store):
    profile = faulty(stall_requests=(1,), stall_seconds=4.0)
    config = ClientConfig(http_version=HTTP11, watchdog_timeout=3.0)
    _, result = run_fetch(site, store, config, profile,
                          follow_images=False)
    assert result.complete
    assert result.recovery.count("client", "watchdog") == 1
    assert any("watchdog" in error for error in result.errors)
    # The retry could only be answered after the stall released the
    # server's serial CPU.
    assert result.elapsed > 4.0


def test_watchdog_stays_quiet_on_a_healthy_run(site, store):
    config = ClientConfig(http_version=HTTP11, pipeline=True,
                          watchdog_timeout=3.0)
    _, result = run_fetch(site, store, config)
    assert result.complete
    assert result.recovery.count("client", "watchdog") == 0
    assert len(result.responses) == 43


def test_downgrade_ladder_steps_off_pipelining(site, store):
    """A close-after-one server kills the pipeline once; the ladder
    drops to serialized requests and the fetch completes."""
    profile = faulty(close_after_one=True)
    config = ClientConfig(http_version=HTTP11, pipeline=True,
                          downgrade_after=1)
    robot, result = run_fetch(site, store, config, profile)
    assert result.complete
    assert len(result.responses) == 43
    assert result.recovery.count("client", "downgrade") >= 1
    assert robot._downgrade_level >= 1


# ----------------------------------------------------------------------
# 5xx retry
# ----------------------------------------------------------------------
def test_503_is_retried_until_success(site, store):
    profile = faulty(error_503_requests=(1,))
    _, result = run_fetch(site, store, ClientConfig(), profile,
                          follow_images=False)
    assert result.complete
    assert result.responses[site.html_url].status == 200
    assert result.retries == 1
    assert result.recovery.count("client", "retry-5xx") == 1


def test_503_accepted_after_retry_budget(site, store):
    profile = faulty(error_503_requests=tuple(range(1, 10)))
    _, result = run_fetch(site, store, ClientConfig(), profile,
                          follow_images=False)
    assert result.complete
    assert result.responses[site.html_url].status == 503
    assert result.retries == robot_module.RETRY_SERVER_ERRORS == 3
