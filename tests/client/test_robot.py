"""Integration tests for the robot client against the simulated server."""

import weakref

import pytest

from repro.client import FIRST_TIME, REVALIDATE, ClientConfig, Robot
from repro.content import build_microscape_site
from repro.core.registry import resolve_mode
from repro.core import runner
from repro.core.scenarios import prefill_cache
from repro.http import HTTP10, HTTP11, MemoryCache
from repro.server import (APACHE, APACHE_12B2, JIGSAW, ResourceStore,
                          SimHttpServer)
from repro.simnet import LAN, SERVER_HOST, TwoHostNetwork

from ..simnet.test_tcp import collector_off


@pytest.fixture(scope="module")
def site():
    return build_microscape_site()


@pytest.fixture(scope="module")
def store(site):
    return ResourceStore.from_site(site)


def run_fetch(site, store, config, scenario=FIRST_TIME, profile=APACHE,
              prefill=False):
    net = TwoHostNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, profile)
    cache = MemoryCache()
    if prefill:
        prefill_cache(cache, store, site, profile)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80, config, cache)
    known = site.all_urls() if scenario == REVALIDATE else None
    result = robot.fetch(site.html_url, scenario, known_urls=known)
    net.run()
    return net, result


# ----------------------------------------------------------------------
# First-time retrieval in the four modes
# ----------------------------------------------------------------------
def test_http10_first_time_retrieves_everything(site, store):
    config = ClientConfig(http_version=HTTP10, max_connections=4)
    net, result = run_fetch(site, store, config)
    assert result.complete
    assert len(result.responses) == 43
    for url, response in result.responses.items():
        assert response.status == 200
        assert response.body == site.objects[url].body
    assert result.connections_used == 43
    assert result.max_parallel_connections == 4


def test_http11_persistent_uses_one_connection(site, store):
    config = ClientConfig(http_version=HTTP11)
    net, result = run_fetch(site, store, config)
    assert result.complete
    assert result.connections_used == 1
    assert len(result.responses) == 43


def test_pipelined_uses_fewer_packets_than_persistent(site, store):
    def packets(config):
        net, result = run_fetch(site, store, config)
        assert result.complete
        return net.trace.summary().packets

    serialized = packets(ClientConfig(http_version=HTTP11))
    pipelined = packets(ClientConfig(http_version=HTTP11, pipeline=True))
    assert pipelined < serialized


def test_compressed_html_still_parses_and_fetches_all(site, store):
    config = ClientConfig(http_version=HTTP11, pipeline=True,
                          accept_deflate=True)
    net, result = run_fetch(site, store, config)
    assert result.complete
    html = result.responses[site.html_url]
    # Robot inflated the body transparently.
    assert html.body == site.html.body
    assert len(result.responses) == 43


def test_requests_are_compact(site, store):
    """The paper: 'an average request size of around 190 bytes' —
    'significantly smaller than many existing product HTTP
    implementations'.  Our synthetic URLs are shorter than the real
    Netscape/Microsoft paths, so the robot lands somewhat below 190;
    the invariant is compact-vs-browser."""
    config = ClientConfig(http_version=HTTP11, pipeline=True)
    _, result = run_fetch(site, store, config)
    assert 90 <= result.mean_request_bytes <= 240
    from repro.core.browsers import NETSCAPE_40B5
    _, browser_result = run_fetch(site, store,
                                  NETSCAPE_40B5.client_config())
    assert browser_result.mean_request_bytes > \
        result.mean_request_bytes + 50


# ----------------------------------------------------------------------
# Revalidation
# ----------------------------------------------------------------------
def test_http11_revalidation_gets_43_304s(site, store):
    config = ClientConfig(http_version=HTTP11, pipeline=True)
    _, result = run_fetch(site, store, config, REVALIDATE, prefill=True)
    assert result.complete
    statuses = [r.status for r in result.responses.values()]
    assert statuses.count(304) == 43


def test_http10_revalidation_uses_get_plus_head(site, store):
    config = ClientConfig(http_version=HTTP10, max_connections=4,
                          reval_strategy="get-plus-head")
    _, result = run_fetch(site, store, config, REVALIDATE, prefill=True)
    assert result.complete
    html = result.responses[site.html_url]
    assert html.status == 200 and html.request_method == "GET"
    heads = [r for r in result.responses.values()
             if r.request_method == "HEAD"]
    assert len(heads) == 42
    assert all(r.status == 200 and r.body == b"" for r in heads)


def test_conditional_requests_carry_etags(site, store):
    """The HTTP/1.1 robot validates with If-None-Match entity tags."""
    seen_requests = []
    config = ClientConfig(http_version=HTTP11, pipeline=True)
    net = TwoHostNetwork(LAN)
    server = SimHttpServer(net.sim, net.server, store, APACHE)
    dispatch = server._dispatch

    def observe(state, request):
        seen_requests.append(request)
        dispatch(state, request)

    server._dispatch = observe
    cache = MemoryCache()
    prefill_cache(cache, store, site, APACHE)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80, config, cache)
    result = robot.fetch(site.html_url, REVALIDATE,
                         known_urls=site.all_urls())
    net.run()
    assert result.complete
    hero = next(r for r in seen_requests
                if r.target == "/gifs/hero.gif")
    assert hero.headers.get("If-None-Match") == \
        store.get("/gifs/hero.gif").etag


# ----------------------------------------------------------------------
# Robustness
# ----------------------------------------------------------------------
def test_retry_when_server_caps_requests(site, store):
    """Apache 1.2b2 closes every 5 responses; the pipelined robot must
    re-issue unanswered requests and still finish."""
    config = ClientConfig(http_version=HTTP11, pipeline=True)
    _, result = run_fetch(site, store, config, profile=APACHE_12B2)
    assert result.complete
    assert len(result.responses) == 43
    assert result.retries >= 1
    assert result.connections_used >= 8    # ~43/5 connections


def test_keepalive_browser_style_fetch(site, store):
    config = ClientConfig(http_version=HTTP10, max_connections=4,
                          keep_alive=True)
    _, result = run_fetch(site, store, config)
    assert result.complete
    assert len(result.responses) == 43
    # Keep-alive: far fewer connections than requests.
    assert result.connections_used <= 8


def test_robot_is_single_use(site, store):
    net = TwoHostNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, APACHE)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80, ClientConfig())
    robot.fetch(site.html_url)
    with pytest.raises(RuntimeError):
        robot.fetch(site.html_url)


def test_fetch_without_images(site, store):
    config = ClientConfig(follow_images=False)
    _, result = run_fetch(site, store, config)
    assert result.complete
    assert list(result.responses) == [site.html_url]


def test_on_complete_callback(site, store):
    net = TwoHostNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, APACHE)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80,
                  ClientConfig(follow_images=False))
    done = []
    robot.on_complete = done.append
    robot.fetch(site.html_url)
    net.run()
    assert done and done[0].complete


# ----------------------------------------------------------------------
# Lifetime: the robot owns live connection states, nothing owns it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["http/1.0", "pipelined", "mux",
                                  "sharded-x4"])
def test_robot_and_cache_die_with_the_last_connection(mode):
    """The network is still open and the collector is off: retiring the
    last connection state is what frees the robot and all it cached."""
    with collector_off():
        mode = resolve_mode(mode)
        testbed = runner.Testbed(LAN, APACHE, mode.transport)
        seen = []
        result = testbed.fetch_page(
            mode.transport, mode.client_config(), FIRST_TIME,
            attach=lambda robot: seen.extend(
                [weakref.ref(robot), weakref.ref(robot.cache), robot]))
        robot = seen.pop()
        testbed.net.run(until=0.01)
        assert robot._conns and not result.complete
        del robot
        testbed.net.run()
        assert result.complete and len(result.responses) == 43
        assert not testbed.net.client._connections
        assert [ref() for ref in seen] == [None, None]


def test_fail_resets_half_closed_connections_too():
    """A robot that gives up leaves nothing behind: connections it had
    already closed its side of get the RST as well, and retire."""
    net = TwoHostNetwork(LAN)
    net.server.listen(80, lambda conn: None)    # never closes its side
    robot = Robot(net.sim, net.client, SERVER_HOST, 80, ClientConfig())
    closing, open_ = robot._new_conn(), robot._new_conn()
    net.run()
    closing.shut()
    closing.conn.close()
    net.run()
    assert closing.conn.state == "FIN_WAIT_2"
    assert robot._conns == [closing, open_]
    assert robot._live == [open_]
    robot._fail("gave up")
    net.run()
    assert robot._conns == [] and not net.client._connections
    resets = [r for r in net.trace.records if "R" in r.flags]
    assert sorted(r.sport for r in resets) == sorted(
        [closing.conn.local_port, open_.conn.local_port])


# ----------------------------------------------------------------------
# Dispatch in paths no measured run reaches
# ----------------------------------------------------------------------
def test_one_shot_sends_on_an_idle_persistent_connection(site, store):
    """Down the ladder at one-shot, an idle persistent connection that
    is still open carries the next request, sent with ``Connection:
    close``: it counts against ``max_connections``, so it must not sit
    idle while the request waits."""
    net = TwoHostNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, APACHE)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80,
                  ClientConfig(http_version=HTTP11, follow_images=False))
    idle = robot._new_conn()
    net.run()
    sent = []
    send = idle.send_request
    idle.send_request = lambda url, request, flush: (
        sent.append(request[1]), send(url, request, flush))
    robot._downgrade_level = 2
    result = robot.fetch(site.html_url)
    net.run()
    assert result.complete and result.connections_used == 1
    assert len(sent) == 1 and b"\r\nConnection: close\r\n" in sent[0]


def test_a_pipelined_robot_with_nothing_pending_opens_nothing():
    net = TwoHostNetwork(LAN)
    robot = Robot(net.sim, net.client, SERVER_HOST, 80,
                  ClientConfig(http_version=HTTP11, pipeline=True))
    robot._dispatch()
    assert robot.result.connections_used == 0 and robot._live == []
