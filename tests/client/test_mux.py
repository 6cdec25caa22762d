"""Behavioural tests for the MUX client against the MUX server.

The golden traces pin the wire bytes; these tests pin the *semantics*:
stream accounting, speculative push, and cancel-on-duplicate.
"""

import pytest

from repro.client import FIRST_TIME, REVALIDATE
from repro.client.mux import MuxClient
from repro.content import build_microscape_site
from repro.core.modes import HTTP_MUX, HTTP_MUX_PUSH
from repro.core.scenarios import prefill_cache
from repro.http import MemoryCache
from repro.server import APACHE, ResourceStore, SimHttpServer
from repro.simnet import LAN, SERVER_HOST, TwoHostNetwork


@pytest.fixture(scope="module")
def site():
    return build_microscape_site()


def run_mux(site, store, *, push=False, scenario=FIRST_TIME,
            prefill=False):
    mode = HTTP_MUX_PUSH if push else HTTP_MUX
    net = TwoHostNetwork(LAN)
    server = SimHttpServer(net.sim, net.server, store, APACHE,
                           mux=True, push=push)
    cache = MemoryCache()
    if prefill:
        prefill_cache(cache, store, site, APACHE)
    robot = MuxClient(net.sim, net.client, SERVER_HOST, server.port,
                      mode.client_config(), cache)
    known = site.all_urls() if scenario == REVALIDATE else None
    result = robot.fetch(site.html_url, scenario, known_urls=known)
    net.run()
    return net, server, robot, result


def test_mux_first_time_multiplexes_one_connection(site):
    store = ResourceStore.from_site(site)
    net, server, robot, result = run_mux(site, store)
    assert result.complete
    assert len(result.responses) == 43
    for url, response in result.responses.items():
        assert response.status == 200
        assert response.body == site.objects[url].body
    assert result.connections_used == 1
    assert result.max_parallel_connections == 1
    assert server.requests_served == 43
    assert server.pushes_promised == 0


def test_push_first_time_serves_images_without_requests(site):
    store = ResourceStore.from_site(site)
    net, server, robot, result = run_mux(site, store, push=True)
    assert result.complete
    assert len(result.responses) == 43
    # One real request (the HTML); every inline GIF arrived as a push.
    assert server.requests_served == 1
    assert server.pushes_promised == 42
    assert server.pushes_sent == 42
    assert robot.pushes_cancelled == 0
    # Pushed bodies are byte-correct, same as requested ones.
    for obj in site.image_objects:
        assert result.responses[obj.url].body == obj.body


def test_push_stays_dormant_on_revalidation(site):
    store = ResourceStore.from_site(site)
    net, server, robot, result = run_mux(site, store, push=True,
                                         scenario=REVALIDATE,
                                         prefill=True)
    assert result.complete
    # The HTML 304 means nothing qualifies for push.
    assert server.pushes_promised == 0
    assert all(response.status == 304
               for response in result.responses.values())


def test_client_cancels_pushes_it_already_asked_for(site):
    # Warm cache, but the HTML changed on the server: revalidation gets
    # a 200 HTML back, the server speculatively pushes all 42 GIFs —
    # and the client, which already has conditional GETs in flight for
    # every one of them, refuses every promise with CANCEL.
    store = ResourceStore.from_site(site)
    cache = MemoryCache()
    prefill_cache(cache, store, site, APACHE)
    store.update(site.html_url,
                 store.get(site.html_url).body + b"<!-- rev2 -->")

    net = TwoHostNetwork(LAN)
    server = SimHttpServer(net.sim, net.server, store, APACHE,
                           mux=True, push=True)
    robot = MuxClient(net.sim, net.client, SERVER_HOST, server.port,
                      HTTP_MUX_PUSH.client_config(), cache)
    result = robot.fetch(site.html_url, REVALIDATE,
                         known_urls=site.all_urls())
    net.run()

    assert result.complete
    assert result.responses[site.html_url].status == 200
    assert server.pushes_promised == 42
    assert robot.pushes_cancelled == 42
    # Cancelled pushes never cost response transfers: the images all
    # came back as 304s to the client's own conditional GETs.
    assert sum(1 for r in result.responses.values()
               if r.status == 304) == 42


@pytest.mark.parametrize("deflate", [False, True])
def test_a_second_copy_of_the_page_is_scanned_from_a_clean_state(
        site, deflate):
    """A stream carrying the page dies mid-body and a new stream
    delivers it whole: scan state belongs to the response."""
    import zlib
    from repro.client.mux import _MuxStream
    from repro.http import Headers, Response
    net = TwoHostNetwork(LAN)
    robot = MuxClient(net.sim, net.client, SERVER_HOST, 80,
                      HTTP_MUX.client_config())
    robot._dispatch = lambda: None          # discovery only, no wire
    page = site.html.body
    wire = zlib.compress(page) if deflate else page
    # Inside an <img src="..."> value (plain) / the deflate stream.
    cut = page.index(b'<img src="') + 15

    def response():
        fields = [("Content-Type", "text/html")]
        if deflate:
            fields.append(("Content-Encoding", "deflate"))
        return Response(200, headers=Headers(fields))

    first, second = response(), response()
    robot._on_mux_body_chunk(_MuxStream(site.html_url, False), first,
                             wire[:cut])
    stream = _MuxStream(site.html_url, False)
    for offset in range(0, len(wire), 1460):
        robot._on_mux_body_chunk(stream, second,
                                 wire[offset:offset + 1460])
    assert list(robot._expected) == site.embedded_urls()
    assert robot._scanner.bytes_seen == len(page)


def test_mux_and_push_traces_stay_deterministic(site):
    store = ResourceStore.from_site(site)

    def trace(push):
        net, *_ = run_mux(site, store, push=push)
        return net.trace.format_trace()

    assert trace(True) == trace(True)
    assert trace(False) == trace(False)
