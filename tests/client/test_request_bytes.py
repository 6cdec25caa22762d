"""A robot's request is its wire bytes — and nobody can tell.

The robot keeps a request as ``(method, wire bytes)``: a tuple of fields
serialized by the one request-head serializer ``Request.to_bytes`` uses.
These tests pin that every request shape it sends is ``cmp``-equal to
the memo-free assembly, ``Request(method, target, version,
Headers(fields)).to_bytes()`` on an empty serializer memo, with the
fields spelled here, the way the robot spelled them as ``Headers``
edits; and that a warm request builds no ``Request`` or ``Headers``.
"""

import dataclasses

import pytest

from repro.client.robot import FIRST_TIME, REVALIDATE, TAIL_MARKER, Robot
from repro.core import run_experiment
from repro.core.modes import HTTP10_MODE, HTTP11_PIPELINED, HTTP_MUX
from repro.core.registry import resolve_environment, resolve_profile
from repro.core.render import measure_render
from repro.http import HTTP10, HTTP11, Headers, Request
from repro.http import messages


def oracle(robot, url):
    """The request for ``url`` as edits of a ``Headers``, the robot's
    state read as it is when the robot builds the request."""
    config = robot.config
    tail_of = None
    if url.endswith(TAIL_MARKER):
        tail_of = url = url[:-len(TAIL_MARKER)]
    is_html = url == robot._html_url
    method = "GET"
    headers = Headers([("Host", robot.server_host),
                       ("User-Agent", config.user_agent), ("Accept", "*/*"),
                       *config.extra_headers])
    if is_html and config.accept_deflate:
        headers.add("Accept-Encoding", "deflate")
    if config.http_version == HTTP10 and config.keep_alive:
        headers.add("Connection", "Keep-Alive")
    elif config.http_version >= HTTP11 and robot._downgrade_level >= 2:
        headers.add("Connection", "close")
    prefix = config.range_prefix_bytes
    if prefix and not is_html and robot._scenario == FIRST_TIME:
        headers.add("Range", f"bytes={prefix}-" if tail_of is not None
                    else f"bytes=0-{prefix - 1}")
    if robot._scenario == REVALIDATE:
        if config.reval_strategy == "get-plus-head":
            method = "GET" if is_html else "HEAD"
        else:
            entry = robot.cache.get(url)
            http11 = (config.http_version >= HTTP11
                      and config.validator_preference == "etag")
            if entry is not None and http11 and entry.headers.get("ETag"):
                headers.add("If-None-Match", entry.headers.get("ETag"))
            elif entry is not None and entry.headers.get("Last-Modified"):
                headers.add("If-Modified-Since",
                            entry.headers.get("Last-Modified"))
            elif (entry is not None and config.allow_date_fallback
                  and entry.headers.get("Date")):
                headers.add("If-Modified-Since", entry.headers.get("Date"))
            elif (config.reval_strategy == "conditional-or-head"
                  and not is_html):
                method = "HEAD"
    return Request(method, url, config.http_version, headers)


def _config(mode, **fields):
    return dataclasses.replace(mode.client_config(), **fields)


#: name → (mode, scenario, server, client config or None, downgraded)
SHAPES = {
    "first-time": (HTTP11_PIPELINED, "first-time", "Apache", None, False),
    "revalidate": (HTTP11_PIPELINED, "revalidate", "Apache", None, False),
    "1.0-keep-alive": (HTTP10_MODE, "first-time", "Apache",
                       _config(HTTP10_MODE, keep_alive=True), False),
    "1.0-keep-alive-revalidate": (HTTP10_MODE, "revalidate", "Apache",
                                  _config(HTTP10_MODE, keep_alive=True),
                                  False),
    "downgraded-to-close": (HTTP11_PIPELINED, "first-time", "Apache", None,
                            True),
    "range-prefix-and-tail": (HTTP11_PIPELINED, "first-time", "Apache",
                              _config(HTTP11_PIPELINED,
                                      range_prefix_bytes=200), False),
    "get-plus-head": (HTTP10_MODE, "revalidate", "Jigsaw", None, False),
    "conditional-or-head-no-validator": (
        HTTP11_PIPELINED, "revalidate", "Jigsaw",
        _config(HTTP11_PIPELINED, reval_strategy="conditional-or-head",
                validator_preference="date"), False),
    "if-modified-since-date-fallback": (
        HTTP11_PIPELINED, "revalidate", "Jigsaw",
        _config(HTTP11_PIPELINED, reval_strategy="conditional-or-head",
                validator_preference="date", allow_date_fallback=True),
        False),
    "mux-headers": (HTTP_MUX, "first-time", "Apache", None, False),
    "mux-headers-revalidate": (HTTP_MUX, "revalidate", "Apache", None,
                               False),
}


_BUILD_REQUEST = Robot._build_request


def _run(name, monkeypatch, build=None, scenario=None):
    """Run shape ``name`` (as ``scenario``, if given), with
    ``Robot._build_request`` replaced by ``build(original, robot, url)``
    if given."""
    mode, own_scenario, server, config, downgraded = SHAPES[name]
    scenario = scenario or own_scenario
    if build is not None:
        monkeypatch.setattr(Robot, "_build_request", lambda robot, url:
                            build(_BUILD_REQUEST, robot, url))
    if downgraded:
        fetch = Robot.fetch

        def downgraded_fetch(robot, *args, **kwargs):
            robot._downgrade_level = 2
            return fetch(robot, *args, **kwargs)
        monkeypatch.setattr(Robot, "fetch", downgraded_fetch)
    if config is not None and config.range_prefix_bytes:
        # A ranged fetch answers prefix and tail apart: the render
        # timeline is the run that takes one.
        measure_render(config, resolve_environment("LAN"),
                       resolve_profile(server))
    else:
        run_experiment(mode, scenario, environment="LAN", profile=server,
                       client_config=config)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_request_shape_is_its_memo_free_serialization(name,
                                                            monkeypatch):
    sent = []

    def build(original, robot, url):
        request = original(robot, url)
        sent.append((oracle(robot, url), request))
        return request

    if SHAPES[name][1] == REVALIDATE:
        # The first visit leaves its requests in the memo, as a
        # revisiting user's would: a revalidation must not be served
        # the head of the same URL without its validator.
        _run(name, monkeypatch, scenario=FIRST_TIME)
    _run(name, monkeypatch, build)
    assert sent
    for expected, (method, wire) in sent:
        # Each reference is serialized on an empty memo, so no entry
        # the run stored can stand in for it.
        messages._WIRE_HEADS.clear()
        assert method == expected.method
        assert wire == expected.to_bytes(), (name, expected.target)
    fields = [dict(request.headers.items()) for request, _ in sent]
    shape_field = {
        "revalidate": "If-None-Match",
        "1.0-keep-alive": "Connection",
        "downgraded-to-close": "Connection",
        "range-prefix-and-tail": "Range",
        "if-modified-since-date-fallback": "If-Modified-Since",
    }.get(name)
    if shape_field is not None:
        assert any(shape_field in f for f in fields)
    if name == "range-prefix-and-tail":
        ranges = {f.get("Range") for f in fields}
        assert {"bytes=0-199", "bytes=200-"} <= ranges
    if name in ("get-plus-head", "conditional-or-head-no-validator"):
        methods = [request.method for request, _ in sent]
        assert "HEAD" in methods and "GET" in methods
    if name == "conditional-or-head-no-validator":
        assert not any("If-None-Match" in f or "If-Modified-Since" in f
                       for f in fields)


class _Builds:
    """Counts the ``Request`` and ``Headers`` objects built while the
    robot dispatches: builds, sends and buffers requests (its parses of
    responses run outside dispatch and are not counted)."""

    def __init__(self, monkeypatch):
        self.count = 0
        self.dispatches = 0
        self._inside = False
        for cls in (Request, Headers):
            monkeypatch.setattr(cls, "__init__", self._counted(cls.__init__))
        from_parts = Headers._from_parts.__func__
        monkeypatch.setattr(Headers, "_from_parts",
                            classmethod(self._counted(from_parts)))
        monkeypatch.setattr(Headers, "copy", self._counted(Headers.copy))
        monkeypatch.setattr(Robot, "_dispatch",
                            self._dispatching(Robot._dispatch))

    def _counted(self, function):
        def counted(*args, **kwargs):
            if self._inside:
                self.count += 1
            return function(*args, **kwargs)
        return counted

    def _dispatching(self, dispatch):
        def dispatching(robot):
            outer, self._inside = self._inside, True
            self.dispatches += 1
            try:
                return dispatch(robot)
            finally:
                self._inside = outer
        return dispatching


@pytest.mark.parametrize("name", ["revalidate", "1.0-keep-alive",
                                  "range-prefix-and-tail",
                                  "if-modified-since-date-fallback",
                                  "mux-headers-revalidate"])
def test_a_warm_request_builds_nothing(name, monkeypatch):
    _run(name, monkeypatch)             # warms the serializer memo
    builds = _Builds(monkeypatch)
    _run(name, monkeypatch)
    assert builds.dispatches > 0
    assert builds.count == 0
