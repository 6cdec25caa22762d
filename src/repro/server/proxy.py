"""An HTTP proxy — including the Keep-Alive bug HTTP/1.1 was built to fix.

The paper: "The 'Keep-Alive' extension to HTTP/1.0 is a form of
persistent connections.  HTTP/1.1's design differs in minor details
from Keep-Alive to overcome a problem discovered when Keep-Alive is
used with more than one proxy between a client and a server."

The problem, reproduced by :class:`SimHttpProxy` in ``blind`` mode:

1. the client sends ``Connection: Keep-Alive``;
2. an old HTTP/1.0 proxy does not understand the ``Connection`` header
   and **forwards it verbatim** to the origin;
3. the origin believes its *immediate peer* (the proxy) asked for a
   persistent connection, so it answers with ``Connection: Keep-Alive``
   and **holds the upstream connection open**;
4. the blind proxy only knows one way to find the end of a response —
   wait for the origin to close — so the exchange **hangs** until an
   idle timeout fires.

HTTP/1.1's fixes are both implemented in ``hop_by_hop`` mode:
``Connection`` (and the headers it names) are stripped before
forwarding, and the proxy understands message framing
(``Content-Length``), so persistence is negotiated per hop.
"""

from __future__ import annotations

from typing import Optional

from ..http import (ParseError, Request, RequestParser,
                    ResponseParser)
from ..simnet.engine import Simulator
from ..simnet.tcp import TcpConnection, TcpStack

__all__ = ["SimHttpProxy", "PROXY_PORT"]

#: The port the proxy listens on (its clients dial it there).
PROXY_PORT = 8080
#: The origin's port, and the name the proxy adds to ``Via`` headers.
_ORIGIN_PORT = 80
_VIA_NAME = "proxy.w3.org"

#: Headers that are hop-by-hop per RFC 2068 §13.5.1.
HOP_BY_HOP = ("connection", "keep-alive", "proxy-connection",
              "transfer-encoding", "te", "trailer", "upgrade",
              "proxy-authenticate", "proxy-authorization")


class _ProxiedExchange:
    """One client connection being relayed through the proxy."""

    def __init__(self, proxy: "SimHttpProxy",
                 client_conn: TcpConnection) -> None:
        self.proxy = proxy
        self.client_conn = client_conn
        self.request_parser = RequestParser()
        self.response_parser = ResponseParser()
        self.upstream: Optional[TcpConnection] = None
        self._idle_timer: Optional[list] = None
        self._client_fin = False
        client_conn.on_data = self._client_data
        client_conn.on_eof = self._client_eof
        client_conn.on_reset = lambda c: self._shutdown()

    # -- client side ----------------------------------------------------
    def _client_data(self, _conn: TcpConnection, data: bytes) -> None:
        try:
            requests = self.request_parser.feed(data)
        except ParseError:
            self.client_conn.abort()
            return
        for request in requests:
            self._forward_request(request)

    def _client_eof(self, _conn: TcpConnection) -> None:
        self._client_fin = True
        if self.upstream is not None and self.upstream.state not in (
                "CLOSED",):
            self.upstream.close()
        self._close_client_if_answered()

    def _close_client_if_answered(self) -> None:
        """After the client's FIN, close its side too once every
        forwarded request is answered — or it sits in CLOSE_WAIT until
        the network is torn down.  (The blind proxy closes it on the
        origin's FIN instead: it cannot count responses.)"""
        if self._client_fin and self.response_parser.outstanding == 0:
            self.client_conn.close()

    # -- upstream side ---------------------------------------------------
    def _forward_request(self, request: Request) -> None:
        headers = request.headers.copy()
        if self.proxy.mode == "hop_by_hop":
            # RFC 2068: Connection names the headers that must not be
            # forwarded; strip them all.
            for name in HOP_BY_HOP:
                headers.remove(name)
            headers.add("Via", f"1.1 {_VIA_NAME}")
        # "blind" mode forwards everything verbatim — the 1.0 bug.
        outbound = Request(request.method, request.target,
                           request.version, headers, request.body)
        if self.upstream is None or self.upstream.state == "CLOSED":
            self._open_upstream()
        self.response_parser.expect(request.method)
        assert self.upstream is not None
        self.upstream.send(outbound.to_bytes())
        self.proxy.requests_forwarded += 1
        self._arm_idle_timer()

    def _open_upstream(self) -> None:
        self.upstream = self.proxy.upstream_stack.connect(
            self.proxy.upstream_host, _ORIGIN_PORT)
        self.upstream.set_nodelay(True)
        self.upstream.on_data = self._upstream_data
        self.upstream.on_eof = self._upstream_eof
        self.upstream.on_reset = lambda c: self._shutdown()
        self.response_parser = ResponseParser()

    def _upstream_data(self, _conn: TcpConnection, data: bytes) -> None:
        self._arm_idle_timer()
        if self.proxy.mode == "hop_by_hop":
            # A framing-aware proxy forwards each complete response and
            # keeps both hops' persistence independent.
            for response in self.response_parser.feed(data):
                headers = response.headers.copy()
                for name in HOP_BY_HOP:
                    headers.remove(name)
                headers.add("Via", f"1.1 {_VIA_NAME}")
                import dataclasses
                relayed = dataclasses.replace(response, headers=headers)
                if self.client_conn.state != "CLOSED":
                    self.client_conn.send(relayed.to_bytes())
                self.proxy.responses_forwarded += 1
            if self.response_parser.outstanding == 0:
                # Framing-aware: every response is delimited, so no
                # idle timer is needed while the hop sits quiet.
                self._cancel_idle_timer()
                self._close_client_if_answered()
        else:
            # The blind proxy just streams bytes; it can only delimit
            # the response by upstream close, so it buffers nothing —
            # but it also cannot tell the client the exchange is over
            # until the origin hangs up.
            if self.client_conn.state != "CLOSED":
                self.client_conn.send(data)

    def _upstream_eof(self, _conn: TcpConnection) -> None:
        self._cancel_idle_timer()
        _conn.close()       # or the hop sits in CLOSE_WAIT for ever
        if self.proxy.mode == "blind":
            # Upstream closed: that is the blind proxy's end-of-response
            # signal; relay the close to the client.
            if self.client_conn.state != "CLOSED":
                self.client_conn.close()
            self.proxy.responses_forwarded += 1
        self.upstream = None

    # -- idle timeout ------------------------------------------------------
    def _arm_idle_timer(self) -> None:
        self._cancel_idle_timer()
        self._idle_timer = self.proxy.sim.schedule(
            self.proxy.idle_timeout, self._idle_fire)

    def _cancel_idle_timer(self) -> None:
        if self._idle_timer is not None:
            self.proxy.sim.cancel(self._idle_timer)
            self._idle_timer = None

    def _idle_fire(self) -> None:
        """The only escape from the Keep-Alive deadlock: give up."""
        self._idle_timer = None
        self.proxy.idle_timeouts += 1
        if self.upstream is not None and self.upstream.state != "CLOSED":
            self.upstream.close()
            self.upstream.shutdown_receive()
            self.upstream = None
        if self.client_conn.state != "CLOSED":
            self.client_conn.close()

    def _shutdown(self) -> None:
        self._cancel_idle_timer()
        if self.upstream is not None and self.upstream.state != "CLOSED":
            self.upstream.abort()
        if self.client_conn.state != "CLOSED":
            self.client_conn.abort()


class SimHttpProxy:
    """Relay client connections to an upstream origin server.

    Parameters
    ----------
    sim:
        The simulator.
    client_stack / upstream_stack:
        The proxy host's TCP stacks on the client-facing and
        origin-facing links (see
        :class:`~repro.simnet.network.ChainNetwork`).
    upstream_host:
        Where the origin lives (it listens on port 80; the proxy listens
        on :data:`PROXY_PORT`).
    mode:
        ``"blind"`` — a 1996 HTTP/1.0 proxy: forwards all headers
        verbatim, delimits responses by upstream close.
        ``"hop_by_hop"`` — HTTP/1.1-compliant: strips hop-by-hop
        headers, understands message framing.
    idle_timeout:
        How long the blind proxy waits on a silent upstream before
        giving up (the deadlock's only exit).
    """

    def __init__(self, sim: Simulator, client_stack: TcpStack,
                 upstream_stack: TcpStack, upstream_host: str, *,
                 mode: str = "blind", idle_timeout: float = 15.0) -> None:
        if mode not in ("blind", "hop_by_hop"):
            raise ValueError(f"unknown proxy mode {mode!r}")
        self.sim = sim
        self.upstream_stack = upstream_stack
        self.upstream_host = upstream_host
        self.mode = mode
        self.idle_timeout = idle_timeout
        #: Statistics.
        self.requests_forwarded = 0
        self.responses_forwarded = 0
        self.idle_timeouts = 0
        client_stack.listen(PROXY_PORT, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        conn.set_nodelay(True)
        _ProxiedExchange(self, conn)
