"""Convenience wiring: client host(s) and a server host joined by one link.

Every experiment in the paper is a two-host affair — the libwww robot on
one machine, Jigsaw or Apache on the other, with tcpdump watching the
client side.  :class:`Network` assembles exactly that: a
:class:`~repro.simnet.engine.Simulator`, a
:class:`~repro.simnet.link.Link` configured from a
:class:`~repro.simnet.link.NetworkEnvironment`, one
:class:`~repro.simnet.tcp.TcpStack` per host, a
:class:`~repro.simnet.trace.TraceCollector` (the link's one observer),
the fast-forward driver, and (for the PPP environment) a V.42bis
:class:`~repro.simnet.modem.ModemCompressor` pair per client.

A fleet cohort is the same network with more client hosts: passing
several ``client_hosts`` puts them all behind the server's link as one
shared bottleneck.  :data:`TwoHostNetwork` is the same class under the
name the one-client call sites use.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .engine import Simulator
from .fastforward import FastForward
from .link import NetworkEnvironment
from .modem import ModemCompressor
from .tcp import TcpConfig, TcpStack
from .trace import TraceCollector

__all__ = ["Network", "TwoHostNetwork", "ChainNetwork", "CLIENT_HOST",
           "SERVER_HOST", "PROXY_HOST", "fleet_client_host"]

#: Host names used throughout experiments (after the paper's machines).
CLIENT_HOST = "zorch.w3.org"
SERVER_HOST = "www26.w3.org"
PROXY_HOST = "proxy.w3.org"


def fleet_client_host(index: int) -> str:
    """Deterministic host name for the ``index``-th fleet client."""
    return f"client{index:04d}.w3.org"


def _close(sim: Simulator, links, stacks) -> None:
    """A finished unit's exit: hosts unplugged, links detached, pending
    events dropped.  Afterwards nothing in the network refers back to
    anything else, so dropping it frees it, trace columns included, by
    reference count.  Idempotent."""
    for stack in stacks:
        stack.close()
    for link in links:
        link.close()
    sim.close()


class Network:
    """Simulated client host(s) and one server on one network environment.

    Parameters
    ----------
    environment:
        One of :data:`repro.simnet.link.LAN` / ``WAN`` / ``PPP`` (or any
        custom :class:`NetworkEnvironment`).
    seed:
        Seed for the jitter RNG; two networks with the same seed behave
        identically.
    jitter:
        Fractional transmission-time jitter, modelling the run-to-run
        variation the paper averaged away over five runs.
    server_config:
        Optional server :class:`TcpConfig` (the testbed sets the
        server's delayed-ACK period and initial congestion window).
        Client stacks always use ``TcpConfig(mss=environment.mss)``, as
        does the server without one.
    modem_compression:
        Override the environment's modem-compression flag (e.g. to
        measure a PPP link with V.42bis disabled).
    fastpath:
        Wire up the flow-level fast-forward driver
        (:class:`~repro.simnet.fastforward.FastForward`).  Results are
        byte-identical either way; False forces per-segment execution
        throughout, the reference the simnet tests and the bulk
        benchmark compare fast-forwarding against.  Every testbed
        fast-forwards.
    client_hosts:
        Names of the client hosts, one stack each (default: the paper's
        single robot machine).  With more than one, the server's link is
        a shared bottleneck (:attr:`Link.bottleneck_host
        <repro.simnet.link.Link.bottleneck_host>`): every client's
        download serializes FIFO through the one downlink, every upload
        through the one uplink — the contention regime the follow-on
        mobile-population studies measure.  (With one client the shared
        and the per-pair queues are the same queue.)
    capacity_epoch / capacity_shares:
        Optional stepwise link-rate schedule
        (:meth:`Link.set_capacity_schedule
        <repro.simnet.link.Link.set_capacity_schedule>`); the fleet
        engine uses it to impose the fixed-point bottleneck shares other
        cohorts claim.  The fast-forward driver stays wired: spans fall
        back at the first foreign event or epoch boundary.

    ``clients`` lists the client stacks in ``client_hosts`` order;
    ``client`` is the first of them, and ``modem_up`` / ``modem_down``
    are its modem pair (``None`` without modem compression).
    """

    def __init__(self, environment: NetworkEnvironment, *,
                 seed: int = 0, jitter: float = 0.0,
                 server_config: Optional[TcpConfig] = None,
                 modem_compression: Optional[bool] = None,
                 fastpath: bool = True,
                 client_hosts: Sequence[str] = (CLIENT_HOST,),
                 capacity_epoch: Optional[float] = None,
                 capacity_shares=None) -> None:
        if not client_hosts:
            raise ValueError("a network needs at least one client")
        self.environment = environment
        self.sim = Simulator()
        self.link = environment.make_link(self.sim, jitter=jitter,
                                          seed=seed)
        if len(client_hosts) > 1:
            self.link.bottleneck_host = SERVER_HOST
        if capacity_shares is not None:
            self.link.set_capacity_schedule(capacity_epoch, capacity_shares)
        config = TcpConfig(mss=environment.mss)
        self.clients = [TcpStack(self.sim, host, self.link, config)
                        for host in client_hosts]
        self.client = self.clients[0]
        self.server = TcpStack(self.sim, SERVER_HOST, self.link,
                               server_config or config)
        # tcpdump ran on the (first) client host.
        self.trace = TraceCollector(self.link, self.client.host)
        self.fastforward: Optional[FastForward] = None
        if fastpath:
            self.fastforward = FastForward(
                self.sim, self.link, (*self.clients, self.server),
                self.trace)
        self.modem_up: Optional[ModemCompressor] = None
        self.modem_down: Optional[ModemCompressor] = None
        use_modem = (environment.modem_compression
                     if modem_compression is None else modem_compression)
        if use_modem:
            # Each user dials in through their own modem pair, so each
            # (client, server) direction owns a private V.42bis
            # dictionary — one client's traffic must not train another's.
            for stack in self.clients:
                up, down = ModemCompressor(), ModemCompressor()
                self.link.set_compressor(stack.host, SERVER_HOST, up)
                self.link.set_compressor(SERVER_HOST, stack.host, down)
                if stack is self.client:
                    self.modem_up, self.modem_down = up, down

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation until quiescent (or until ``until``)."""
        self.sim.run(until=until)

    def close(self) -> None:
        """Release the finished network (see :func:`_close`)."""
        _close(self.sim, (self.link,), (*self.clients, self.server))


#: The paper's two-host testbed is the one-client :class:`Network`.
TwoHostNetwork = Network


class ChainNetwork:
    """Client — proxy — origin: two links, three hosts, one simulator.

    Used for the Keep-Alive-through-proxies pathology the paper cites
    as the reason HTTP/1.1's persistent connections differ from the
    HTTP/1.0 Keep-Alive extension.  The proxy host owns a TCP stack on
    *each* link (it has two interfaces).  The links carry no jitter.
    """

    def __init__(self, environment: NetworkEnvironment) -> None:
        self.environment = environment
        self.sim = Simulator()
        # One private loss stream per link.
        self.client_link = environment.make_link(self.sim, seed=0)
        self.server_link = environment.make_link(self.sim, seed=1)
        config = TcpConfig(mss=environment.mss)
        self.client = TcpStack(self.sim, CLIENT_HOST, self.client_link,
                               config)
        self.proxy_client_side = TcpStack(self.sim, PROXY_HOST,
                                          self.client_link,
                                          TcpConfig(mss=environment.mss))
        self.proxy_server_side = TcpStack(self.sim, PROXY_HOST,
                                          self.server_link,
                                          TcpConfig(mss=environment.mss))
        self.server = TcpStack(self.sim, SERVER_HOST, self.server_link,
                               TcpConfig(mss=environment.mss))
        self.trace = TraceCollector(self.client_link, CLIENT_HOST)

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation until quiescent (or until ``until``)."""
        self.sim.run(until=until)

    def close(self) -> None:
        """Release the finished network (see :func:`_close`)."""
        _close(self.sim, (self.client_link, self.server_link),
               (self.client, self.proxy_client_side,
                self.proxy_server_side, self.server))
