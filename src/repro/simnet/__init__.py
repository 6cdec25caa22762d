"""Discrete-event TCP/IP network simulator.

This package substitutes for the paper's physical testbed (Ethernet LAN,
transcontinental WAN, 28.8k PPP dialup) and its tcpdump-based
measurement: a deterministic simulator implementing the TCP mechanisms
the paper's analysis depends on — slow start, delayed ACKs, the Nagle
algorithm, three-way handshake, independent half-close — plus per-link
bandwidth/latency models and a packet trace collector.

:class:`~repro.simnet.network.Network` is the one single-link wiring
(simulator, link, a TCP stack per host, trace collector, fast-forward driver,
modems); the paper's two-host testbed is its one-client default,
exported as ``TwoHostNetwork``, and a fleet cohort is the same class
with several ``client_hosts``.  Typical use::

    from repro.simnet import TwoHostNetwork, LAN

    net = TwoHostNetwork(LAN)
    # attach applications to net.client / net.server TCP stacks
    net.run()
    print(net.trace.summary())
"""

from .engine import Simulator, SimulationError
from .link import (ENVIRONMENTS, LAN, PPP, WAN, Link, NetworkEnvironment)
from .modem import LzwEncoder, ModemCompressor
from .network import CLIENT_HOST, SERVER_HOST, Network, TwoHostNetwork
from .packet import HEADER_BYTES, IP_HEADER_BYTES, TCP_HEADER_BYTES, Segment
from .tcp import TcpConfig, TcpConnection, TcpListener, TcpStack
from .trace import PacketRecord, TraceCollector, TraceSummary

__all__ = [
    "Simulator", "SimulationError",
    "ENVIRONMENTS", "LAN", "WAN", "PPP", "Link", "NetworkEnvironment",
    "LzwEncoder", "ModemCompressor",
    "CLIENT_HOST", "SERVER_HOST", "Network", "TwoHostNetwork",
    "HEADER_BYTES", "IP_HEADER_BYTES", "TCP_HEADER_BYTES", "Segment",
    "TcpConfig", "TcpConnection", "TcpListener", "TcpStack",
    "PacketRecord", "TraceCollector", "TraceSummary",
]
