"""Client-side output buffering with the paper's flush policies.

The paper's "Buffer Tuning" section describes three mechanisms that get
pipelined requests onto the wire:

1. **size flush** — the buffer is flushed when it reaches a threshold;
   "we experimented with the output buffer size and found that 1024
   bytes is a good compromise" (two 512-byte segments, or most of one
   Ethernet segment),
2. **timer flush** — a timeout forces the buffer out; the initial runs
   used 1 second, the final runs 50 ms,
3. **explicit flush** — "the application (the robot) has much more
   knowledge about the requests than libwww, and by introducing an
   explicit flush mechanism in the application, we could get
   significantly better performance."

:class:`OutputBuffer` implements all three and counts which trigger
fired, so the flush-policy ablation can show their relative value.
A batch the application will flush itself (:meth:`OutputBuffer.
begin_batch`) still size-flushes but arms no timer, which its flush
would only cancel.
"""

from __future__ import annotations

from typing import Optional

from ..simnet.engine import Simulator
from ..simnet.tcp import TcpConnection

__all__ = ["FlowWindow", "OutputBuffer"]


class FlowWindow:
    """Per-stream flow-control credit for the MUX transports.

    Symmetric bookkeeping shared by the MUX client and server: the
    receiver grants credit (``grant``), the sender spends it on DATA
    payload bytes (``spend``).  A receiver that sees its own credit go
    negative has caught the peer overrunning the window.
    """

    __slots__ = ("credit",)

    def __init__(self, initial: int) -> None:
        self.credit = initial

    def sendable(self, want: int) -> int:
        """Bytes of ``want`` the current credit allows."""
        return min(want, self.credit) if self.credit > 0 else 0

    def spend(self, amount: int) -> None:
        self.credit -= amount

    def grant(self, amount: int) -> None:
        self.credit += amount

    @property
    def overrun(self) -> bool:
        return self.credit < 0


class OutputBuffer:
    """Buffers writes to a TCP connection, flushing by size or timer.

    Parameters
    ----------
    sim, conn:
        Simulator (for the timer) and the connection written to.
    size:
        Flush once this many bytes accumulate (0 disables size flushes).
    flush_timeout:
        Flush this many seconds after the first unflushed write
        (None disables the timer — then only size/explicit flushes run,
        which is how implementations stall if they forget to flush).
    """

    def __init__(self, sim: Simulator, conn: TcpConnection, *,
                 size: int = 1024,
                 flush_timeout: Optional[float] = 0.05) -> None:
        self.sim = sim
        self.conn = conn
        self.size = size
        self.flush_timeout = flush_timeout
        self._buffer = bytearray()
        self._timer: Optional[list] = None
        #: Set by :meth:`begin_batch`, cleared by :meth:`flush`.
        self._batch = False
        #: Flush counters by trigger, for the flush-policy ablations.
        self.size_flushes = 0
        self.timer_flushes = 0
        self.explicit_flushes = 0
        self.bytes_written = 0

    def write(self, data: bytes, flush: bool = False) -> None:
        """Append ``data``; flush at the size limit, or now if ``flush``."""
        self._buffer.extend(data)
        self.bytes_written += len(data)
        if self.size and len(self._buffer) >= self.size:
            self.size_flushes += 1
            self._flush_now()
        elif flush:     # no timer armed only to be cancelled
            self.flush()
        elif self._buffer and self._timer is None and not self._batch \
                and self.flush_timeout is not None:
            self._timer = self.sim.schedule(self.flush_timeout,
                                            self._timer_fire)

    def begin_batch(self) -> None:
        """The application is writing a batch and will :meth:`flush` it
        before the simulated clock moves: arm no timer until then."""
        self._batch = True

    def flush(self) -> None:
        """Explicit flush: the application knows the batch is complete."""
        self._batch = False
        if self._buffer:
            self.explicit_flushes += 1
        self._flush_now()

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet written to TCP."""
        return len(self._buffer)

    def _timer_fire(self) -> None:
        self._timer = None
        if self._buffer:
            self.timer_flushes += 1
            self._flush_now()

    def _flush_now(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        if self._buffer and self.conn.state != "CLOSED":
            self.conn.send(bytes(self._buffer))
        self._buffer.clear()
