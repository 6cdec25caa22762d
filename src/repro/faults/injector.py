"""Deterministic link-level fault injection.

A :class:`FaultInjector` installs itself as ``link.fault_injector`` and
takes over delivery scheduling for every segment that survives the
link's own serialization / loss / drop-tail model.  It can then

* **drop** segments with Gilbert–Elliott bursty loss (a two-state
  Markov chain: a *good* state with light independent loss and a *bad*
  state with heavy loss, matching the clustered losses of congested
  1997 WAN paths far better than the link's independent ``loss_rate``);
* **corrupt** payload bytes — the corrupted copy carries a CRC32 of the
  *original* payload, so the receiving TCP discards it as a checksum
  failure and the sender's RTO / fast-retransmit machinery repairs it;
* **duplicate** segments (delivered twice, slightly apart), and
* **reorder** segments by a bounded extra delay.

Everything draws from one private ``random.Random(seed)``, independent
of the link's jitter RNG, so a fault schedule is reproducible from its
seed alone and adding fault injection never perturbs a clean run's
random stream.

Each hit is counted once, as ``link.<kind>`` in the injector's
:class:`~repro.faults.recovery.RecoveryLog`; a drop is also one of the
link's ``dropped_loss``.

The injector runs once per delivered segment, so it lives on the
simulator's hot path and uses ``__slots__``; the config is a frozen
dataclass (exempt from the hot-path slots rule, like ``TcpConfig``).
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from .recovery import RecoveryLog

__all__ = ["LinkFaultConfig", "FaultInjector"]


@dataclasses.dataclass(frozen=True)
class LinkFaultConfig:
    """Probabilities of the composable link faults (all default off).

    The Gilbert–Elliott chain transitions per *segment*: with
    ``p_good_to_bad`` the link enters a burst, with ``p_bad_to_good`` it
    leaves one; ``loss_good`` / ``loss_bad`` are the per-segment drop
    probabilities inside each state.  Defaults give a degenerate chain
    that never leaves the good state.
    """

    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    loss_good: float = 0.0
    loss_bad: float = 0.0
    #: Per-segment probability of a bounded reordering delay, drawn
    #: uniform in (0, reorder_max_delay].
    reorder_rate: float = 0.0
    reorder_max_delay: float = 0.02
    #: Per-segment probability the segment arrives twice.
    duplicate_rate: float = 0.0
    #: Per-segment probability of payload corruption (data segments
    #: only; pure control segments cannot fail a payload checksum).
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "reorder_max_delay":
                if value <= 0.0:
                    raise ValueError("reorder_max_delay must be positive")
            elif not 0.0 <= value <= 1.0:
                raise ValueError(f"{field.name} must be in [0, 1]")

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire."""
        return bool(self.p_good_to_bad or self.loss_good
                    or self.reorder_rate or self.duplicate_rate
                    or self.corrupt_rate)


class FaultInjector:
    """Owns delivery of every segment crossing one :class:`Link`."""

    __slots__ = ("link", "config", "rng", "recovery", "_bad")

    def __init__(self, link, config: LinkFaultConfig, seed: int,
                 recovery: RecoveryLog) -> None:
        self.link = link
        self.config = config
        self.rng = random.Random(seed)
        self.recovery = recovery
        self._bad = False        # Gilbert–Elliott state
        link.fault_injector = self

    # ------------------------------------------------------------------
    def handle(self, segment, deliver_at: float, receiver) -> None:
        """Decide the fate of ``segment`` due at ``deliver_at``; each
        copy that arrives goes to ``receiver``, stamped ``delivered_at``."""
        link = self.link
        config = self.config
        rng = self.rng
        # Gilbert–Elliott state transition, then the state's loss draw.
        if self._bad:
            if rng.random() < config.p_bad_to_good:
                self._bad = False
        elif config.p_good_to_bad and rng.random() < config.p_good_to_bad:
            self._bad = True
        loss = config.loss_bad if self._bad else config.loss_good
        if loss and rng.random() < loss:
            link.dropped_loss += 1
            self._note("loss", f"{segment!r} in "
                       f"{'bad' if self._bad else 'good'} state")
            return
        if (config.corrupt_rate and segment.payload_len
                and rng.random() < config.corrupt_rate):
            # Flip one payload byte; stamp the checksum of the ORIGINAL
            # payload so the receiver's verification fails and drops it.
            index = rng.randrange(segment.payload_len)
            mutated = bytearray(segment.payload)
            mutated[index] ^= 0xFF
            original_crc = zlib.crc32(segment.payload)
            segment = segment.replace(payload=bytes(mutated),
                                      checksum=original_crc)
            self._note("corrupt", f"byte {index} of {segment!r}")
        if config.duplicate_rate and rng.random() < config.duplicate_rate:
            self._note("duplicate", repr(segment))
            copy = segment.replace(delivered_at=deliver_at + 1e-4)
            link.sim.schedule_at(copy.delivered_at, receiver, copy)
        if config.reorder_rate and rng.random() < config.reorder_rate:
            delay = rng.uniform(0.0, config.reorder_max_delay)
            deliver_at += delay
            self._note("reorder", f"+{delay * 1000.0:.1f}ms {segment!r}")
        segment.delivered_at = deliver_at
        link.sim.schedule_at(deliver_at, receiver, segment)

    def _note(self, kind: str, detail: str) -> None:
        self.recovery.note(self.link.sim.now, "link", kind, detail)
