"""Declarative experiment specifications and grid expansion.

An :class:`ExperimentSpec` names one cell of the paper's experiment
grid — protocol mode, scenario, network environment, server — plus the
seeds to average over, any client-configuration overrides and any
fault plan: what changes a measurement, and nothing else.  All four
axes accept canonical string names resolved by
:mod:`repro.core.registry`; the spec stores the canonical strings, so
two specs that mean the same experiment compare (and hash) equal, which
is what the on-disk result cache keys off.  The cache identity is
*declared by the dataclass itself*: :func:`canonical_fields` emits
every field unless the field opts out, so a newly added field keys the
cache by default.

:class:`ExperimentMatrix` is the paper's grid — its table modes, both
scenarios and Table 1's three environments — crossed with a set of
servers: ``expand()`` yields one spec per (mode, scenario, environment,
server) combination, in table order.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, ClassVar, Dict, List, Tuple, Union

from ..client.robot import ClientConfig
from ..core.modes import ProtocolMode
from ..core.registry import (UnknownNameError, modes_for_environment,
                             resolve_environment, resolve_mode,
                             resolve_profile, resolve_scenario)
from ..core.runner import MAX_SIM_TIME, RunResult, run_experiment
from ..server.profiles import ServerProfile
from ..simnet.link import NetworkEnvironment

__all__ = ["DEFAULT_SEEDS", "ExperimentSpec", "ExperimentMatrix",
           "canonical_fields", "client_config_overrides", "registered_name"]

#: The paper averaged five seeded runs per cell.
DEFAULT_SEEDS: Tuple[int, ...] = (0, 1, 2, 3, 4)

#: The axes every :class:`ExperimentMatrix` crosses with its servers:
#: the four rows of the paper's LAN/WAN tables, both scenarios, and
#: Table 1's three environments.
MATRIX_MODES: Tuple[str, ...] = tuple(
    mode.name for mode in modes_for_environment("LAN", paper_only=True))
MATRIX_SCENARIOS: Tuple[str, ...] = ("first-time", "revalidate")
MATRIX_ENVIRONMENTS: Tuple[str, ...] = ("LAN", "WAN", "PPP")

_CLIENT_FIELDS = {field.name for field in
                  dataclasses.fields(ClientConfig)}

Modeish = Union[str, ProtocolMode]
Environmentish = Union[str, NetworkEnvironment]
Serverish = Union[str, ServerProfile]


def _jsonable(value: Any) -> Any:
    """Tuples become lists at any depth: the form JSON round-trips."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def canonical_fields(spec: Any) -> Dict[str, Any]:
    """The one identity rule of every spec dataclass.

    Every field, in declaration order, is part of the identity; a field
    leaves it only by saying so where it is declared —
    ``field(metadata={"cache_key": False})`` — so forgetting to key a
    new field is impossible and un-keying one is a visible decision.
    """
    return {field.name: _jsonable(getattr(spec, field.name))
            for field in dataclasses.fields(spec)
            if field.metadata.get("cache_key", True)}


def registered_name(value: Any, resolve: Callable[[Any], Any]) -> str:
    """The registry name of an axis ``value`` (a name or an object).

    A spec stores the name alone, so an object must be the registry's
    entry under its own name: a :func:`dataclasses.replace` copy would
    otherwise key, and run, as the entry it was copied from."""
    entry = resolve(value)
    if not isinstance(value, str) and resolve(entry.name) != entry:
        raise ValueError(f"{entry.name!r} is not the registry's entry of "
                         f"that name; register the variant under a name "
                         f"of its own (as WAN-LOSSY and Apache-iw4 are)")
    return entry.name


def _freeze(value: Any) -> Any:
    """Canonicalize an override value into a hashable form."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    raise TypeError(f"client override values must be scalars or "
                    f"sequences, got {type(value).__name__}")


def _canonical_overrides(overrides) -> Tuple[Tuple[str, Any], ...]:
    # ``dict`` reads a mapping and a sequence of pairs alike, and keeps
    # one value per field, so two pairs naming one field cannot fork a
    # unit key.
    canon = []
    for name, value in sorted(dict(overrides).items()):
        if name not in _CLIENT_FIELDS:
            raise UnknownNameError(
                f"unknown client config field {name!r} (choose from: "
                f"{', '.join(sorted(_CLIENT_FIELDS))})")
        canon.append((name, _freeze(value)))
    return tuple(canon)


def client_config_overrides(mode: Modeish,
                            config: ClientConfig
                            ) -> Tuple[Tuple[str, Any], ...]:
    """Express ``config`` as overrides of ``mode``'s default config.

    The returned pairs satisfy ``replace(mode_config, **overrides) ==
    config`` field for field, which is how a fully custom client (a
    browser profile, the pre-tuning robot) becomes a declarative,
    hashable spec.
    """
    base = dataclasses.asdict(resolve_mode(mode).client_config())
    wanted = dataclasses.asdict(config)
    return tuple(sorted((name, _freeze(value))
                        for name, value in wanted.items()
                        if _freeze(value) != _freeze(base[name])))


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One fully specified cell of the experiment grid.

    Axis fields accept registered objects or names and are stored
    canonicalized (``"pipelined"`` becomes ``"HTTP/1.1 Pipelined"``), so
    equal experiments are equal specs (:func:`registered_name`).
    Every field but ``seeds`` is the cell's identity; the link jitter,
    the simulated-time limit and the content check are the runner's
    own constants, the same for every cell.
    """

    #: The runner's simulated-time limit, which the matrix runner's
    #: wall-clock deadline scales from.
    max_sim_time: ClassVar[float] = MAX_SIM_TIME

    mode: str = "HTTP/1.1 Pipelined"
    scenario: str = "first-time"
    environment: str = "LAN"
    server: str = "Apache"
    #: Not part of the cell identity: seeds select work units, and the
    #: cache keys each (cell, seed) unit separately, so re-averaging
    #: over a different seed list reuses every unit already measured.
    seeds: Tuple[int, ...] = dataclasses.field(
        default=DEFAULT_SEEDS, metadata={"cache_key": False})
    client_overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Named :class:`~repro.faults.FaultPlan` injected into each run
    #: (None = the clean, golden-trace-identical configuration).
    faults: Any = None

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "mode", registered_name(self.mode, resolve_mode))
        set_(self, "scenario", resolve_scenario(self.scenario))
        set_(self, "environment",
             registered_name(self.environment, resolve_environment))
        set_(self, "server", registered_name(self.server, resolve_profile))
        seeds = self.seeds
        if isinstance(seeds, int):
            seeds = (seeds,)
        set_(self, "seeds", tuple(int(seed) for seed in seeds))
        if not self.seeds:
            raise ValueError("spec needs at least one seed")
        set_(self, "client_overrides",
             _canonical_overrides(self.client_overrides))
        if self.faults is not None:
            # Store the canonical plan *name*: specs stay hashable and
            # JSON-serializable, and the registry resolves it at run
            # time.  Unknown names fail here, at construction.
            from ..faults import resolve_fault_plan
            set_(self, "faults", resolve_fault_plan(self.faults).name)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolved_mode(self) -> ProtocolMode:
        return resolve_mode(self.mode)

    def client_config(self) -> ClientConfig:
        """The mode's configuration with this spec's overrides applied."""
        base = self.resolved_mode().client_config()
        return dataclasses.replace(base, **dict(self.client_overrides))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def runs(self) -> int:
        return len(self.seeds)

    @property
    def label(self) -> str:
        """Compact human label for progress output."""
        return (f"{self.mode} | {self.scenario} | {self.environment} "
                f"| {self.server}")

    def execute_unit(self, seed: int) -> RunResult:
        """Simulate this cell at ``seed`` (the matrix dispatch hook).

        ``run_experiment`` resolves the names through the registry and
        builds (or reuses its process-local memo of) the site, so a
        worker needs no state from the parent.  Every unit is
        protocol-checked (``sanitize=True``): a violation raises, and the
        engine quarantines the unit as an ``invariant`` failure; wrong
        content quarantines it as an ``exception`` one.  The
        result carries the measurement columns only (``fetch=None``) —
        the same shape the cache hydrates — so serial, parallel and
        cached paths are interchangeable.
        """
        result = run_experiment(
            self.mode, self.scenario,
            environment=self.environment, profile=self.server,
            seed=seed, client_config=self.client_config(),
            sanitize=True, faults=self.faults)
        return dataclasses.replace(result, fetch=None)

    def canonical_dict(self) -> Dict[str, Any]:
        """JSON-stable identity of the cell, *excluding* seeds."""
        return canonical_fields(self)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_client_config(cls, mode: Modeish, scenario: str,
                          environment: Environmentish, server: Serverish,
                          config: ClientConfig,
                          **kwargs) -> "ExperimentSpec":
        """Build a spec whose client is exactly ``config``.

        The config is stored as overrides of the mode's default, so the
        spec stays declarative and cache-keyable.
        """
        return cls(mode=mode, scenario=scenario, environment=environment,
                   server=server,
                   client_overrides=client_config_overrides(mode, config),
                   **kwargs)

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy with ``changes`` applied (axes re-canonicalized)."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class ExperimentMatrix:
    """The paper's grid on ``servers``, each cell run at ``seeds``.

    ``expand()`` emits specs in table order — server, then environment,
    then mode, then scenario — matching how the paper lays out
    Tables 4-9.
    """

    servers: Tuple[str, ...] = ("Jigsaw", "Apache")
    seeds: Tuple[int, ...] = DEFAULT_SEEDS

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        servers = ((self.servers,) if isinstance(self.servers, str)
                   else tuple(self.servers))
        resolved = tuple(registered_name(server, resolve_profile)
                         for server in servers)
        if not resolved:
            raise ValueError("a matrix needs at least one server")
        if len(set(resolved)) != len(resolved):
            raise ValueError(f"duplicate servers: {resolved}")
        set_(self, "servers", resolved)
        seeds = self.seeds
        if isinstance(seeds, int):
            seeds = (seeds,)
        set_(self, "seeds", tuple(int(seed) for seed in seeds))

    def __len__(self) -> int:
        return (len(MATRIX_MODES) * len(MATRIX_SCENARIOS)
                * len(MATRIX_ENVIRONMENTS) * len(self.servers))

    def expand(self) -> List[ExperimentSpec]:
        """All cells of the grid, in table order."""
        return [
            ExperimentSpec(mode=mode, scenario=scenario,
                           environment=environment, server=server,
                           seeds=self.seeds)
            for server, environment, mode, scenario in itertools.product(
                self.servers, MATRIX_ENVIRONMENTS, MATRIX_MODES,
                MATRIX_SCENARIOS)
        ]
