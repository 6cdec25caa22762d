"""The single name registry: canonical strings for experiment axes.

Every layer that names a protocol mode, scenario, network environment
or server profile — the CLI, the :mod:`repro.matrix` subsystem, the
claims ledger — resolves through these four functions, so "pipelined",
"WAN" and "Apache" mean the same objects everywhere.  Each resolver
accepts either the already-resolved object (returned unchanged) or a
name; names are matched case-insensitively, with the common shorthands
as aliases.

The modes are one table, :data:`repro.core.modes.MODE_TABLE`: a row
there is how a mode appears in :func:`resolve_mode`, the matrix engine,
the chaos planner, the sanitizer and the report tables.

Unknown names raise :class:`UnknownNameError` whose message lists the
accepted spellings (and the closest match, when one is close enough);
the CLI prints it verbatim.
"""

from __future__ import annotations

import difflib
from typing import Dict, Tuple, Union

from ..client.robot import FIRST_TIME, REVALIDATE
from ..server.profiles import (APACHE, APACHE_12B2, APACHE_IW1, APACHE_IW4,
                               JIGSAW, JIGSAW_INITIAL, NAGLE_STALL_NODELAY,
                               NAGLE_STALL_SERVER, NAIVE_CLOSE_SERVER,
                               ServerProfile)
from ..simnet.link import (ENVIRONMENTS, WAN_DROPTAIL, WAN_LOSSY,
                           NetworkEnvironment)
from .modes import MODE_TABLE, ProtocolMode

__all__ = [
    "UnknownNameError",
    "MODES", "MODE_ALIASES", "PROFILES", "ENVIRONMENTS_BY_NAME",
    "SCENARIOS_BY_NAME", "TABLE_CELLS",
    "modes_for_environment",
    "resolve_mode", "resolve_environment", "resolve_profile",
    "resolve_scenario",
]


class UnknownNameError(ValueError):
    """A name that no registry entry answers to."""


#: Canonical mode name (as the tables print it) → mode, in table order.
MODES: Dict[str, ProtocolMode] = {
    mode.name: mode for mode, _, _ in MODE_TABLE}

#: Shorthand → canonical mode name.
MODE_ALIASES: Dict[str, str] = {
    alias: mode.name for mode, aliases, _ in MODE_TABLE for alias in aliases}

#: Profile name → server profile (the two paper servers + ablations).
PROFILES: Dict[str, ServerProfile] = {
    profile.name: profile
    for profile in (JIGSAW, APACHE, JIGSAW_INITIAL, APACHE_12B2,
                    NAGLE_STALL_SERVER, NAIVE_CLOSE_SERVER,
                    NAGLE_STALL_NODELAY, APACHE_IW1, APACHE_IW4)
}

#: Name (upper case) → environment: Table 1's three + ablation variants.
ENVIRONMENTS_BY_NAME: Dict[str, NetworkEnvironment] = {
    **ENVIRONMENTS, **{env.name: env for env in (WAN_LOSSY, WAN_DROPTAIL)}}

#: Scenario spelling → canonical scenario constant.
SCENARIOS_BY_NAME: Dict[str, str] = {
    FIRST_TIME: FIRST_TIME,
    "first": FIRST_TIME,
    "firsttime": FIRST_TIME,
    REVALIDATE: REVALIDATE,
    "reval": REVALIDATE,
    "revalidation": REVALIDATE,
}

#: Paper table number → (server, environment) for Tables 4-9.
TABLE_CELLS: Dict[int, Tuple[str, str]] = {
    4: ("Jigsaw", "LAN"), 5: ("Apache", "LAN"),
    6: ("Jigsaw", "WAN"), 7: ("Apache", "WAN"),
    8: ("Jigsaw", "PPP"), 9: ("Apache", "PPP"),
}


def modes_for_environment(environment: Union[str, NetworkEnvironment], *,
                          paper_only: bool = False
                          ) -> Tuple[ProtocolMode, ...]:
    """Modes that run in ``environment`` — every one — in table order.

    With ``paper_only`` the answer is restricted to the rows of the
    paper's tables for that environment (Tables 8–9 omit HTTP/1.0 on
    PPP).
    """
    env = resolve_environment(environment).name
    return tuple(mode for mode, _, paper in MODE_TABLE
                 if not paper_only or env in paper)


def _unknown(kind: str, value: object, choices) -> UnknownNameError:
    names = sorted({str(choice) for choice in choices}, key=str.lower)
    listed = ", ".join(names)
    by_lower = {name.lower(): name for name in names}
    close = difflib.get_close_matches(str(value).lower(), list(by_lower),
                                      n=1, cutoff=0.6)
    if close:
        return UnknownNameError(
            f"unknown {kind} {value!r} (did you mean "
            f"{by_lower[close[0]]!r}? choose from: {listed})")
    return UnknownNameError(f"unknown {kind} {value!r} "
                            f"(choose from: {listed})")


def resolve_mode(value: Union[str, ProtocolMode]) -> ProtocolMode:
    """Resolve a protocol mode by object, canonical name, or alias."""
    if isinstance(value, ProtocolMode):
        return value
    if value in MODES:
        return MODES[value]
    key = str(value).lower()
    for name, mode in MODES.items():
        if name.lower() == key:
            return mode
    if key in MODE_ALIASES:
        return MODES[MODE_ALIASES[key]]
    raise _unknown("mode", value, list(MODES) + list(MODE_ALIASES))


def resolve_environment(value: Union[str, NetworkEnvironment]
                        ) -> NetworkEnvironment:
    """Resolve a network environment by object or (any-case) name."""
    if isinstance(value, NetworkEnvironment):
        return value
    environment = ENVIRONMENTS_BY_NAME.get(str(value).upper())
    if environment is None:
        raise _unknown("environment", value, ENVIRONMENTS_BY_NAME)
    return environment


def resolve_profile(value: Union[str, ServerProfile]) -> ServerProfile:
    """Resolve a server profile by object or (any-case) name."""
    if isinstance(value, ServerProfile):
        return value
    if value in PROFILES:
        return PROFILES[value]
    key = str(value).lower()
    for name, profile in PROFILES.items():
        if name.lower() == key:
            return profile
    raise _unknown("server", value, PROFILES)


def resolve_scenario(value: str) -> str:
    """Resolve a scenario spelling to ``FIRST_TIME`` / ``REVALIDATE``."""
    scenario = SCENARIOS_BY_NAME.get(str(value).lower())
    if scenario is None:
        raise _unknown("scenario", value, SCENARIOS_BY_NAME)
    return scenario

