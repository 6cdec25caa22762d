"""The shared name registry: every axis resolves the same way everywhere."""

import pytest

from repro.core import (HTTP10_MODE, HTTP11_PIPELINED, FIRST_TIME,
                        REVALIDATE)
from repro.core import modes
from repro.core.registry import (ENVIRONMENTS_BY_NAME, MODES, PROFILES,
                                 TABLE_CELLS, UnknownNameError,
                                 modes_for_environment, resolve_environment,
                                 resolve_mode, resolve_profile,
                                 resolve_scenario)
from repro.server import APACHE
from repro.simnet import ENVIRONMENTS, WAN


#: Every mode's spellings, by its ``repro.core.modes`` constant, in the
#: order the tables print the modes.
SPELLINGS = {
    "HTTP10_MODE": ("HTTP/1.0", "http/1.0", "1.0"),
    "HTTP11_PERSISTENT": ("HTTP/1.1", "http/1.1", "1.1", "persistent"),
    "HTTP11_PIPELINED": ("HTTP/1.1 Pipelined", "pipelined"),
    "HTTP11_PIPELINED_COMPRESSED": ("HTTP/1.1 Pipelined w. compression",
                                    "compressed"),
    "HTTP_MUX": ("HTTP/MUX", "mux"),
    "HTTP_MUX_PUSH": ("HTTP/MUX Push", "mux-push", "push"),
    "HTTP11_SHARDED": ("HTTP/1.1 Sharded x4", "sharded", "sharded-x4"),
}

#: Every mode name, in table order.
EVERY_MODE = [names[0] for names in SPELLINGS.values()]


def test_canonical_names_resolve():
    assert resolve_mode("HTTP/1.0") is HTTP10_MODE
    assert resolve_profile("Apache") is APACHE
    assert resolve_environment("WAN") is WAN
    assert resolve_scenario("first-time") == FIRST_TIME


def test_aliases_and_case_insensitivity():
    assert resolve_mode("pipelined").name == "HTTP/1.1 Pipelined"
    assert resolve_mode("1.0") is HTTP10_MODE
    assert resolve_mode("http/1.1 pipelined") is resolve_mode("pipelined")
    assert resolve_profile("apache") is APACHE
    assert resolve_environment("wan") is WAN
    assert resolve_scenario("reval") == REVALIDATE
    assert resolve_scenario("Revalidate") == REVALIDATE
    for constant, names in SPELLINGS.items():
        for name in names:
            for spelling in (name, name.upper(), name.lower()):
                assert resolve_mode(spelling) is getattr(modes, constant)


def test_objects_pass_through_unchanged():
    assert resolve_mode(HTTP11_PIPELINED) is HTTP11_PIPELINED
    assert resolve_profile(APACHE) is APACHE
    assert resolve_environment(WAN) is WAN


@pytest.mark.parametrize("resolver,kind,bogus", [
    (resolve_mode, "mode", "spdy"),
    (resolve_environment, "environment", "satellite"),
    (resolve_profile, "server", "nginx"),
    (resolve_scenario, "scenario", "third-time"),
])
def test_unknown_names_raise_with_choices(resolver, kind, bogus):
    with pytest.raises(UnknownNameError) as excinfo:
        resolver(bogus)
    message = str(excinfo.value)
    assert f"unknown {kind} {bogus!r}" in message
    assert "choose from:" in message


def test_unknown_name_error_is_a_value_error():
    with pytest.raises(ValueError):
        resolve_mode("gopher")


def test_table_cells_cover_tables_4_to_9():
    assert sorted(TABLE_CELLS) == [4, 5, 6, 7, 8, 9]
    assert TABLE_CELLS[4] == ("Jigsaw", "LAN")
    assert TABLE_CELLS[9] == ("Apache", "PPP")
    for server, environment in TABLE_CELLS.values():
        assert server in PROFILES
        assert resolve_environment(environment).name == environment


def test_registry_maps_are_canonical():
    for name, mode in MODES.items():
        assert mode.name == name
    for name, profile in PROFILES.items():
        assert profile.name == name
    assert set(ENVIRONMENTS) < set(ENVIRONMENTS_BY_NAME)
    for name in ENVIRONMENTS_BY_NAME:
        assert name == name.upper()
        assert resolve_environment(name.lower()).name == name


def test_modes_for_environment_serves_the_paper_rows():
    ppp = modes_for_environment("PPP", paper_only=True)
    assert HTTP10_MODE not in ppp
    assert [m.name for m in ppp] == ["HTTP/1.1", "HTTP/1.1 Pipelined",
                                     "HTTP/1.1 Pipelined w. compression"]
    lan = modes_for_environment("LAN", paper_only=True)
    assert lan[0] is HTTP10_MODE
    for environment in ("lan", "WAN"):
        assert [m.name for m in modes_for_environment(
            environment, paper_only=True)] == EVERY_MODE[:4]


def test_modes_for_environment_includes_the_modern_modes():
    names = [m.name for m in modes_for_environment("WAN")]
    for expected in ("HTTP/MUX", "HTTP/MUX Push", "HTTP/1.1 Sharded x4"):
        assert expected in names
    for environment in ("LAN", "WAN", "ppp"):
        assert [m.name for m in modes_for_environment(environment)] \
            == EVERY_MODE
    assert list(MODES) == EVERY_MODE


# ----------------------------------------------------------------------
# Did-you-mean suggestions
# ----------------------------------------------------------------------
def test_unknown_mode_suggests_closest_spelling():
    with pytest.raises(UnknownNameError) as excinfo:
        resolve_mode("pipelned")
    assert "did you mean 'pipelined'?" in str(excinfo.value)


def test_unknown_environment_suggests_closest_spelling():
    with pytest.raises(UnknownNameError) as excinfo:
        resolve_environment("WLAN")
    message = str(excinfo.value)
    assert "did you mean" in message and "choose from:" in message


def test_hopeless_typos_get_no_suggestion():
    with pytest.raises(UnknownNameError) as excinfo:
        resolve_mode("zzzzqqqq")
    assert "did you mean" not in str(excinfo.value)
