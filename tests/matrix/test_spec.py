"""ExperimentSpec / ExperimentMatrix: canonicalization and expansion."""

import dataclasses
import json
from typing import Tuple

import pytest

from repro.analysis.report import protocol_table_specs
from repro.client.robot import ClientConfig
from repro.core import (HTTP10_MODE, HTTP11_PIPELINED, TABLE_CELLS,
                        UnknownNameError)
from repro.core.browsers import BROWSERS
from repro.fleet import FleetSpec
from repro.matrix import (DEFAULT_SEEDS, ExperimentMatrix, ExperimentSpec,
                          client_config_overrides, unit_key)
from repro.server.profiles import APACHE, APACHE_IW4
from repro.simnet.link import WAN, WAN_LOSSY


# ----------------------------------------------------------------------
# Spec canonicalization
# ----------------------------------------------------------------------
def test_axes_canonicalize_to_registry_names():
    spec = ExperimentSpec(mode="pipelined", scenario="reval",
                          environment="wan", server="apache")
    assert spec.mode == "HTTP/1.1 Pipelined"
    assert spec.scenario == "revalidate"
    assert spec.environment == "WAN"
    assert spec.server == "Apache"


def test_equal_experiments_are_equal_specs():
    by_alias = ExperimentSpec(mode="1.1", scenario="first",
                              environment="lan", server="jigsaw")
    by_name = ExperimentSpec(mode="HTTP/1.1", scenario="first-time",
                             environment="LAN", server="Jigsaw")
    assert by_alias == by_name
    assert hash(by_alias) == hash(by_name)


def test_mode_object_accepted():
    spec = ExperimentSpec(mode=HTTP11_PIPELINED)
    assert spec.mode == HTTP11_PIPELINED.name
    assert spec.resolved_mode() is HTTP11_PIPELINED


def test_registered_objects_accepted_as_their_names():
    spec = ExperimentSpec(environment=WAN_LOSSY, server=APACHE_IW4)
    assert (spec.environment, spec.server) == ("WAN-LOSSY", "Apache-iw4")
    assert spec == ExperimentSpec(environment="wan-lossy",
                                  server="apache-iw4")


def test_unregistered_variants_are_rejected():
    """A spec stores names only, so a ``dataclasses.replace`` copy of a
    registry entry used to key — and run — as the entry itself."""
    lossy = dataclasses.replace(WAN, loss_rate=0.02)
    iw1 = dataclasses.replace(APACHE, initial_cwnd_segments=1)
    tuned = dataclasses.replace(HTTP11_PIPELINED, client_fields={})
    for axes in ({"environment": lossy}, {"server": iw1}, {"mode": tuned}):
        with pytest.raises(ValueError, match="register the variant"):
            ExperimentSpec(seeds=(0,), **axes)
    with pytest.raises(UnknownNameError, match="unknown environment"):
        ExperimentSpec(environment=dataclasses.replace(WAN, name="SAT"))
    with pytest.raises(ValueError, match="register the variant"):
        ExperimentMatrix(servers=(iw1,))
    with pytest.raises(ValueError, match="register the variant"):
        FleetSpec(environment=lossy)


def test_defaults():
    spec = ExperimentSpec()
    assert spec.seeds == DEFAULT_SEEDS
    assert spec.runs == len(DEFAULT_SEEDS)


def test_single_int_seed_becomes_tuple():
    assert ExperimentSpec(seeds=7).seeds == (7,)


def test_empty_seeds_rejected():
    with pytest.raises(ValueError):
        ExperimentSpec(seeds=())


def test_unknown_mode_raises():
    with pytest.raises(UnknownNameError, match="unknown mode"):
        ExperimentSpec(mode="spdy")


def test_label_names_all_axes():
    label = ExperimentSpec().label
    for part in ("HTTP/1.1 Pipelined", "first-time", "LAN", "Apache"):
        assert part in label


# ----------------------------------------------------------------------
# Client overrides
# ----------------------------------------------------------------------
def test_overrides_dict_becomes_sorted_tuple():
    spec = ExperimentSpec(client_overrides={"pipeline": False,
                                            "max_connections": 2})
    assert spec.client_overrides == (("max_connections", 2),
                                     ("pipeline", False))
    # Pairs read the same as a dict, and two pairs naming one field
    # keep one value: neither can fork the unit key.
    for pairs in ([("pipeline", False), ("max_connections", 2)],
                  [("max_connections", 4), ("pipeline", False),
                   ("max_connections", 2)]):
        other = ExperimentSpec(client_overrides=pairs)
        assert other.client_overrides == spec.client_overrides
        assert unit_key(other, 0) == unit_key(spec, 0)


def test_unknown_override_field_rejected():
    with pytest.raises(UnknownNameError, match="client config field"):
        ExperimentSpec(client_overrides={"warp_speed": True})


def test_client_config_applies_overrides():
    spec = ExperimentSpec(mode="pipelined",
                          client_overrides={"max_connections": 2})
    config = spec.client_config()
    assert config.max_connections == 2
    assert config.pipeline is True   # mode default preserved


def test_for_client_config_round_trips():
    for browser in BROWSERS:
        wanted = browser.client_config()
        spec = ExperimentSpec.for_client_config(
            HTTP10_MODE, "first-time", "PPP", "Jigsaw", wanted)
        assert spec.client_config() == wanted


def test_client_config_overrides_empty_for_mode_default():
    default = HTTP11_PIPELINED.client_config()
    assert client_config_overrides(HTTP11_PIPELINED, default) == ()
    assert client_config_overrides("pipelined", default) == ()


def test_canonical_dict_is_json_stable_and_seedless():
    a = ExperimentSpec(seeds=(0, 1))
    b = ExperimentSpec(seeds=(5,))
    assert a.canonical_dict() == b.canonical_dict()
    blob = json.dumps(a.canonical_dict(), sort_keys=True)
    assert json.loads(blob) == a.canonical_dict()
    assert "seeds" not in a.canonical_dict()


def test_cache_key_fields_cover_the_spec():
    """The dataclass is the single source of the cell identity."""
    fields = dataclasses.fields(ExperimentSpec)
    # Every spec field, in declaration order, is cache-keyed — except
    # the one that says otherwise: the unit-level seeds axis (each
    # (cell, seed) unit is keyed separately).
    assert [f.name for f in fields
            if not f.metadata.get("cache_key", True)] == ["seeds"]
    assert list(ExperimentSpec().canonical_dict()) == [
        f.name for f in fields if f.name != "seeds"]


def test_new_field_keys_the_cache_unless_it_opts_out():
    @dataclasses.dataclass(frozen=True)
    class WiderSpec(ExperimentSpec):
        tos: int = 0
        ecn: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
        note: str = dataclasses.field(default="",
                                      metadata={"cache_key": False})

    plain = WiderSpec().canonical_dict()
    assert list(plain)[-2:] == ["tos", "ecn"]
    assert {k: v for k, v in plain.items() if k not in ("tos", "ecn")} \
        == ExperimentSpec().canonical_dict()
    assert unit_key(WiderSpec(tos=1), 0) != unit_key(WiderSpec(), 0)
    assert unit_key(WiderSpec(note="x"), 0) == unit_key(WiderSpec(), 0)
    # Tuples become lists at any depth, by one rule for every field.
    nested = WiderSpec(ecn=(("ce", (1, 2)),)).canonical_dict()
    assert nested["ecn"] == [["ce", [1, 2]]]
    assert json.loads(json.dumps(nested)) == nested


def test_unit_key_digest_is_pinned():
    """Identity drift (a field renamed, retyped, dropped from or added
    to the key) must be a decision, not an accident: every cache and
    journal on disk is keyed by this digest of the identity — mode,
    scenario, environment, server, overrides and faults."""
    spec = ExperimentSpec(client_overrides={"max_connections": 2})
    assert unit_key(spec, 0, version="1.5.0") == (
        "5fb3c71d5fb072b353c3e9db28919506"
        "30c7ceed3b4d923d4f1dd30a390e9651")


def test_replace_recanonicalizes():
    spec = ExperimentSpec().replace(mode="1.0", environment="ppp")
    assert spec.mode == "HTTP/1.0"
    assert spec.environment == "PPP"


# ----------------------------------------------------------------------
# Fault-plan dimension
# ----------------------------------------------------------------------
def test_fault_plan_canonicalizes_to_its_name():
    from repro.faults import FAULT_PLANS
    by_name = ExperimentSpec(faults="bursty-loss")
    by_plan = ExperimentSpec(faults=FAULT_PLANS["bursty-loss"])
    assert by_name.faults == "bursty-loss"
    assert by_name == by_plan
    assert hash(by_name) == hash(by_plan)


def test_faults_appear_in_canonical_dict():
    clean = ExperimentSpec()
    chaotic = ExperimentSpec(faults="wire-chaos")
    assert clean.canonical_dict()["faults"] is None
    assert chaotic.canonical_dict()["faults"] == "wire-chaos"
    assert clean.canonical_dict() != chaotic.canonical_dict()


def test_unknown_fault_plan_rejected():
    with pytest.raises(ValueError, match="unknown fault plan"):
        ExperimentSpec(faults="packet-gremlins")


# ----------------------------------------------------------------------
# Matrix expansion
# ----------------------------------------------------------------------
def test_full_matrix_size():
    matrix = ExperimentMatrix()
    assert len(matrix) == 4 * 2 * 3 * 2
    specs = matrix.expand()
    assert len(specs) == len(matrix)
    assert len(set(specs)) == len(specs)


def test_expand_order_is_server_env_mode_scenario():
    specs = ExperimentMatrix(servers=("Jigsaw", "Apache")).expand()
    assert [s.server for s in specs[:24]] == ["Jigsaw"] * 24
    assert [s.environment for s in specs[:8]] == ["LAN"] * 8
    assert [s.environment for s in specs[8:24:8]] == ["WAN", "PPP"]
    assert specs[0].mode == "HTTP/1.0"
    assert specs[0].scenario == "first-time"
    assert specs[1].scenario == "revalidate"
    assert specs[2].mode == "HTTP/1.1"
    assert {s.mode for s in specs} == {
        "HTTP/1.0", "HTTP/1.1", "HTTP/1.1 Pipelined",
        "HTTP/1.1 Pipelined w. compression"}


def test_matrix_axes_canonicalize_and_reject_duplicates():
    matrix = ExperimentMatrix(servers="apache", seeds=3)
    assert matrix.servers == ("Apache",)
    assert matrix.seeds == (3,)
    assert len(matrix) == 4 * 2 * 3
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentMatrix(servers=("apache", "Apache"))
    with pytest.raises(ValueError, match="at least one server"):
        ExperimentMatrix(servers=())


def test_for_table_ppp_omits_http10():
    """The specs for Table 8: the PPP tables omit HTTP/1.0."""
    specs = protocol_table_specs(*TABLE_CELLS[8], runs=1)
    assert {(spec.server, spec.environment, spec.seeds)
            for spec in specs.values()} == {("Jigsaw", "PPP", (0,))}
    assert "HTTP/1.0" not in {mode for mode, _scenario in specs}
    assert len(specs) == 6


def test_for_table_lan_has_eight_cells():
    """The specs for Table 5: four modes, two scenarios."""
    specs = protocol_table_specs(*TABLE_CELLS[5])
    assert {spec.server for spec in specs.values()} == {"Apache"}
    assert len(specs) == 8
    assert "HTTP/1.0" in {mode for mode, _scenario in specs}


def test_specs_usable_as_dict_keys():
    seen = {spec: spec.label for spec in ExperimentMatrix().expand()}
    assert len(seen) == 48
