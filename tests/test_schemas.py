"""The JSON Schemas in docs/ accept every shipped config and CLI test fixture,
and reject the fields of the wrong type that the loader rejects."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from ifpsync import cli
from ifpsync.cli import load_network, main
from ifpsync.scenarios import scenario_from_dict
from test_cli import (
    BAD_SIM_SETTINGS,
    CERTIFY_PLATOON,
    CUBIC_TF,
    DIVERGING_TRIO,
    HARMONIC_TINY,
    INTEGRATOR_PAIR,
    PLATOON_TINY,
    REMARK1_DIVERGENT,
    REMARK1_TINY,
    TRAFFIC_RING,
    VECTOR_PAIR,
)

ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = {
    p.name.removesuffix(".schema.json"): json.loads(p.read_text(encoding="utf-8"))
    for p in sorted((ROOT / "docs").glob("*.schema.json"))
}
# cross-file refs such as network.schema.json#/properties/sim resolve
# against the $id of the schema that holds them
REGISTRY = Registry().with_resources(
    (s["$id"], Resource.from_contents(s)) for s in SCHEMAS.values()
)


def validator(name: str) -> Draft202012Validator:
    return Draft202012Validator(SCHEMAS[name], registry=REGISTRY)


def schema_for(doc: dict) -> str:
    return "scenario" if "scenario_type" in doc else "network"


def strict_json(text: str):
    """Parse JSON proper: Infinity and NaN are not JSON numbers (RFC 8259)."""

    def reject(literal):
        raise ValueError(f"{literal} is not a JSON number")

    return json.loads(text, parse_constant=reject)


def schema_accepts(name: str, doc) -> bool:
    """Whether `doc`, written as JSON text, is a valid instance of the schema."""
    try:
        instance = strict_json(json.dumps(doc))
    except ValueError:
        return False
    return validator(name).is_valid(instance)


def test_all_four_schemas_are_valid_draft_2020_12():
    assert sorted(SCHEMAS) == ["certify", "network", "scenario", "tf"]
    for schema in SCHEMAS.values():
        Draft202012Validator.check_schema(schema)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "scripts" / "configs").glob("*.json")), ids=lambda p: p.name
)
def test_shipped_config_validates(path):
    data = strict_json(path.read_text(encoding="utf-8"))
    for doc in data if isinstance(data, list) else [data]:
        validator(schema_for(doc)).validate(doc)


@pytest.mark.parametrize(
    "name, doc",
    [
        ("tf", CUBIC_TF),
        ("network", INTEGRATOR_PAIR),
        ("network", DIVERGING_TRIO),
        ("network", VECTOR_PAIR),
        ("scenario", HARMONIC_TINY),
        ("scenario", TRAFFIC_RING),
        ("scenario", REMARK1_DIVERGENT),
        ("certify", CERTIFY_PLATOON),
    ],
)
def test_cli_fixture_validates(name, doc):
    validator(name).validate(doc)


def with_field(doc, path: tuple, value):
    """A copy of doc with the field at path (keys and list indices) set to
    value; the empty path replaces the whole document."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# the command that loads each schema's documents
COMMANDS = {
    "tf": ["ifp"],
    "network": ["simulate", "--output-dir", "out"],
    "scenario": ["scenario", "--output-dir", "out"],
    "certify": ["certify", "--reference"],
}

# fields of the wrong JSON type: (name, schema, valid document, path, value);
# a quoted number, a boolean and a top-level list are not what the schema asks
BAD_FIELDS = [
    ("tf_num_strings", "tf", CUBIC_TF, ("num",), ["1"]),
    ("tf_top_level_list", "tf", CUBIC_TF, (), [CUBIC_TF]),
    ("network_adjacency_string", "network", INTEGRATOR_PAIR, ("adjacency", 0, 1), "1"),
    ("network_x0_strings", "network", INTEGRATOR_PAIR, ("agents", 0, "x0"), ["1"]),
    ("network_num_strings", "network", INTEGRATOR_PAIR, ("agents", 1, "num"), ["1"]),
    ("network_delay_string", "network", VECTOR_PAIR, ("agents", 0, "delay"), "0.01"),
    ("network_dim_string", "network", VECTOR_PAIR, ("agents", 1, "dim"), "2"),
    ("network_b_string_and_boolean", "network",
     {**INTEGRATOR_PAIR, "protocol": {"type": "reference", "b": [1.0, 0.0], "y_bar": 1.0}},
     ("protocol", "b"), ["1", False]),
    ("network_y_bar_string", "network",
     {**INTEGRATOR_PAIR, "protocol": {"type": "reference", "b": [1.0, 0.0], "y_bar": 1.0}},
     ("protocol", "y_bar"), "1"),
    ("network_top_level_list", "network", INTEGRATOR_PAIR, (), [INTEGRATOR_PAIR]),
    ("scenario_K_string", "scenario", TRAFFIC_RING, ("K",), "0.5"),
    ("scenario_n_string", "scenario", TRAFFIC_RING, ("n",), "3"),
    ("scenario_delays_strings", "scenario", TRAFFIC_RING, ("delays",), ["0.1", "0.1", "0.1"]),
    ("scenario_omega1_string", "scenario", HARMONIC_TINY, ("omega1",), "1.0"),
    ("scenario_k_boolean", "scenario", HARMONIC_TINY, ("k",), True),
    ("scenario_n_agents_string", "scenario", REMARK1_TINY, ("n_agents",), "3"),
    ("scenario_gains_mu_strings", "scenario", PLATOON_TINY, ("gains", "mu"), ["2", "2"]),
    ("scenario_v0_string", "scenario", PLATOON_TINY, ("v0",), "15"),
    ("certify_adjacency_string", "certify", CERTIFY_PLATOON, ("adjacency", 1, 0), "0.5"),
    ("certify_alpha_strings", "certify", CERTIFY_PLATOON, ("alpha",), ["0.1", "0.1", "0.1"]),
    ("certify_b_string_and_boolean", "certify", CERTIFY_PLATOON, ("b",), ["1", False, 0.0]),
    ("certify_gains_nu_strings", "certify", CERTIFY_PLATOON, ("gains", "nu"), ["0.5", "0.5"]),
    # a misspelt key in each object that lists its keys
    ("tf_misspelt_key", "tf", CUBIC_TF, ("nmu",), [1.0]),
    ("network_misspelt_key", "network", INTEGRATOR_PAIR, ("protcol",), {"type": "plain"}),
    ("network_protocol_misspelt_key", "network", INTEGRATOR_PAIR, ("protocol", "tpye"), "plain"),
    ("network_agent_misspelt_key", "network", INTEGRATOR_PAIR, ("agents", 0, "xo"), [1.0]),
    ("network_time_fn_misspelt_key", "network",
     {**INTEGRATOR_PAIR, "protocol": {"type": "reference", "b": [1.0, 0.0],
                                      "y_bar": {"kind": "ramp", "slope": 1.0}}},
     ("protocol", "y_bar", "slop"), 1.0),
]


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(
            [("network", INTEGRATOR_PAIR, ("sim", key), value),
             ("scenario", HARMONIC_TINY, ("sim", key), value)],
            id=f"{key}-{value}",
        )
        for key, value in BAD_SIM_SETTINGS
    ] + [pytest.param([c[1:]], id=c[0]) for c in BAD_FIELDS],
)
def test_schema_rejects_sim_settings_the_loader_rejects(tmp_path, capsys, monkeypatch, cases):
    # the schema rejects the document and the loader exits 1 with one line
    # that names the field, before it writes anything
    monkeypatch.chdir(tmp_path)
    for schema, doc, path, value in cases:
        bad = with_field(doc, path, value)
        assert schema_accepts(schema, doc)
        assert not schema_accepts(schema, bad)
        command, *flags = COMMANDS[schema]
        (tmp_path / "bad.json").write_text(json.dumps(bad), encoding="utf-8")
        code = main([command, "bad.json", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
        named = [key for key in path if isinstance(key, str)]
        assert not named or named[-1] in captured.err
        assert not (tmp_path / "out").exists()


def test_loader_key_sets_are_the_schema_properties():
    # the loader refuses exactly the keys that the schema does not list
    network = SCHEMAS["network"]
    time_fn = network["definitions"]["timeFn"]["oneOf"][1]
    for keys, schema in [
        (cli._NETWORK_KEYS, network),
        (cli._PROTOCOL_KEYS, network["properties"]["protocol"]),
        (cli._AGENT_KEYS, network["definitions"]["agent"]),
        (cli._TIME_FN_KEYS, time_fn),
        (cli._TF_KEYS, SCHEMAS["tf"]),
    ]:
        assert schema["additionalProperties"] is False
        assert sorted(keys) == sorted(schema["properties"])


def test_every_sim_property_reaches_the_run_config():
    # each property of the schema's sim block gets a value of its own type,
    # distinct from the others and from every default; a reader that drops
    # or renames one of them leaves the default in the SimConfig
    props = SCHEMAS["network"]["properties"]["sim"]["properties"]
    sim = {}
    for i, (key, prop) in enumerate(sorted(props.items())):
        sim[key] = 3 + i if prop["type"] == "integer" else 0.0625 * (i + 1)
    sim["t_final"] = 2.0  # above dt
    docs = [("network", INTEGRATOR_PAIR)] + [
        ("scenario", doc) for doc in (TRAFFIC_RING, PLATOON_TINY, REMARK1_TINY, HARMONIC_TINY)
    ]
    kinds = set()
    for schema, doc in docs:
        doc = {**doc, "sim": sim}
        assert schema_accepts(schema, doc)
        if schema == "network":
            config = load_network(doc)[2]
        else:
            kind, _, config = scenario_from_dict(doc)
            kinds.add(kind)
        assert {key: getattr(config, key) for key in sim} == sim
    assert kinds == {"traffic", "platoon", "remark1", "harmonic"}
