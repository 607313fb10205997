"""The JSON Schemas in docs/ accept every shipped config and CLI test fixture
and reject the simulation settings the loader rejects."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from ifpsync.cli import load_network
from ifpsync.scenarios import scenario_from_dict
from test_cli import (
    BAD_SIM_SETTINGS,
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
    ],
)
def test_cli_fixture_validates(name, doc):
    validator(name).validate(doc)


@pytest.mark.parametrize("key, value", BAD_SIM_SETTINGS)
def test_schema_rejects_sim_settings_the_loader_rejects(key, value):
    for name, doc in [("network", INTEGRATOR_PAIR), ("scenario", HARMONIC_TINY)]:
        assert schema_accepts(name, doc)
        assert not schema_accepts(name, {**doc, "sim": {**doc["sim"], key: value}})


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
