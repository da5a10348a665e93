"""The scenario format has one definition: the package's JSON Schema.

The reader interprets scenario.schema.json itself. These tests pin
that: the interpreter knows exactly the keywords the schema uses and
agrees with a reference validator on them, the schema's defaults are
the values the reader fills in, a scenario survives the trip to a dict
and back whole, the schema ships as package data, and no mutation of a
scenario makes the reader fail with anything but ValidationError.
"""

import copy
import json
import math
import signal
from contextlib import contextmanager
from datetime import timedelta
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tierbroker import schema
from tierbroker.arbitrator import enforce_standard
from tierbroker.errors import ValidationError
from tierbroker.workload import load_scenario, scenario_from_dict, scenario_to_dict

from conftest import SCENARIO_DIR, make_service
from test_schema_parity import (
    ACCEPTED,
    BROKEN_RULES,
    DELETE,
    FULL,
    MISSING_REQUIRED,
    OBJECTS,
    OUT_OF_RANGE,
    SHIPPED,
    UNKNOWN_KEYS,
    VALIDATOR,
    WRONG_TYPES,
    field_path,
    mutated,
)

ANNOTATIONS = {"$schema", "title", "description", "default", "$defs"}
SHIPPED_DATA = [json.loads((SCENARIO_DIR / f"{name}.json").read_text()) for name in SHIPPED]


def _keywords(sub):
    """Every keyword in a schema and its subschemas."""
    found = set(sub)
    for keyword, arg in sub.items():
        if keyword in ("properties", "$defs"):
            children = list(arg.values())
        elif keyword in ("prefixItems", "anyOf", "allOf"):
            children = arg
        elif isinstance(arg, dict) and keyword in ("items", "additionalProperties", "if", "then"):
            children = [arg]
        else:
            children = []
        for child in children:
            found |= _keywords(child)
    return found


def test_interpreter_knows_exactly_the_schema_keywords():
    assert _keywords(schema.scenario_schema()) - ANNOTATIONS == schema.KEYWORDS


@pytest.mark.parametrize(
    "path, value", UNKNOWN_KEYS + MISSING_REQUIRED + WRONG_TYPES + OUT_OF_RANGE + BROKEN_RULES
)
def test_interpreter_rejects_what_the_reference_rejects(path, value):
    # The whole schema, registration standard included.
    data = mutated(path, value)
    assert not VALIDATOR.is_valid(data)
    assert list(schema.problems(data, schema.scenario_schema()))


@pytest.mark.parametrize("path, value", ACCEPTED)
def test_interpreter_accepts_what_the_reference_accepts(path, value):
    data = mutated(path, value)
    assert VALIDATOR.is_valid(data)
    assert list(schema.problems(data, schema.scenario_schema())) == []


@pytest.mark.parametrize("field, bad, good", [
    ("version", "1.0.0\n", "1.0.0"),
    ("version", "v1.0.0", "1.0.0"),
    ("description", "x" * 2049, "x" * 2048),
])
def test_standard_rules_read_the_whole_string(field, bad, good):
    assert not schema.conforms(bad, schema.standard()[field])
    assert schema.conforms(good, schema.standard()[field])


def test_tag_pattern_matches_the_whole_tag():
    rule = schema.standard()["capability_tags"]["items"]
    assert schema.conforms("compute", rule)
    assert not schema.conforms("compute\n", rule)
    violations = enforce_standard(make_service(tags=("compute\n",)))
    assert [v.field for v in violations] == ["capability_tags"]


DEFAULTS = [
    pytest.param(path + (key,), sub["default"], id=field_path(path + (key,)))
    for path, value, object_schema in OBJECTS
    for key, sub in object_schema["properties"].items()
    if "default" in sub and key in value
]


def test_defaults_cover_every_object_level():
    assert {field_path(p.values[0]) for p in DEFAULTS} >= {
        "scenario.seed", "scenario.rebate_frac", "scenario.weights", "scenario.thresholds",
        "scenario.thresholds.window", "scenario.energy.p_idle_w", "scenario.nodes[0].cpu_slots",
        "scenario.nodes[0].tariff.cpu_rate", "scenario.nodes[0].qos",
        "scenario.nodes[1].trust.basis", "scenario.nodes[1].trust_opinions[0].basis",
        "scenario.nodes[2].reputation.legal_registered", "scenario.services[0].sla_latency_ms",
    }


@pytest.mark.parametrize("path, default", DEFAULTS)
def test_schema_default_is_the_parsed_value(path, default):
    absent = scenario_from_dict(mutated(path, DELETE), base_dir=str(SCENARIO_DIR))
    stated = scenario_from_dict(mutated(path, default), base_dir=str(SCENARIO_DIR))
    assert absent == stated


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenario_round_trip_is_whole(name):
    scenario = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    data = scenario_to_dict(scenario)
    assert VALIDATOR.is_valid(data)
    assert scenario_from_dict(data, base_dir=str(SCENARIO_DIR)) == scenario


def test_full_scenario_round_trip_is_whole():
    scenario = scenario_from_dict(copy.deepcopy(FULL), base_dir=str(SCENARIO_DIR))
    data = scenario_to_dict(scenario)
    assert VALIDATOR.is_valid(data)
    assert scenario_from_dict(data, base_dir=str(SCENARIO_DIR)) == scenario


def test_schema_ships_as_package_data():
    resource = files("tierbroker").joinpath("scenario.schema.json")
    assert resource.is_file()
    assert json.loads(resource.read_text(encoding="utf-8")) == schema.scenario_schema()
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())
    package_data = pyproject["tool"]["setuptools"]["package-data"]["tierbroker"]
    assert "scenario.schema.json" in package_data
    assert pyproject["project"]["dependencies"] == []


# ----------------------------------------------------------------------
# mutated scenarios: a verdict, never a crash or a hang

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**64, -1, 0])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _paths(value, path=()):
    """The path of value and of everything inside it."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _put(document, path, value):
    """document with the value at path replaced, or removed for DELETE."""
    if not path:
        return None if value is DELETE else value
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


@contextmanager
def _time_limit(seconds):
    """Interrupt the body with TimeoutError after seconds, so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError(f"no verdict within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(
    max_examples=300,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_mutated_scenarios_fail_only_with_validation_error(data):
    document = copy.deepcopy(data.draw(st.sampled_from([FULL] + SHIPPED_DATA)))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        path = data.draw(st.sampled_from(list(_paths(document))))
        value = data.draw(st.just(DELETE) | JSON_VALUES) if path else data.draw(JSON_VALUES)
        document = _put(document, path, value)
        if not isinstance(document, (dict, list)):
            break
    with _time_limit(5.0):
        try:
            scenario = scenario_from_dict(document, base_dir=str(SCENARIO_DIR))
        except ValidationError as exc:
            assert exc.errors and all(e.startswith("scenario") for e in exc.errors)
            return
        for service in scenario.services:
            enforce_standard(service, scenario.vocabulary)
