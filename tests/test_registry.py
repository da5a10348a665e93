"""Registry lifecycle, discovery, matching, composition, envelope."""

import pytest

from tierbroker.errors import (
    DuplicateService,
    IncompatibleReplacement,
    NotFoundError,
    StandardViolation,
    StateError,
    UncoverableGoal,
)
from tierbroker.model import Tier
from tierbroker.registry import (
    FunctionalSpec,
    Registry,
    ServiceState,
    jaccard,
)

from conftest import T0_NOON, make_service


@pytest.fixture
def registry(t0):
    return Registry(t0)


def reg(registry, t0, **kwargs):
    return registry.register_service(make_service(**kwargs), t0, T0_NOON)


def test_jaccard_values():
    assert jaccard({"a", "b"}, {"a", "b"}) == 1.0
    assert jaccard({"a", "b"}, {"a"}) == 0.5
    assert jaccard({"a", "b"}, {"a", "b", "c"}) == pytest.approx(2 / 3)
    assert jaccard({"a"}, {"b"}) == 0.0
    assert jaccard(set(), set()) == 0.0


def test_register_places_and_activates(registry, t0):
    record = reg(registry, t0)
    assert record.state is ServiceState.ACTIVE
    assert record.placement.tier is Tier.DEALER
    assert record.registered_at == T0_NOON


def test_register_rejects_standard_violations(registry, t0):
    with pytest.raises(StandardViolation):
        reg(registry, t0, tags=())
    with pytest.raises(StandardViolation):
        reg(registry, t0, version="1.0")


def test_register_rejects_duplicates(registry, t0):
    reg(registry, t0, service_id="svc-1", name="alpha", version="1.0.0")
    with pytest.raises(DuplicateService):
        reg(registry, t0, service_id="svc-1", name="other", version="2.0.0")
    with pytest.raises(DuplicateService):
        reg(registry, t0, service_id="svc-2", name="alpha", version="1.0.0")


def test_replace_forwards_and_retires(registry, t0):
    old = reg(registry, t0, service_id="svc-old", name="alpha", version="1.0.0",
              tags=("a", "b"))
    new = reg(registry, t0, service_id="svc-new", name="beta", version="1.0.0",
              tags=("a", "b", "c"))
    result = registry.replace_service("svc-old", "svc-new")
    assert result is new
    assert old.state is ServiceState.REPLACED
    assert old.replaced_by == "svc-new"
    # The old name now resolves to the successor.
    assert registry.discover_service("alpha").descriptor.id == "svc-new"


def test_replace_requires_tag_coverage(registry, t0):
    reg(registry, t0, service_id="svc-old", name="alpha", version="1.0.0",
        tags=("a", "b"))
    reg(registry, t0, service_id="svc-new", name="beta", version="1.0.0", tags=("a",))
    with pytest.raises(IncompatibleReplacement):
        registry.replace_service("svc-old", "svc-new")


def test_replace_needs_two_active_records(registry, t0):
    reg(registry, t0, service_id="svc-a", name="alpha", version="1.0.0", tags=("a",))
    reg(registry, t0, service_id="svc-b", name="beta", version="1.0.0", tags=("a",))
    reg(registry, t0, service_id="svc-c", name="gamma", version="1.0.0", tags=("a",))
    registry.replace_service("svc-a", "svc-b")
    # Terminal states never replace again.
    with pytest.raises(NotFoundError):
        registry.replace_service("svc-a", "svc-c")
    with pytest.raises(NotFoundError):
        registry.replace_service("svc-b", "missing")


def test_deregister_is_terminal(registry, t0):
    reg(registry, t0, service_id="svc-1")
    registry.deregister_service("svc-1")
    assert registry.get("svc-1").state is ServiceState.DEREGISTERED
    with pytest.raises(StateError):
        registry.deregister_service("svc-1")
    with pytest.raises(NotFoundError):
        registry.discover_service("unit-probe")


def test_discover_picks_highest_version(registry, t0):
    reg(registry, t0, service_id="svc-1", name="alpha", version="1.0.0")
    reg(registry, t0, service_id="svc-2", name="alpha", version="1.10.0")
    reg(registry, t0, service_id="svc-3", name="alpha", version="1.9.0")
    assert registry.discover_service("alpha").descriptor.id == "svc-2"
    assert registry.discover_service("alpha", "1.9.0").descriptor.id == "svc-3"
    with pytest.raises(NotFoundError):
        registry.discover_service("alpha", "3.0.0")


def test_discover_follows_replacement_chain(registry, t0):
    reg(registry, t0, service_id="svc-1", name="alpha", version="1.0.0", tags=("a",))
    reg(registry, t0, service_id="svc-2", name="beta", version="1.0.0", tags=("a",))
    reg(registry, t0, service_id="svc-3", name="gamma", version="1.0.0", tags=("a",))
    registry.replace_service("svc-1", "svc-2")
    registry.replace_service("svc-2", "svc-3")
    assert registry.discover_service("alpha").descriptor.id == "svc-3"
    assert registry.discover_service("beta").descriptor.id == "svc-3"
    # A retired endpoint ends the trail.
    registry.deregister_service("svc-3")
    with pytest.raises(NotFoundError):
        registry.discover_service("alpha")


def test_match_ranks_by_overlap(registry, t0):
    reg(registry, t0, service_id="svc-ab", name="ab", version="1.0.0", tags=("a", "b"))
    reg(registry, t0, service_id="svc-a", name="a", version="1.0.0", tags=("a",))
    reg(registry, t0, service_id="svc-c", name="c", version="1.0.0", tags=("c",))
    hits = registry.match_services(FunctionalSpec(required_tags={"a", "b"}))
    assert [r.descriptor.id for r in hits] == ["svc-ab", "svc-a"]


def test_match_filters_by_keywords(registry, t0):
    svc = make_service(service_id="svc-1", name="alpha", tags=("a",))
    svc.description = "Fast echo responder"
    registry.register_service(svc, t0, T0_NOON)
    other = make_service(service_id="svc-2", name="beta", version="1.0.0", tags=("a",))
    other.description = "slow batch worker"
    registry.register_service(other, t0, T0_NOON)
    spec = FunctionalSpec(required_tags={"a"}, keywords=["fast"])
    assert [r.descriptor.id for r in registry.match_services(spec)] == ["svc-1"]


def test_compose_greedy_cover(registry, t0):
    reg(registry, t0, service_id="svc-ab", name="ab", version="1.0.0", tags=("a", "b"))
    reg(registry, t0, service_id="svc-c", name="c", version="1.0.0", tags=("c",))
    reg(registry, t0, service_id="svc-a", name="a", version="1.0.0", tags=("a",))
    plan = registry.compose_services(FunctionalSpec(required_tags={"a", "b", "c"}))
    assert plan.service_ids == ["svc-ab", "svc-c"]
    assert plan.covered_tags == {"a", "b", "c"}
    assert plan.residual_tags == set()


def test_compose_reports_residual(registry, t0):
    reg(registry, t0, service_id="svc-ab", name="ab", version="1.0.0", tags=("a", "b"))
    reg(registry, t0, service_id="svc-a", name="a", version="1.0.0", tags=("a",))
    with pytest.raises(UncoverableGoal) as exc_info:
        registry.compose_services(FunctionalSpec(required_tags={"a", "z"}))
    assert exc_info.value.residual_tags == ["z"]


def test_replace_with_best_match(registry, t0):
    reg(registry, t0, service_id="svc-old", name="old", version="1.0.0", tags=("a", "b"))
    reg(registry, t0, service_id="svc-part", name="part", version="1.0.0", tags=("a",))
    reg(registry, t0, service_id="svc-full", name="full", version="1.0.0",
        tags=("a", "b", "c"))
    chosen = registry.replace_with_best_match("svc-old")
    assert chosen.descriptor.id == "svc-full"
    assert registry.get("svc-old").state is ServiceState.REPLACED


def test_replace_with_best_match_needs_cover(registry, t0):
    reg(registry, t0, service_id="svc-old", name="old", version="1.0.0", tags=("a", "b"))
    reg(registry, t0, service_id="svc-part", name="part", version="1.0.0", tags=("a",))
    with pytest.raises(NotFoundError):
        registry.replace_with_best_match("svc-old")


def envelope_register_body(service_id="svc-env", name="envelope-probe"):
    return {
        "id": service_id,
        "name": name,
        "version": "1.0.0",
        "capability_tags": ["compute"],
        "cpu_demand": 100.0,
        "mem_demand": 64.0,
        "storage_demand": 1.0,
        "payload_in": 0.1,
        "payload_out": 0.1,
    }


def test_envelope_register_and_discover(registry):
    reply = registry.handle_request(
        {"op": "register", "body": envelope_register_body()}, t_ms=T0_NOON
    )
    assert reply["ok"] is True
    assert reply["result"]["state"] == "Active"
    assert reply["result"]["placement"]["tier"] == "Dealer"
    found = registry.handle_request({"op": "discover", "body": {"name": "envelope-probe"}})
    assert found["ok"] is True
    assert found["result"]["id"] == "svc-env"


def test_envelope_match_and_compose(registry, t0):
    reg(registry, t0, service_id="svc-ab", name="ab", version="1.0.0", tags=("a", "b"))
    reg(registry, t0, service_id="svc-c", name="c", version="1.0.0", tags=("c",))
    matched = registry.handle_request({"op": "match", "body": {"tags": ["a"]}})
    assert matched["ok"] is True
    assert [r["id"] for r in matched["result"]] == ["svc-ab"]
    composed = registry.handle_request({"op": "compose", "body": {"tags": ["a", "b", "c"]}})
    assert composed["ok"] is True
    assert composed["result"]["service_ids"] == ["svc-ab", "svc-c"]
    assert composed["result"]["residual_tags"] == []


def test_envelope_errors_never_raise(registry):
    bad_op = registry.handle_request({"op": "deregister", "body": {}})
    assert bad_op["ok"] is False
    assert bad_op["error"]["type"] == "ValidationError"
    missing = registry.handle_request({"op": "discover", "body": {"name": "ghost"}})
    assert missing["ok"] is False
    assert missing["error"]["type"] == "NotFoundError"
    extra = registry.handle_request({"op": "match", "body": {}, "extra": 1})
    assert extra["ok"] is False
    assert extra["error"]["type"] == "ValidationError"
    invalid = registry.handle_request(
        {"op": "register", "body": {"id": "x", "name": "x"}}, t_ms=T0_NOON
    )
    assert invalid["ok"] is False
    assert invalid["error"]["type"] == "ValidationError"
    vector = {"input_b64": "aGVsbG8=", "expected_digest": "0" * 64}
    removed = registry.handle_request(
        {"op": "register", "body": {**envelope_register_body(), "test_vector": vector}},
        t_ms=T0_NOON,
    )
    assert removed["ok"] is False
    assert removed["error"]["type"] == "ValidationError"
    assert "test_vector: unknown field" in removed["error"]["message"]


def test_envelope_duplicate_register(registry):
    body = envelope_register_body()
    assert registry.handle_request({"op": "register", "body": body}, t_ms=T0_NOON)["ok"]
    again = registry.handle_request({"op": "register", "body": body}, t_ms=T0_NOON)
    assert again["ok"] is False
    assert again["error"]["type"] == "DuplicateService"


@pytest.mark.parametrize(
    "op, body, field",
    [
        ("match", {"tags": 5}, "body.tags"),
        ("match", {"tags": "compute"}, "body.tags"),
        ("match", {"tags": ["compute", 1]}, "body.tags[1]"),
        ("match", {"tags": ["compute"], "keywords": 5}, "body.keywords"),
        ("match", {"tags": ["compute"], "keywords": "probe"}, "body.keywords"),
        ("match", {"tags": ["compute"], "keywords": [None]}, "body.keywords[0]"),
        ("compose", {"tags": None}, "body.tags"),
        ("compose", {"tags": {"compute": 1}}, "body.tags"),
        ("discover", {"name": 5}, "body.name"),
        ("discover", {"name": None}, "body.name"),
        ("discover", {"name": "unit-probe", "version": 1}, "body.version"),
    ],
)
def test_envelope_rejects_malformed_queries(registry, t0, op, body, field):
    # With a record in place, match reads the keywords of every query.
    reg(registry, t0)
    reply = registry.handle_request({"op": op, "body": body})
    assert reply["ok"] is False
    assert reply["error"]["type"] == "ValidationError"
    assert reply["error"]["message"].startswith(f"{field}: ")


def test_envelope_queries_take_defaults(registry, t0):
    reg(registry, t0)
    assert registry.handle_request({"op": "match", "body": {}}) == {"ok": True, "result": []}
    composed = registry.handle_request({"op": "compose", "body": {}})
    assert composed["result"]["service_ids"] == []
    missing = registry.handle_request({"op": "discover", "body": {}})
    assert missing["error"]["type"] == "NotFoundError"
