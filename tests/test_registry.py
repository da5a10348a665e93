"""Registry lifecycle, discovery, matching, composition and replacement."""

import pytest

from tierbroker.errors import (
    DuplicateService,
    IncompatibleReplacement,
    NotFoundError,
    StandardViolation,
    StateError,
    UncoverableGoal,
)
from tierbroker.model import PlacementDecision, PlacementReason, Tier
from tierbroker.registry import (
    FunctionalSpec,
    Registry,
    ServiceState,
    jaccard,
)
from tierbroker.workload import scenario_from_dict

from conftest import T0_NOON, make_service


@pytest.fixture
def registry():
    return Registry()


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
    goal = FunctionalSpec(required_tags={"a", "b", "c"})
    assert registry.compose_services(goal) == ["svc-ab", "svc-c"]


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


def test_registry_takes_no_topology(t0):
    # The topology is register_service's argument; the constructor's
    # parameters are keyword-only so an old positional topology fails.
    with pytest.raises(TypeError):
        Registry(t0)


def test_scenario_service_registers_and_is_discovered(registry, t0):
    # A service read from scenario JSON registers Active on the dealer
    # and answers to its name.
    scenario = scenario_from_dict({
        "horizon_ms": 1000,
        "nodes": [{"id": "D1", "tier": "Dealer", "cpu_speed": 1000, "cpu_slots": 1,
                   "mem_capacity": 1024, "storage_capacity": 1024, "rtt_ms": 10,
                   "bandwidth_mbps": 10, "open_hours": [540, 1020],
                   "trust": {"level": "High"}}],
        "services": [{"id": "svc-json", "name": "json-probe", "version": "1.0.0",
                      "capability_tags": ["compute"], "cpu_demand": 100.0,
                      "mem_demand": 64.0, "storage_demand": 1.0}],
        "consumers": [{"id": "u1", "rates": {"svc-json": 1.0}}],
    })
    record = registry.register_service(scenario.services[0], t0, T0_NOON)
    assert record.state is ServiceState.ACTIVE
    assert record.placement.tier is Tier.DEALER
    assert registry.discover_service("json-probe") is record


def test_empty_queries_find_nothing(registry, t0):
    reg(registry, t0)
    assert registry.match_services(FunctionalSpec(required_tags=set())) == []
    assert registry.compose_services(FunctionalSpec(required_tags=set())) == []
    with pytest.raises(NotFoundError):
        registry.discover_service("")


def test_retired_records_are_neither_matched_nor_composed(registry, t0):
    reg(registry, t0, service_id="svc-ab", name="ab", version="1.0.0", tags=("a", "b"))
    reg(registry, t0, service_id="svc-abc", name="abc", version="1.0.0",
        tags=("a", "b", "c"))
    reg(registry, t0, service_id="svc-a", name="a", version="1.0.0", tags=("a",))
    reg(registry, t0, service_id="svc-b", name="b", version="1.0.0", tags=("b",))
    registry.deregister_service("svc-abc")
    registry.replace_service("svc-a", "svc-ab")
    spec = FunctionalSpec(required_tags={"a", "b"})
    assert [r.descriptor.id for r in registry.match_services(spec)] == ["svc-ab", "svc-b"]
    assert registry.compose_services(spec) == ["svc-ab"]
    with pytest.raises(UncoverableGoal) as exc_info:
        registry.compose_services(FunctionalSpec(required_tags={"a", "c"}))
    assert exc_info.value.residual_tags == ["c"]


def test_register_pins_a_given_placement(registry, t0):
    # A pre-made placement is kept as it is; the arbitration flow would
    # have put this service on the dealer.
    pinned = PlacementDecision(service_id="svc-1", node_id="C1", tier=Tier.CLOUD,
                               reason=PlacementReason.CAPACITY_FALLBACK, objective_ms=0.0,
                               decided_at=T0_NOON)
    record = registry.register_service(make_service(), t0, T0_NOON, placement=pinned)
    assert record.placement is pinned


def test_register_checks_the_vocabulary(t0):
    registry = Registry(vocabulary={"compute"})
    reg(registry, t0, service_id="svc-1", tags=("compute",))
    with pytest.raises(StandardViolation):
        reg(registry, t0, service_id="svc-2", name="other", tags=("teleport",))


def test_deregistering_frees_the_name_and_version_but_not_the_id(registry, t0):
    reg(registry, t0, service_id="svc-1", name="alpha", version="1.0.0")
    registry.deregister_service("svc-1")
    again = reg(registry, t0, service_id="svc-2", name="alpha", version="1.0.0")
    assert registry.discover_service("alpha") is again
    with pytest.raises(DuplicateService):
        reg(registry, t0, service_id="svc-1", name="beta", version="1.0.0")


def states(registry):
    """State, forwarding link and placement of each record the failure
    cases set up or try to add, by id."""
    ids = ("svc-a", "svc-b", "svc-gone", "svc-new")
    found = {}
    for service_id in ids:
        try:
            rec = registry.get(service_id)
        except NotFoundError:
            continue
        found[service_id] = (rec.state, rec.replaced_by, rec.placement)
    return found


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda r, t: r.get("ghost"), NotFoundError, id="get-unknown"),
        pytest.param(lambda r, t: r.resolve("ghost"), NotFoundError, id="resolve-unknown"),
        pytest.param(lambda r, t: r.deregister_service("ghost"), NotFoundError,
                     id="deregister-unknown"),
        pytest.param(lambda r, t: r.deregister_service("svc-gone"), StateError,
                     id="deregister-retired"),
        pytest.param(lambda r, t: r.replace_service("svc-gone", "svc-a"), NotFoundError,
                     id="replace-retired"),
        pytest.param(lambda r, t: r.replace_service("svc-a", "ghost"), NotFoundError,
                     id="replace-with-unknown"),
        pytest.param(lambda r, t: r.replace_service("svc-a", "svc-b"), IncompatibleReplacement,
                     id="replace-uncovered"),
        pytest.param(lambda r, t: r.replace_with_best_match("svc-a"), NotFoundError,
                     id="best-match-uncovered"),
        pytest.param(lambda r, t: r.discover_service("alpha", "9.9.9"), NotFoundError,
                     id="discover-unknown-version"),
        pytest.param(lambda r, t: r.compose_services(FunctionalSpec(required_tags={"a", "z"})),
                     UncoverableGoal, id="compose-uncoverable"),
        pytest.param(lambda r, t: reg(r, t, service_id="svc-a", name="new", version="2.0.0"),
                     DuplicateService, id="register-taken-id"),
        pytest.param(lambda r, t: reg(r, t, service_id="svc-new", name="alpha",
                                      version="1.0.0"),
                     DuplicateService, id="register-taken-name-version"),
        pytest.param(lambda r, t: reg(r, t, service_id="svc-new", name="new", version="1.0"),
                     StandardViolation, id="register-bad-version"),
    ],
)
def test_failed_calls_change_no_record(registry, t0, call, error):
    # Each call checks everything before it changes anything.
    reg(registry, t0, service_id="svc-a", name="alpha", version="1.0.0", tags=("a", "b"))
    reg(registry, t0, service_id="svc-b", name="beta", version="1.0.0", tags=("a",))
    reg(registry, t0, service_id="svc-gone", name="gamma", version="1.0.0", tags=("a", "b"))
    registry.deregister_service("svc-gone")
    before = states(registry)
    with pytest.raises(error):
        call(registry, t0)
    assert states(registry) == before
