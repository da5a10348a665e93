"""Deterministic RNG, arrival generation, scenario loading."""

import json
import math
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tierbroker import workload
from tierbroker.errors import ParseError, ValidationError
from tierbroker.model import SecurityClass, Tier, TrustBasis, TrustLevel
from tierbroker.workload import (
    Arrival,
    ConsumerSpec,
    generate_workload,
    lane_words,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    splitmix64_block,
)

from conftest import SCENARIO_DIR
from oracles import GAMMA, reference_workload, splitmix64

# Reference outputs of the splitmix64 finalizer for seed 0.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def block_outputs(seed, start, n):
    return lane_words(splitmix64_block(seed, start, n), n)


def test_splitmix64_reference_vector():
    assert block_outputs(0, 0, 3) == SPLITMIX64_SEED0
    assert block_outputs(0, 1, 2) == SPLITMIX64_SEED0[1:]
    assert tuple(islice(splitmix64(0), 3)) == SPLITMIX64_SEED0


def test_splitmix64_wraps_seed():
    assert block_outputs(2**64, 0, 3) == block_outputs(-(2**64), 0, 3) == SPLITMIX64_SEED0


SEEDS = st.integers(-(2**80), 2**80)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(0, 700), st.integers(1, 600))
@example(-1, 0, 1)
@example(2**64 - 1, 700, 600)
def test_block_draw_continues_the_scalar_generator(seed, start, n):
    expected = tuple(islice(splitmix64(seed), start, start + n))
    assert block_outputs(seed, start, n) == expected
    # Each lane shifts on its own: the draw reads the top 53 bits this way.
    assert lane_words(splitmix64_block(seed, start, n) >> 11, n) == tuple(
        z >> 11 for z in expected
    )


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(0, 2**40), st.integers(1, 600))
@example(-(2**70), 2**40, 1)
@example(2**64, 2**40, 600)
def test_block_draw_at_a_far_offset(seed, start, n):
    # The scalar generator's state after start steps is seed + start * GAMMA.
    assert block_outputs(seed, start, n) == tuple(islice(splitmix64(seed + start * GAMMA), n))


def consumers(rate=0.5, n_services=1):
    rates = {f"svc-{i}": rate for i in range(n_services)}
    return [ConsumerSpec(id="u1", rates=rates)]


def test_workload_is_deterministic():
    a = generate_workload(consumers(), seed=42, horizon_ms=100000.0)
    b = generate_workload(consumers(), seed=42, horizon_ms=100000.0)
    assert a == b
    c = generate_workload(consumers(), seed=43, horizon_ms=100000.0)
    assert a != c


def test_workload_gaps_are_exponential():
    # Each gap is -log(u) / rate for a uniform u in (0, 1]: never negative
    # or infinite, and 1000 / rate ms on average.
    arrivals = generate_workload(consumers(rate=2.0), seed=7, horizon_ms=1_000_000.0)
    times = [0.0] + [a.t_ms for a in arrivals]
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    assert len(gaps) > 1900
    assert all(0.0 <= gap < math.inf for gap in gaps)
    assert abs(sum(gaps) / len(gaps) - 500.0) < 25.0


def test_workload_sorted_and_bounded():
    arrivals = generate_workload(consumers(n_services=3), seed=1, horizon_ms=60000.0)
    times = [a.t_ms for a in arrivals]
    assert times == sorted(times)
    assert all(0.0 < t < 60000.0 for t in times)


def test_workload_streams_increase_strictly():
    arrivals = generate_workload(consumers(n_services=2), seed=5, horizon_ms=300000.0)
    per_stream = {}
    for a in arrivals:
        per_stream.setdefault((a.consumer_id, a.service_id), []).append(a.t_ms)
    for times in per_stream.values():
        assert all(x < y for x, y in zip(times, times[1:]))


def test_workload_streams_are_independent():
    both = [
        ConsumerSpec(id="u1", rates={"svc-0": 0.5}),
        ConsumerSpec(id="u2", rates={"svc-0": 0.5}),
    ]
    merged = generate_workload(both, seed=9, horizon_ms=120000.0)
    alone = generate_workload(both[:1], seed=9, horizon_ms=120000.0)
    u1_times = [a.t_ms for a in merged if a.consumer_id == "u1"]
    assert u1_times == [a.t_ms for a in alone]


STREAM_KEYS = st.tuples(st.sampled_from(["u1", "u2", "u3"]),
                        st.sampled_from(["svc-0", "svc-1", "svc-2"]))
STREAM_RATE = st.sampled_from([0.0, 0.2, 1.0, 3.0])
STREAM_HORIZON_MS = 20000.0


def consumers_of(rates):
    """{(consumer, service): rate} as ConsumerSpecs."""
    by_consumer = {}
    for (consumer_id, service_id), rate in rates.items():
        by_consumer.setdefault(consumer_id, {})[service_id] = rate
    return [ConsumerSpec(id=c, rates=r) for c, r in by_consumer.items()]


def stream_times(rates, seed):
    """(consumer, service) -> its arrival times in the merged workload."""
    times = {}
    for a in generate_workload(consumers_of(rates), seed, STREAM_HORIZON_MS):
        times.setdefault((a.consumer_id, a.service_id), []).append(a.t_ms)
    return times


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(STREAM_KEYS, STREAM_RATE, max_size=6), st.integers(0, 2**64 - 1))
def test_each_stream_draws_only_from_its_own_seed(rates, seed):
    # A stream's arrivals are what it draws alone, seeded seed XOR its
    # index among the streams with a positive rate: no other stream's
    # rate or draws reach them.
    merged = stream_times(rates, seed)
    live = sorted(key for key, rate in rates.items() if rate > 0)
    for index, key in enumerate(live):
        assert merged.get(key, []) == stream_times({key: rates[key]}, seed ^ index).get(key, [])
    assert set(merged) <= set(live)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(STREAM_KEYS, STREAM_RATE, max_size=6), st.integers(0, 2**64 - 1),
       STREAM_KEYS, STREAM_RATE)
def test_adding_a_stream_keeps_the_streams_before_it(rates, seed, added, rate):
    # Adding a consumer or a rate leaves every stream that sorts before
    # it unchanged, and a zero rate changes nothing. Streams after it
    # move up one index and so draw from another seed.
    assume(added not in rates)
    before = stream_times(rates, seed)
    after = stream_times({**rates, added: rate}, seed)
    kept = {key: times for key, times in before.items() if rate == 0 or key < added}
    assert {key: after[key] for key in kept} == kept
    if rate == 0:
        assert after == before


def test_workload_rate_zero_yields_nothing():
    silent = [ConsumerSpec(id="u1", rates={"svc-0": 0.0})]
    assert generate_workload(silent, seed=3, horizon_ms=60000.0) == []


def test_workload_count_concentrates_at_rate_times_horizon():
    # rate x horizon = 100 expected arrivals per run.
    expected = 100.0
    counts = [
        len(generate_workload(consumers(rate=0.5), seed=seed, horizon_ms=200000.0))
        for seed in range(100)
    ]
    bound = 4.0 * math.sqrt(expected)
    assert all(abs(c - expected) <= bound for c in counts)
    mean = sum(counts) / len(counts)
    assert abs(mean - expected) <= 4.0 * math.sqrt(expected / len(counts))


CONSUMERS = st.dictionaries(
    st.sampled_from(["u0", "u1", "u2"]),
    st.dictionaries(
        st.sampled_from(["svc-a", "svc-b", "svc-c"]),
        st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.01, 20.0)),
        max_size=3,
    ),
    max_size=3,
)


def specs(rates):
    """{consumer: {service: rate}} as ConsumerSpecs, consumers out of order."""
    return [ConsumerSpec(id=c, rates=r) for c, r in sorted(rates.items(), reverse=True)]


@settings(max_examples=100, deadline=None)
@given(CONSUMERS, SEEDS, st.floats(1.0, 200_000.0))
@example({"u1": {"svc-a": 50.0}}, 11, 200_000.0)  # three blocks of MAX_LANES
@example({"u1": {"svc-a": 1e-12, "svc-b": 0.5}}, 3, 60_000.0)  # a near-zero rate
@example({"u0": {"svc-a": 0.3}, "u2": {"svc-c": 9.0}}, -(2**65) - 1, 100_000.0)
def test_block_draw_equals_the_scalar_draw(rates, seed, horizon_ms):
    drawn = generate_workload(specs(rates), seed, horizon_ms)
    assert drawn == reference_workload(specs(rates), seed, horizon_ms)
    assert all(type(arrival) is Arrival for arrival in drawn)


@settings(max_examples=50, deadline=None)
@given(CONSUMERS, SEEDS, st.floats(1.0, 100_000.0))
def test_small_blocks_equal_the_scalar_draw(rates, seed, horizon_ms):
    # At 64 lanes a block most often ends below the horizon, and a stream
    # goes on from its last time in the next block.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workload, "MAX_LANES", 64)
        drawn = generate_workload(specs(rates), seed, horizon_ms)
    assert drawn == reference_workload(specs(rates), seed, horizon_ms)


def test_a_long_stream_draws_block_after_block(monkeypatch):
    # 50/s over 200 s expects 10,000 arrivals: the first two blocks of
    # MAX_LANES fall wholly below the horizon and the third crosses it.
    blocks = []
    draw = workload.splitmix64_block

    def counting(seed, start, n):
        blocks.append((start, n))
        return draw(seed, start, n)

    monkeypatch.setattr(workload, "splitmix64_block", counting)
    consumers = [ConsumerSpec(id="u1", rates={"svc-0": 50.0})]
    drawn = generate_workload(consumers, 11, 200_000.0)
    assert blocks == [(0, 4096), (4096, 4096), (8192, 4096)]
    assert drawn == reference_workload(consumers, 11, 200_000.0)


def test_equal_times_come_out_in_consumer_then_service_order(monkeypatch):
    # Every stream draws the same outputs, so the four streams share every
    # time; the sort by time alone must keep them in (consumer, service)
    # order, the order the streams were drawn in.
    draw = workload.splitmix64_block
    monkeypatch.setattr(workload, "splitmix64_block", lambda seed, start, n: draw(0, start, n))
    consumers = [
        ConsumerSpec(id="u2", rates={"svc-b": 1.0, "svc-a": 1.0}),
        ConsumerSpec(id="u1", rates={"svc-b": 1.0, "svc-a": 1.0}),
    ]
    drawn = generate_workload(consumers, 5, 30_000.0)
    assert len(drawn) > 40 and len(drawn) % 4 == 0
    pairs = [("u1", "svc-a"), ("u1", "svc-b"), ("u2", "svc-a"), ("u2", "svc-b")]
    for at in range(0, len(drawn), 4):
        group = drawn[at:at + 4]
        assert len({a.t_ms for a in group}) == 1
        assert [(a.consumer_id, a.service_id) for a in group] == pairs


# ----------------------------------------------------------------------
# scenario loading


def minimal_dict():
    return json.loads((SCENARIO_DIR / "minimal.json").read_text())


def test_load_packaged_scenario():
    scenario = load_scenario(str(SCENARIO_DIR / "minimal.json"))
    assert scenario.horizon_ms == 10000.0
    assert scenario.seed == 42
    assert [n.id for n in scenario.nodes] == ["M1"]
    assert scenario.nodes[0].tier is Tier.MNO
    assert [s.id for s in scenario.services] == ["svc-echo"]
    assert scenario.consumers[0].rates == {"svc-echo": 0.2}
    assert scenario.vocabulary is not None


def test_load_scenario_missing_file():
    with pytest.raises(ParseError):
        load_scenario(str(SCENARIO_DIR / "missing.json"))


def test_load_scenario_bad_json(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(str(broken))


def test_scenario_errors_accumulate(tmp_path):
    data = minimal_dict()
    data["horizon_ms"] = -5
    data["surprise"] = 1
    data["nodes"][0]["cpu_speed"] = 0
    data["services"][0].pop("version")
    data["consumers"][0]["rates"]["svc-ghost"] = 1.0
    del data["tag_vocabulary"]
    with pytest.raises(ValidationError) as exc_info:
        scenario_from_dict(data)
    messages = exc_info.value.errors
    assert any(m.startswith("scenario.horizon_ms") for m in messages)
    assert any("unknown field" in m and "surprise" in m for m in messages)
    assert any(m.startswith("scenario.nodes[0].cpu_speed") for m in messages)
    assert any(m.startswith("scenario.services[0].version") for m in messages)
    assert any("svc-ghost" in m for m in messages)


def test_scenario_rejects_duplicates():
    data = minimal_dict()
    del data["tag_vocabulary"]
    data["nodes"].append(dict(data["nodes"][0]))
    twin = dict(data["services"][0])
    data["services"].append(twin)
    with pytest.raises(ValidationError) as exc_info:
        scenario_from_dict(data)
    joined = "; ".join(exc_info.value.errors)
    assert "duplicate node id" in joined
    assert "duplicate service id" in joined


def test_scenario_weights_must_sum_to_one():
    data = minimal_dict()
    del data["tag_vocabulary"]
    data["weights"] = {"w_latency": 0.9, "w_cost": 0.3}
    with pytest.raises(ValidationError) as exc_info:
        scenario_from_dict(data)
    assert any("must equal 1" in m for m in exc_info.value.errors)


def test_scenario_negative_rate_rejected():
    data = minimal_dict()
    del data["tag_vocabulary"]
    data["consumers"][0]["rates"]["svc-echo"] = -1
    with pytest.raises(ValidationError) as exc_info:
        scenario_from_dict(data)
    assert any("rate >= 0" in m for m in exc_info.value.errors)


def test_scenario_round_trip():
    scenario = load_scenario(str(SCENARIO_DIR / "latency_mix.json"))
    rebuilt = scenario_from_dict(
        scenario_to_dict(scenario), base_dir=str(SCENARIO_DIR)
    )
    assert rebuilt.horizon_ms == scenario.horizon_ms
    assert rebuilt.seed == scenario.seed
    assert [n.id for n in rebuilt.nodes] == [n.id for n in scenario.nodes]
    assert rebuilt.services == scenario.services
    assert rebuilt.consumers == scenario.consumers
    assert rebuilt.weights == scenario.weights
    assert rebuilt.thresholds == scenario.thresholds


# ----------------------------------------------------------------------
# node and service fields, read through scenario_from_dict


def node_dict(**extra):
    base = {
        "id": "N1",
        "tier": "MNO",
        "cpu_speed": 4000,
        "cpu_slots": 2,
        "mem_capacity": 4096,
        "storage_capacity": 10240,
        "rtt_ms": 50,
        "bandwidth_mbps": 50,
    }
    base.update(extra)
    return base


def service_dict(**extra):
    return {"id": "s1", "name": "probe", "version": "1.0.0", "capability_tags": ["a"],
            **extra}


def one_of_each(node=None, service=None):
    """A scenario with one node, one service and one consumer of it."""
    return {
        "horizon_ms": 1000,
        "nodes": [node or node_dict(trust={"level": "High"})],
        "services": [service or service_dict()],
        "consumers": [{"id": "u1", "rates": {"s1": 1.0}}],
    }


def read_node(**extra):
    return scenario_from_dict(one_of_each(node=node_dict(**extra))).nodes[0]


def problems_of(**parts):
    with pytest.raises(ValidationError) as exc_info:
        scenario_from_dict(one_of_each(**parts))
    return exc_info.value.errors


def test_scenario_node_trust_probes():
    node = read_node(trust_probes=[True, True, True])
    assert node.trust.level is TrustLevel.HIGH
    assert node.trust.basis is TrustBasis.ESTABLISHED
    assert read_node(trust_probes=[True, True]).trust.level is TrustLevel.MEDIUM
    assert read_node(trust_probes=[True, False, True]).trust.level is TrustLevel.UNTRUSTED


def test_scenario_node_trust_probes_must_not_be_empty():
    errors = problems_of(node=node_dict(trust_probes=[]))
    assert any(e.startswith("scenario.nodes[0].trust_probes") for e in errors)


def test_scenario_node_trust_chain():
    node = read_node(trust_chain=["High", "High"])
    assert node.trust.level is TrustLevel.LOW
    assert node.trust.basis is TrustBasis.INDIRECT
    errors = problems_of(node=node_dict(trust_chain=["High"]))
    assert any(e.startswith("scenario.nodes[0].trust_chain") for e in errors)


def test_scenario_node_trust_opinions_median():
    node = read_node(trust_opinions=[{"level": "High"}, {"level": "High"}, {"level": "Low"}])
    assert node.trust.level is TrustLevel.HIGH
    assert node.trust.basis is TrustBasis.AGGREGATED


def test_scenario_node_reputation():
    node = read_node(reputation={"legal_registered": True, "years_active": 6,
                                 "complaint_rate": 0.01})
    assert node.trust.level is TrustLevel.HIGH
    assert node.trust.basis is TrustBasis.REPUTATION


def test_scenario_node_combines_evidence():
    node = read_node(
        trust_chain=["High", "High"],
        reputation={"legal_registered": True, "years_active": 6, "complaint_rate": 0.01},
    )
    # Reputation High outranks the chain's capped Low.
    assert node.trust.level is TrustLevel.HIGH
    assert node.trust.basis is TrustBasis.REPUTATION


def test_scenario_node_requires_trust_evidence():
    errors = problems_of(node=node_dict())
    assert any(
        e.startswith("scenario.nodes[0]: ") and "trust evidence required" in e for e in errors
    )


def test_scenario_node_rejects_unknown_fields():
    errors = problems_of(node=node_dict(trust={"level": "High"}, gpu_count=4))
    assert "scenario.nodes[0].gpu_count: unknown field" in errors


def test_scenario_service_defaults_and_errors():
    desc = scenario_from_dict(one_of_each()).services[0]
    assert desc.security_class is SecurityClass.PUBLIC
    assert desc.sla_latency_ms == 1000.0
    assert not desc.latency_sensitive
    errors = problems_of(service=service_dict(capability_tags="not-a-list", cpu_demand=-1))
    assert any(e.startswith("scenario.services[0].capability_tags") for e in errors)
    assert any(e.startswith("scenario.services[0].cpu_demand") for e in errors)
