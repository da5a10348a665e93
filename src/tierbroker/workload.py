"""Scenario files and synthetic workload generation.

load_scenario checks a JSON scenario against the package's JSON Schema
(scenario.schema.json) and the few rules JSON Schema cannot state,
accumulating every problem with its field path instead of stopping at
the first. Arrival streams are Poisson processes driven by splitmix64,
one independent stream per (consumer, service) pair, so runs are
reproducible bit for bit from the seed alone. Each stream is drawn a
block of outputs at a time, every output of a block in one lane of a
single Python int, so that a block costs a few big-int operations
instead of a generator step per draw.
"""

from __future__ import annotations

import json
import math
import os
import struct
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import cache, lru_cache
from itertools import accumulate, repeat
from operator import itemgetter
from typing import NamedTuple

from .arbitrator import SchedulerWeights, Thresholds
from .billing import DEFAULT_REBATE_FRAC, default_tariff
from .errors import ParseError, ValidationError
from .model import (
    EnergyModel,
    QoSParameters,
    ResourceNode,
    SecurityClass,
    ServiceDescriptor,
    Tariff,
    Tier,
    TrustAssessment,
    TrustBasis,
    TrustLevel,
    check_node,
)
from .schema import field_path, normalized, problems, scenario_schema
from .trust import (
    ReputationRecord,
    aggregate_trust,
    effective_trust,
    establish_trust,
    indirect_trust,
    reputation_trust,
)

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
MAX_LANES = 4096  # the most outputs one block draws


@lru_cache(maxsize=8)
def _lane_constants(n: int) -> tuple[int, int, int]:
    """ONES, GAMMA_RAMP and LOW for n 128-bit lanes: lane i holds 1, i * gamma
    and 2**64 - 1 respectively. Built on first use, not at import; the cache
    keeps 48 bytes a lane for at most 8 block sizes, under 1.6 MB."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    ramp = b"".join((i * _GAMMA).to_bytes(16, "little") for i in range(n))
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
    return ones, int.from_bytes(ramp, "little"), low


def splitmix64_block(seed: int, start: int, n: int) -> int:
    """Outputs start .. start + n - 1 (from 0) of the splitmix64 sequence of
    seed's low 64 bits, output start + i in the low 64 bits of lane i, the
    128 bits from bit 128 * i. Bits 64 to 96 of a lane are zero, so the
    block shifted right by up to 33 bits shifts each output in its own
    lane; bits 97 and up hold part of the next lane's output.

    The state advances by the 64-bit golden-gamma constant, so the state of
    output j is seed + (j + 1) * gamma mod 2**64: affine in j. A lane of 128
    bits holds a state plus i * gamma, below 2**77, and after each mask to
    the low 64 bits a lane times a 64-bit constant stays below 2**128. So
    the finalizer z ^= z>>30 * C1, z ^= z>>27 * C2, z ^= z>>31 works lane
    by lane on the whole block: a shift moves the next lane's bits only
    into bits 97 and up, which the next mask clears, and no carry crosses
    a lane.
    """
    ones, gamma_ramp, low = _lane_constants(n)
    state = (((seed + (start + 1) * _GAMMA) & MASK64) * ones + gamma_ramp) & low
    z = ((state ^ (state >> 30)) & low) * _MIX1 & low
    z = ((z ^ (z >> 27)) & low) * _MIX2 & low
    return z ^ (z >> 31)


def lane_words(lanes: int, n: int) -> tuple[int, ...]:
    """The low 64 bits of each of lanes' n 128-bit lanes, lane 0 first."""
    return struct.unpack(f"<{2 * n}Q", lanes.to_bytes(16 * n, "little"))[0::2]


class Arrival(NamedTuple):
    """One request, due at t_ms from consumer_id to service_id.

    The field order is the tie order: arrivals sort as plain tuples, by
    time, then consumer id, then service id, and the simulator handles
    them in that order.
    """

    t_ms: float
    consumer_id: str
    service_id: str


@dataclass
class ConsumerSpec:
    id: str
    rates: dict[str, float]  # service id -> requests per second


@dataclass
class Scenario:
    horizon_ms: float
    seed: int
    nodes: list[ResourceNode]
    services: list[ServiceDescriptor]
    consumers: list[ConsumerSpec]
    weights: SchedulerWeights
    thresholds: Thresholds
    energy: EnergyModel
    rebate_frac: float = DEFAULT_REBATE_FRAC
    vocabulary: set[str] | None = None
    tag_vocabulary: str | None = None


def generate_workload(
    consumers: list[ConsumerSpec], seed: int, horizon_ms: float
) -> list[Arrival]:
    """Draw every arrival below the horizon, merged in time order.

    Streams are indexed in sorted (consumer, service) order and each is
    seeded seed XOR stream-index, so no stream ever consumes another's
    draws. A stream is drawn in blocks of splitmix64 outputs, sized from
    its expected count (rate * horizon) plus three standard deviations,
    so most streams take one block and a longer one takes more: the
    state of a stream's j-th draw is affine in j, so splitmix64_block
    finalizes a whole block's states as one int, a lane per draw, and
    the draws come out in the order the scalar generator gives them.
    """
    streams = []
    for consumer in sorted(consumers, key=lambda c: c.id):
        for service_id in sorted(consumer.rates):
            rate = consumer.rates[service_id]
            if rate > 0:
                streams.append((consumer.id, service_id, rate))
    arrivals: list[Arrival] = []
    extend = arrivals.extend
    log = math.log
    new = tuple.__new__  # Arrival's fields without NamedTuple's keyword-taking __new__
    for index, (consumer_id, service_id, rate) in enumerate(streams):
        # Lanes in a multiple of 64, so that streams of like rates share
        # lane constants; min before ceil keeps a huge rate finite.
        expected = rate * horizon_ms / 1000.0
        lanes = 64 * math.ceil(min(MAX_LANES, expected + 3.0 * math.sqrt(expected) + 1.0) / 64)
        t, drawn = 0.0, 0
        while True:
            block = lane_words(splitmix64_block(seed ^ index, drawn, lanes) >> 11, lanes)
            drawn += lanes
            # Inverse-CDF exponential inter-arrival of the uniform
            # u = (z + 0.5) * 2**-53 in (0, 1], z the top 53 bits of a draw.
            # u is never 0, so the gap is finite; it is 1.0 only for
            # z == 2**53 - 1, whose sum rounds half to even, and then two
            # arrivals share a time. Gaps are never negative, so the times
            # never fall and the first at or past the horizon is a bisection.
            times = list(accumulate(
                [-log((z + 0.5) * 2.0**-53) / rate * 1000.0 for z in block], initial=t
            ))
            below = bisect_left(times, horizon_ms, 1)
            extend(map(new, repeat(Arrival), zip(
                times[1:below], repeat(consumer_id), repeat(service_id)
            )))
            if below <= lanes:
                break
            t = times[-1]
    # By time alone: the sort is stable and the streams went in in sorted
    # (consumer, service) order, so equal times keep the tuple order, as
    # consumer ids are unique (load_scenario refuses duplicates).
    arrivals.sort(key=itemgetter(0))
    return arrivals


# ----------------------------------------------------------------------
# scenario files: the package's JSON Schema defines the format. The code
# below adds only the rules JSON Schema cannot state and builds the model.


@cache
def _format() -> dict:
    """The scenario schema as the reader applies it.

    The registration standard is enforce_standard's to check, so that
    `validate` lists its breaches per service and the registry answers
    StandardViolation; the reader takes that sub-schema as empty.
    """
    full = scenario_schema()
    return {**full, "$defs": {**full["$defs"], "registration_standard": {}}}


def _assessment(d: dict) -> TrustAssessment:
    return TrustAssessment(level=TrustLevel(d["level"]), basis=TrustBasis(d["basis"]))


def _trust(d: dict) -> TrustAssessment:
    """Trust derived from a node's evidence; the format requires at least one kind."""
    found = []
    if "trust" in d:
        found.append(_assessment(d["trust"]))
    if "trust_probes" in d:
        found.append(establish_trust(all(d["trust_probes"]), len(d["trust_probes"])))
    if "trust_opinions" in d:
        found.append(aggregate_trust([_assessment(op) for op in d["trust_opinions"]]))
    if "trust_chain" in d:
        found.append(indirect_trust(
            [TrustAssessment(TrustLevel(hop), TrustBasis.ESTABLISHED) for hop in d["trust_chain"]]
        ))
    if "reputation" in d:
        found.append(reputation_trust(ReputationRecord(node_id=d["id"], **d["reputation"])))
    return effective_trust(found)


def _node(d: dict) -> ResourceNode:
    # A node's keys, trust evidence aside, are ResourceNode's field names.
    # Its tariff and internet_path default by tier, which JSON Schema's
    # "default" cannot express.
    tier = Tier(d["tier"])
    named = {f.name for f in fields(ResourceNode)}
    return ResourceNode(**{
        **{key: value for key, value in d.items() if key in named},
        "tier": tier,
        "internet_path": d.get("internet_path", tier is Tier.CLOUD),
        "trust": _trust(d),
        "tariff": Tariff(**d["tariff"]) if "tariff" in d else default_tariff(tier),
        "qos": QoSParameters(**d["qos"]),
        "open_hours": tuple(d["open_hours"]) if "open_hours" in d else None,
    })


def _service(d: dict) -> ServiceDescriptor:
    # A service's keys in the format are ServiceDescriptor's field names.
    return ServiceDescriptor(**{
        **d,
        "capability_tags": set(d["capability_tags"]),
        "security_class": SecurityClass(d["security_class"]),
    })


def _load_vocabulary(path: str) -> set[str]:
    vocab = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            tag = line.strip()
            if tag and not tag.startswith("#"):
                vocab.add(tag)
    return vocab


def _duplicates(items: list, *keys: str) -> list[tuple]:
    """Sorted values of keys held by more than one object in items, strings only."""
    counts = Counter(
        tuple(item[key] for key in keys)
        for item in items
        if isinstance(item, dict) and all(isinstance(item.get(key), str) for key in keys)
    )
    return sorted(values for values, n in counts.items() if n > 1)


def scenario_from_dict(data: dict, base_dir: str = ".") -> Scenario:
    """Validate a scenario structure; raises ValidationError with every
    problem found, each prefixed by its field path."""
    found = list(problems(data, _format(), _format()))
    errors = [f"{field_path('scenario', p)}: {m}" for p, m in found]
    if not isinstance(data, dict):
        raise ValidationError(errors)
    # Every path at or above a problem.
    touched = {p[:n] for p, _ in found for n in range(len(p) + 1)}
    data = normalized(data, _format())

    def sound(*path) -> bool:
        """No problem at or below path."""
        return path not in touched

    def items(key: str) -> list:
        return data[key] if isinstance(data.get(key), list) else []

    # The rules below are the ones JSON Schema cannot state: sums,
    # comparisons between fields, files and references across lists.
    weights, thresholds = data.get("weights"), data.get("thresholds")
    if sound("weights") and abs(weights["w_latency"] + weights["w_cost"] - 1.0) > 1e-6:
        errors.append("scenario.weights: w_latency + w_cost must equal 1")
    if sound("thresholds") and thresholds["min_samples"] > thresholds["window"]:
        errors.append("scenario.thresholds: min_samples cannot exceed window")
    vocabulary = None
    if "tag_vocabulary" in data and sound("tag_vocabulary"):
        full = os.path.join(base_dir, data["tag_vocabulary"])
        if not os.path.isfile(full):
            errors.append(f"scenario.tag_vocabulary: file not found: {data['tag_vocabulary']}")
        else:
            try:
                vocabulary = _load_vocabulary(full)
            except (OSError, UnicodeDecodeError) as exc:
                reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
                errors.append(
                    f"scenario.tag_vocabulary: cannot read {data['tag_vocabulary']}: {reason}"
                )

    nodes = []
    for i, nd in enumerate(items("nodes")):
        if sound("nodes", i):
            nodes.append(_node(nd))
            errors.extend(f"scenario.nodes[{i}].{p}" for p in check_node(nodes[-1]))
    services = [_service(sd) for i, sd in enumerate(items("services")) if sound("services", i)]
    consumers = [
        ConsumerSpec(**cd) for i, cd in enumerate(items("consumers")) if sound("consumers", i)
    ]

    for (node_id,) in _duplicates(items("nodes"), "id"):
        errors.append(f"scenario.nodes: duplicate node id {node_id!r}")
    for (service_id,) in _duplicates(items("services"), "id"):
        errors.append(f"scenario.services: duplicate service id {service_id!r}")
    for name, version in _duplicates(items("services"), "name", "version"):
        errors.append(f"scenario.services: duplicate name/version {name} {version}")
    for (consumer_id,) in _duplicates(items("consumers"), "id"):
        errors.append(f"scenario.consumers: duplicate consumer id {consumer_id!r}")
    known = {sd["id"] for sd in items("services")
             if isinstance(sd, dict) and isinstance(sd.get("id"), str)}
    for i, cd in enumerate(items("consumers")):
        rates = cd.get("rates") if isinstance(cd, dict) else None
        if isinstance(rates, dict):
            errors.extend(
                f"scenario.consumers[{i}].rates.{sid}: unknown service id"
                for sid in sorted(rates) if sid not in known
            )

    if errors:
        raise ValidationError(errors)
    # The format's top-level keys are Scenario's field names.
    return Scenario(**{
        **data,
        "nodes": nodes,
        "services": services,
        "consumers": consumers,
        "weights": SchedulerWeights(**weights),
        "thresholds": Thresholds(**thresholds),
        "energy": EnergyModel(**data["energy"]),
        "vocabulary": vocabulary,
    })


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"scenario: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario: invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def _plain(value):
    """A model value as JSON data: dataclasses become objects without
    their None fields, enums their values and sets sorted lists."""
    if is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in fields(value)
            if getattr(value, f.name) is not None
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def scenario_to_dict(s: Scenario) -> dict:
    """The scenario in the file format. scenario_from_dict(scenario_to_dict(s))
    == s when read relative to the directory tag_vocabulary names a file in."""
    out = _plain(s)
    out.pop("vocabulary", None)  # read from the tag_vocabulary file
    return out
