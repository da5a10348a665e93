"""Scenario files and synthetic workload generation.

load_scenario parses and validates a JSON scenario in one pass,
accumulating every problem with its field path instead of stopping at
the first. Arrival streams are Poisson processes driven by a splitmix64
generator, one independent stream per (consumer, service) pair, so runs
are reproducible bit for bit from the seed alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

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
    TestVector,
    Tier,
    TrustAssessment,
    TrustBasis,
    TrustLevel,
    check_node,
)
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


class SplitMix64:
    """splitmix64 sequence generator.

    state advances by the 64-bit golden-gamma constant; each output is
    the finalizer z ^= z>>30 * C1, z ^= z>>27 * C2, z ^= z>>31 applied
    to the new state. Uniform doubles take the top 53 bits offset by
    half an ulp so they lie strictly inside (0, 1).
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53


@dataclass
class Arrival:
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
    vocabulary_path: str | None = None


def generate_workload(
    consumers: list[ConsumerSpec], seed: int, horizon_ms: float
) -> list[Arrival]:
    """Draw every arrival below the horizon, merged in time order.

    Streams are indexed in sorted (consumer, service) order and each is
    seeded seed XOR stream-index, so no stream ever consumes another's
    draws.
    """
    streams = []
    for consumer in sorted(consumers, key=lambda c: c.id):
        for service_id in sorted(consumer.rates):
            rate = consumer.rates[service_id]
            if rate > 0:
                streams.append((consumer.id, service_id, rate))
    arrivals: list[Arrival] = []
    for index, (consumer_id, service_id, rate) in enumerate(streams):
        rng = SplitMix64((seed ^ index) & MASK64)
        t = 0.0
        while True:
            # Inverse-CDF exponential inter-arrival; u is never 0 or 1.
            t += -math.log(rng.next_float()) / rate * 1000.0
            if t >= horizon_ms:
                break
            arrivals.append(Arrival(t_ms=t, consumer_id=consumer_id, service_id=service_id))
    arrivals.sort(key=lambda a: (a.t_ms, a.consumer_id, a.service_id))
    return arrivals


# ----------------------------------------------------------------------
# parsing helpers: every reader appends problems to an error list and
# returns a best-effort value so one pass reports everything. Only an
# absent key takes the default; an explicit null is a wrong type.

_ABSENT = object()


def _get(d: dict, path: str, key: str, errors: list, required=False, default=None):
    if key not in d:
        if required:
            errors.append(f"{path}.{key}: required field missing")
        return default
    return d[key]


def _finite_number(val) -> bool:
    """True for a JSON number that is a finite float: not a bool, NaN, ±Infinity or a huge int."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _num(
    d: dict,
    path: str,
    key: str,
    errors: list,
    required=False,
    default=0.0,
    minimum=None,
    strict_min=None,
    maximum=None,
):
    val = _get(d, path, key, errors, required, _ABSENT)
    if val is _ABSENT:
        return default
    if not _finite_number(val):
        errors.append(f"{path}.{key}: expected a finite number")
        return default
    if minimum is not None and val < minimum:
        errors.append(f"{path}.{key}: must be >= {minimum}")
    if strict_min is not None and val <= strict_min:
        errors.append(f"{path}.{key}: must be > {strict_min}")
    if maximum is not None and val > maximum:
        errors.append(f"{path}.{key}: must be <= {maximum}")
    return float(val)


def _int(d: dict, path: str, key: str, errors: list, required=False, default=0, minimum=None):
    val = _get(d, path, key, errors, required, _ABSENT)
    if val is _ABSENT:
        return default
    if isinstance(val, bool) or not isinstance(val, int):
        errors.append(f"{path}.{key}: expected an integer")
        return default
    if minimum is not None and val < minimum:
        errors.append(f"{path}.{key}: must be >= {minimum}")
    return val


def _str(d: dict, path: str, key: str, errors: list, required=False, default="", nonempty=False):
    val = _get(d, path, key, errors, required, _ABSENT)
    if val is _ABSENT:
        return default
    if not isinstance(val, str):
        errors.append(f"{path}.{key}: expected a string")
        return default
    if nonempty and not val:
        errors.append(f"{path}.{key}: must be non-empty")
    return val


def _bool(d: dict, path: str, key: str, errors: list, default=False):
    val = _get(d, path, key, errors, False, _ABSENT)
    if val is _ABSENT:
        return default
    if not isinstance(val, bool):
        errors.append(f"{path}.{key}: expected a boolean")
        return default
    return val


def _enum(enum_cls, raw, path: str, errors: list, default):
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        errors.append(f"{path}: {raw!r} is not one of [{allowed}]")
        return default


def _reject_unknown(d: dict, path: str, allowed: set, errors: list):
    for key in sorted(set(d) - allowed):
        errors.append(f"{path}.{key}: unknown field")


def parse_service(d: dict, path: str) -> tuple[ServiceDescriptor, list[str]]:
    errors: list[str] = []
    if not isinstance(d, dict):
        return ServiceDescriptor(id="", name="", version="", capability_tags=set()), [
            f"{path}: expected an object"
        ]
    allowed = {
        "id",
        "name",
        "version",
        "capability_tags",
        "description",
        "cpu_demand",
        "mem_demand",
        "storage_demand",
        "payload_in",
        "payload_out",
        "latency_sensitive",
        "data_intensive",
        "security_class",
        "sla_latency_ms",
        "test_vector",
    }
    _reject_unknown(d, path, allowed, errors)
    tags_raw = _get(d, path, "capability_tags", errors, required=True, default=[])
    tags: set[str] = set()
    if not isinstance(tags_raw, list) or not all(isinstance(t, str) for t in tags_raw):
        errors.append(f"{path}.capability_tags: expected a list of strings")
    else:
        tags = set(tags_raw)
        if len(tags) != len(tags_raw):
            errors.append(f"{path}.capability_tags: tags must not repeat")
    vector = None
    tv = d.get("test_vector", _ABSENT)
    if tv is not _ABSENT:
        if not isinstance(tv, dict):
            errors.append(f"{path}.test_vector: expected an object")
        else:
            _reject_unknown(tv, f"{path}.test_vector", {"input_b64", "expected_digest"}, errors)
            vector = TestVector(
                input_b64=_str(tv, f"{path}.test_vector", "input_b64", errors, required=True),
                expected_digest=_str(
                    tv, f"{path}.test_vector", "expected_digest", errors, required=True
                ),
            )
    desc = ServiceDescriptor(
        id=_str(d, path, "id", errors, required=True),
        name=_str(d, path, "name", errors, required=True),
        version=_str(d, path, "version", errors, required=True),
        capability_tags=tags,
        description=_str(d, path, "description", errors),
        cpu_demand=_num(d, path, "cpu_demand", errors, minimum=0.0),
        mem_demand=_num(d, path, "mem_demand", errors, minimum=0.0),
        storage_demand=_num(d, path, "storage_demand", errors, minimum=0.0),
        payload_in=_num(d, path, "payload_in", errors, minimum=0.0),
        payload_out=_num(d, path, "payload_out", errors, minimum=0.0),
        latency_sensitive=_bool(d, path, "latency_sensitive", errors),
        data_intensive=_bool(d, path, "data_intensive", errors),
        security_class=_enum(
            SecurityClass,
            _get(d, path, "security_class", errors, default="Public"),
            f"{path}.security_class",
            errors,
            SecurityClass.PUBLIC,
        ),
        sla_latency_ms=_num(d, path, "sla_latency_ms", errors, default=1000.0, strict_min=0.0),
        test_vector=vector,
    )
    return desc, errors


def _parse_trust(d: dict, path: str, errors: list) -> TrustAssessment:
    assessments = []
    direct = d.get("trust", _ABSENT)
    if direct is not _ABSENT:
        if not isinstance(direct, dict):
            errors.append(f"{path}.trust: expected an object")
        else:
            _reject_unknown(direct, f"{path}.trust", {"level", "basis"}, errors)
            level = _enum(
                TrustLevel,
                _get(direct, f"{path}.trust", "level", errors, required=True),
                f"{path}.trust.level",
                errors,
                TrustLevel.UNTRUSTED,
            )
            basis = _enum(
                TrustBasis,
                _get(direct, f"{path}.trust", "basis", errors, default="Established"),
                f"{path}.trust.basis",
                errors,
                TrustBasis.ESTABLISHED,
            )
            assessments.append(TrustAssessment(level=level, basis=basis))
    probes = d.get("trust_probes", _ABSENT)
    if probes is not _ABSENT:
        if (
            not isinstance(probes, list)
            or not probes
            or not all(isinstance(p, bool) for p in probes)
        ):
            errors.append(f"{path}.trust_probes: expected a non-empty list of booleans")
        else:
            assessments.append(establish_trust(all(probes), len(probes)))
    opinions = d.get("trust_opinions", _ABSENT)
    if opinions is not _ABSENT:
        if not isinstance(opinions, list) or not opinions:
            errors.append(f"{path}.trust_opinions: expected a non-empty list")
        else:
            parsed = []
            for i, op in enumerate(opinions):
                if not isinstance(op, dict):
                    errors.append(f"{path}.trust_opinions[{i}]: expected an object")
                    continue
                _reject_unknown(op, f"{path}.trust_opinions[{i}]", {"level", "basis"}, errors)
                level = _enum(
                    TrustLevel,
                    _get(op, f"{path}.trust_opinions[{i}]", "level", errors, required=True),
                    f"{path}.trust_opinions[{i}].level",
                    errors,
                    TrustLevel.UNTRUSTED,
                )
                basis = _enum(
                    TrustBasis,
                    _get(op, f"{path}.trust_opinions[{i}]", "basis", errors, default="Established"),
                    f"{path}.trust_opinions[{i}].basis",
                    errors,
                    TrustBasis.ESTABLISHED,
                )
                parsed.append(TrustAssessment(level=level, basis=basis))
            if parsed:
                assessments.append(aggregate_trust(parsed))
    chain = d.get("trust_chain", _ABSENT)
    if chain is not _ABSENT:
        if not isinstance(chain, list) or len(chain) < 2:
            errors.append(f"{path}.trust_chain: expected a list of at least two levels")
        else:
            hops = [
                TrustAssessment(
                    level=_enum(
                        TrustLevel, raw, f"{path}.trust_chain[{i}]", errors,
                        TrustLevel.UNTRUSTED,
                    ),
                    basis=TrustBasis.ESTABLISHED,
                )
                for i, raw in enumerate(chain)
            ]
            assessments.append(indirect_trust(hops))
    rep = d.get("reputation", _ABSENT)
    if rep is not _ABSENT:
        if not isinstance(rep, dict):
            errors.append(f"{path}.reputation: expected an object")
        else:
            _reject_unknown(
                rep,
                f"{path}.reputation",
                {"legal_registered", "years_active", "complaint_rate"},
                errors,
            )
            record = ReputationRecord(
                node_id=str(d.get("id") or ""),
                legal_registered=_bool(rep, f"{path}.reputation", "legal_registered", errors),
                years_active=_num(
                    rep, f"{path}.reputation", "years_active", errors, minimum=0.0
                ),
                complaint_rate=_num(
                    rep, f"{path}.reputation", "complaint_rate", errors, minimum=0.0, maximum=1
                ),
            )
            assessments.append(reputation_trust(record))
    if not assessments:
        errors.append(f"{path}: trust evidence required (trust, trust_probes, "
                      f"trust_opinions, trust_chain or reputation)")
        return TrustAssessment(level=TrustLevel.UNTRUSTED, basis=TrustBasis.ESTABLISHED)
    return effective_trust(assessments)


def parse_node(d: dict, path: str) -> tuple[ResourceNode, list[str]]:
    errors: list[str] = []
    placeholder_trust = TrustAssessment(TrustLevel.UNTRUSTED, TrustBasis.ESTABLISHED)
    if not isinstance(d, dict):
        node = ResourceNode(
            id="", tier=Tier.MNO, cpu_speed=1, cpu_slots=1, mem_capacity=1,
            storage_capacity=1, rtt_ms=0, bandwidth_mbps=1, internet_path=False,
            trust=placeholder_trust, tariff=default_tariff(Tier.MNO),
        )
        return node, [f"{path}: expected an object"]
    allowed = {
        "id", "tier", "cpu_speed", "cpu_slots", "mem_capacity", "storage_capacity",
        "rtt_ms", "bandwidth_mbps", "internet_path", "open_hours",
        "trust", "trust_probes", "trust_opinions", "trust_chain", "reputation",
        "tariff", "qos",
    }
    _reject_unknown(d, path, allowed, errors)
    tier = _enum(
        Tier, _get(d, path, "tier", errors, required=True), f"{path}.tier", errors, Tier.MNO
    )
    open_hours = None
    oh = d.get("open_hours", _ABSENT)
    if oh is not _ABSENT:
        if (
            not isinstance(oh, list)
            or len(oh) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in oh)
        ):
            errors.append(f"{path}.open_hours: expected [open_minute, close_minute]")
        else:
            open_hours = (oh[0], oh[1])
    tariff = default_tariff(tier)
    tf = d.get("tariff", _ABSENT)
    if tf is not _ABSENT:
        if not isinstance(tf, dict):
            errors.append(f"{path}.tariff: expected an object")
        else:
            _reject_unknown(tf, f"{path}.tariff", {"base_fee", "cpu_rate", "data_rate"}, errors)
            tariff = Tariff(
                base_fee=_num(tf, f"{path}.tariff", "base_fee", errors, minimum=0.0),
                cpu_rate=_num(tf, f"{path}.tariff", "cpu_rate", errors, minimum=0.0),
                data_rate=_num(tf, f"{path}.tariff", "data_rate", errors, minimum=0.0),
            )
    bandwidth = _num(d, path, "bandwidth_mbps", errors, required=True, strict_min=0.0, default=1.0)
    qos = QoSParameters()
    q = d.get("qos", _ABSENT)
    if q is not _ABSENT:
        if not isinstance(q, dict):
            errors.append(f"{path}.qos: expected an object")
        else:
            _reject_unknown(q, f"{path}.qos", {"jitter_ms", "session_reestablish_ms"}, errors)
            qos = QoSParameters(
                jitter_ms=_num(q, f"{path}.qos", "jitter_ms", errors, minimum=0.0),
                session_reestablish_ms=_num(
                    q, f"{path}.qos", "session_reestablish_ms", errors, minimum=0.0
                ),
            )
    node = ResourceNode(
        id=_str(d, path, "id", errors, required=True, nonempty=True),
        tier=tier,
        cpu_speed=_num(d, path, "cpu_speed", errors, required=True, strict_min=0.0, default=1.0),
        cpu_slots=_int(d, path, "cpu_slots", errors, default=1, minimum=1),
        mem_capacity=_num(d, path, "mem_capacity", errors, required=True, strict_min=0.0, default=1.0),
        storage_capacity=_num(
            d, path, "storage_capacity", errors, required=True, strict_min=0.0, default=1.0
        ),
        rtt_ms=_num(d, path, "rtt_ms", errors, required=True, minimum=0.0),
        bandwidth_mbps=bandwidth,
        internet_path=_bool(d, path, "internet_path", errors, default=tier is Tier.CLOUD),
        trust=_parse_trust(d, path, errors),
        tariff=tariff,
        qos=qos,
        open_hours=open_hours,
    )
    if not errors:
        errors.extend(f"{path}.{p}" for p in check_node(node))
    return node, errors


def _parse_consumer(d: dict, path: str) -> tuple[ConsumerSpec, list[str]]:
    errors: list[str] = []
    if not isinstance(d, dict):
        return ConsumerSpec(id="", rates={}), [f"{path}: expected an object"]
    _reject_unknown(d, path, {"id", "rates"}, errors)
    rates: dict[str, float] = {}
    raw = _get(d, path, "rates", errors, required=True, default={})
    if not isinstance(raw, dict):
        errors.append(f"{path}.rates: expected an object of service id -> rate")
    else:
        for sid in sorted(raw):
            rate = raw[sid]
            if not _finite_number(rate) or rate < 0:
                errors.append(f"{path}.rates.{sid}: expected a finite rate >= 0")
            else:
                rates[sid] = float(rate)
    consumer_id = _str(d, path, "id", errors, required=True, nonempty=True)
    return ConsumerSpec(id=consumer_id, rates=rates), errors


def _load_vocabulary(path: str) -> set[str]:
    vocab = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            tag = line.strip()
            if tag and not tag.startswith("#"):
                vocab.add(tag)
    return vocab


_SCENARIO_FIELDS = {
    "horizon_ms", "seed", "weights", "thresholds", "energy", "rebate_frac",
    "tag_vocabulary", "nodes", "services", "consumers",
}


def scenario_from_dict(data: dict, base_dir: str = ".") -> Scenario:
    """Validate a scenario structure; raises ValidationError with every
    problem found, each prefixed by its field path."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError(["scenario: expected a JSON object"])
    _reject_unknown(data, "scenario", _SCENARIO_FIELDS, errors)
    horizon = _num(data, "scenario", "horizon_ms", errors, required=True, strict_min=0.0, default=1.0)
    seed = _int(data, "scenario", "seed", errors, default=0, minimum=0)
    rebate = _num(
        data, "scenario", "rebate_frac", errors,
        default=DEFAULT_REBATE_FRAC, minimum=0.0, maximum=1,
    )

    weights = SchedulerWeights()
    w = data.get("weights", _ABSENT)
    if w is not _ABSENT:
        if not isinstance(w, dict):
            errors.append("scenario.weights: expected an object")
        else:
            _reject_unknown(w, "scenario.weights", {"w_latency", "w_cost"}, errors)
            weights = SchedulerWeights(
                w_latency=_num(
                    w, "scenario.weights", "w_latency", errors, required=True, minimum=0.0
                ),
                w_cost=_num(
                    w, "scenario.weights", "w_cost", errors, required=True, minimum=0.0
                ),
            )
            if abs(weights.w_latency + weights.w_cost - 1.0) > 1e-6:
                errors.append("scenario.weights: w_latency + w_cost must equal 1")

    thresholds = Thresholds()
    th = data.get("thresholds", _ABSENT)
    if th is not _ABSENT:
        if not isinstance(th, dict):
            errors.append("scenario.thresholds: expected an object")
        else:
            allowed = {
                "delay_pressure_ms_per_s", "min_gain_ms", "compute_factor",
                "compute_run", "window", "min_samples",
            }
            _reject_unknown(th, "scenario.thresholds", allowed, errors)
            thresholds = Thresholds(
                delay_pressure_ms_per_s=_num(
                    th, "scenario.thresholds", "delay_pressure_ms_per_s", errors,
                    default=5000.0, strict_min=0.0,
                ),
                min_gain_ms=_num(
                    th, "scenario.thresholds", "min_gain_ms", errors, default=50.0, minimum=0.0
                ),
                compute_factor=_num(
                    th, "scenario.thresholds", "compute_factor", errors, default=1.5, strict_min=0.0
                ),
                compute_run=_int(th, "scenario.thresholds", "compute_run", errors, default=3, minimum=1),
                window=_int(th, "scenario.thresholds", "window", errors, default=100, minimum=2),
                min_samples=_int(
                    th, "scenario.thresholds", "min_samples", errors, default=20, minimum=2
                ),
            )
            if thresholds.min_samples > thresholds.window:
                errors.append("scenario.thresholds: min_samples cannot exceed window")

    energy = EnergyModel()
    en = data.get("energy", _ABSENT)
    if en is not _ABSENT:
        if not isinstance(en, dict):
            errors.append("scenario.energy: expected an object")
        else:
            _reject_unknown(en, "scenario.energy", {"p_tx_w", "p_idle_w"}, errors)
            energy = EnergyModel(
                p_tx_w=_num(en, "scenario.energy", "p_tx_w", errors, default=1.0, minimum=0.0),
                p_idle_w=_num(en, "scenario.energy", "p_idle_w", errors, default=0.1, minimum=0.0),
            )

    vocabulary = None
    vocab_path = data.get("tag_vocabulary")
    if "tag_vocabulary" in data:
        if not isinstance(vocab_path, str):
            errors.append("scenario.tag_vocabulary: expected a path string")
            vocab_path = None
        else:
            full = os.path.join(base_dir, vocab_path)
            if not os.path.isfile(full):
                errors.append(f"scenario.tag_vocabulary: file not found: {vocab_path}")
            else:
                vocabulary = _load_vocabulary(full)

    nodes: list[ResourceNode] = []
    raw_nodes = _get(data, "scenario", "nodes", errors, required=True, default=[])
    if not isinstance(raw_nodes, list) or not raw_nodes:
        errors.append("scenario.nodes: expected a non-empty list")
    else:
        for i, nd in enumerate(raw_nodes):
            node, errs = parse_node(nd, f"scenario.nodes[{i}]")
            errors.extend(errs)
            nodes.append(node)
        ids = [n.id for n in nodes]
        for dup in sorted({x for x in ids if ids.count(x) > 1}):
            errors.append(f"scenario.nodes: duplicate node id {dup!r}")

    services: list[ServiceDescriptor] = []
    raw_services = _get(data, "scenario", "services", errors, required=True, default=[])
    if not isinstance(raw_services, list) or not raw_services:
        errors.append("scenario.services: expected a non-empty list")
    else:
        for i, sd in enumerate(raw_services):
            desc, errs = parse_service(sd, f"scenario.services[{i}]")
            errors.extend(errs)
            services.append(desc)
        ids = [s.id for s in services]
        for dup in sorted({x for x in ids if ids.count(x) > 1}):
            errors.append(f"scenario.services: duplicate service id {dup!r}")
        pairs = [(s.name, s.version) for s in services]
        for dup in sorted({p for p in pairs if pairs.count(p) > 1}):
            errors.append(f"scenario.services: duplicate name/version {dup[0]} {dup[1]}")

    consumers: list[ConsumerSpec] = []
    raw_consumers = _get(data, "scenario", "consumers", errors, required=True, default=[])
    if not isinstance(raw_consumers, list) or not raw_consumers:
        errors.append("scenario.consumers: expected a non-empty list")
    else:
        known = {s.id for s in services}
        for i, cd in enumerate(raw_consumers):
            consumer, errs = _parse_consumer(cd, f"scenario.consumers[{i}]")
            errors.extend(errs)
            consumers.append(consumer)
            for sid in sorted(consumer.rates):
                if sid not in known:
                    errors.append(
                        f"scenario.consumers[{i}].rates.{sid}: unknown service id"
                    )
        ids = [c.id for c in consumers]
        for dup in sorted({x for x in ids if ids.count(x) > 1}):
            errors.append(f"scenario.consumers: duplicate consumer id {dup!r}")

    if errors:
        raise ValidationError(errors)
    return Scenario(
        horizon_ms=horizon,
        seed=seed,
        nodes=nodes,
        services=services,
        consumers=consumers,
        weights=weights,
        thresholds=thresholds,
        energy=energy,
        rebate_frac=rebate,
        vocabulary=vocabulary,
        vocabulary_path=vocab_path,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"scenario: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario: invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical dict form; scenario_from_dict(scenario_to_dict(s)) == s
    up to the vocabulary file reference."""
    out = {
        "horizon_ms": s.horizon_ms,
        "seed": s.seed,
        "rebate_frac": s.rebate_frac,
        "weights": {"w_latency": s.weights.w_latency, "w_cost": s.weights.w_cost},
        "thresholds": {
            "delay_pressure_ms_per_s": s.thresholds.delay_pressure_ms_per_s,
            "min_gain_ms": s.thresholds.min_gain_ms,
            "compute_factor": s.thresholds.compute_factor,
            "compute_run": s.thresholds.compute_run,
            "window": s.thresholds.window,
            "min_samples": s.thresholds.min_samples,
        },
        "energy": {"p_tx_w": s.energy.p_tx_w, "p_idle_w": s.energy.p_idle_w},
        "nodes": [],
        "services": [],
        "consumers": [],
    }
    if s.vocabulary_path is not None:
        out["tag_vocabulary"] = s.vocabulary_path
    for n in s.nodes:
        nd = {
            "id": n.id,
            "tier": n.tier.value,
            "cpu_speed": n.cpu_speed,
            "cpu_slots": n.cpu_slots,
            "mem_capacity": n.mem_capacity,
            "storage_capacity": n.storage_capacity,
            "rtt_ms": n.rtt_ms,
            "bandwidth_mbps": n.bandwidth_mbps,
            "internet_path": n.internet_path,
            "trust": {"level": n.trust.level.value, "basis": n.trust.basis.value},
            "tariff": {
                "base_fee": n.tariff.base_fee,
                "cpu_rate": n.tariff.cpu_rate,
                "data_rate": n.tariff.data_rate,
            },
            "qos": {
                "jitter_ms": n.qos.jitter_ms,
                "session_reestablish_ms": n.qos.session_reestablish_ms,
            },
        }
        if n.open_hours is not None:
            nd["open_hours"] = [n.open_hours[0], n.open_hours[1]]
        out["nodes"].append(nd)
    for svc in s.services:
        sd = {
            "id": svc.id,
            "name": svc.name,
            "version": svc.version,
            "capability_tags": sorted(svc.capability_tags),
            "description": svc.description,
            "cpu_demand": svc.cpu_demand,
            "mem_demand": svc.mem_demand,
            "storage_demand": svc.storage_demand,
            "payload_in": svc.payload_in,
            "payload_out": svc.payload_out,
            "latency_sensitive": svc.latency_sensitive,
            "data_intensive": svc.data_intensive,
            "security_class": svc.security_class.value,
            "sla_latency_ms": svc.sla_latency_ms,
        }
        if svc.test_vector is not None:
            sd["test_vector"] = {
                "input_b64": svc.test_vector.input_b64,
                "expected_digest": svc.test_vector.expected_digest,
            }
        out["services"].append(sd)
    for c in s.consumers:
        out["consumers"].append(
            {"id": c.id, "rates": {k: c.rates[k] for k in sorted(c.rates)}}
        )
    return out
