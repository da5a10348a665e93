"""Service registry: lifecycle, discovery, matching and composition.

Records move Active -> Replaced or Active -> Deregistered and never
back; replaced records keep a forwarding link to their successor so
discovery by an old name lands on the live service.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arbitrator import (
    SchedulerWeights,
    enforce_standard,
    schedule_service,
)
from .errors import (
    DuplicateService,
    IncompatibleReplacement,
    NotFoundError,
    StandardViolation,
    StateError,
    UncoverableGoal,
)
from .model import (
    PlacementDecision,
    ServiceDescriptor,
    Topology,
    parse_semver,
)


class ServiceState(str, Enum):
    ACTIVE = "Active"
    REPLACED = "Replaced"
    DEREGISTERED = "Deregistered"


@dataclass
class ServiceRecord:
    descriptor: ServiceDescriptor
    placement: PlacementDecision | None
    state: ServiceState
    replaced_by: str | None = None


@dataclass
class FunctionalSpec:
    """What a consumer needs: capability tags, optional description words."""

    required_tags: set[str]
    keywords: list[str] | None = None


def jaccard(a: set[str], b: set[str]) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


class Registry:
    def __init__(
        self,
        *,
        vocabulary: set[str] | None = None,
        weights: SchedulerWeights | None = None,
    ):
        self.vocabulary = vocabulary
        self.weights = weights or SchedulerWeights()
        self._records: dict[str, ServiceRecord] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def register_service(
        self,
        desc: ServiceDescriptor,
        topology: Topology,
        t_ms: float,
        placement: PlacementDecision | None = None,
    ) -> ServiceRecord:
        """Validate, place and record a new service.

        A pre-made placement pins the service without consulting the
        arbitration flow (used by the single-tier baseline policies).
        """
        violations = enforce_standard(desc, self.vocabulary)
        if violations:
            raise StandardViolation(desc.id, violations)
        if desc.id in self._records:
            raise DuplicateService(f"service id {desc.id!r} already registered")
        for rec in self._records.values():
            if (
                rec.state is ServiceState.ACTIVE
                and rec.descriptor.name == desc.name
                and rec.descriptor.version == desc.version
            ):
                raise DuplicateService(
                    f"active record for {desc.name} {desc.version} already exists"
                )
        if placement is None:
            placement = schedule_service(desc, topology, self.weights, t_ms)
        record = ServiceRecord(
            descriptor=desc,
            placement=placement,
            state=ServiceState.ACTIVE,
        )
        self._records[desc.id] = record
        return record

    def replace_service(self, old_id: str, new_id: str) -> ServiceRecord:
        """Retire one active record in favour of another.

        The successor must already be registered and must cover every
        capability tag of the outgoing service; the old record keeps a
        forwarding link so discovery by its name finds the successor.
        """
        old = self._records.get(old_id)
        if old is None or old.state is not ServiceState.ACTIVE:
            raise NotFoundError(f"no active record {old_id!r} to replace")
        new = self._records.get(new_id)
        if new is None or new.state is not ServiceState.ACTIVE:
            raise NotFoundError(f"no active record {new_id!r} to replace with")
        missing = old.descriptor.capability_tags - new.descriptor.capability_tags
        if missing:
            raise IncompatibleReplacement(old_id, new_id, missing)
        old.state = ServiceState.REPLACED
        old.replaced_by = new_id
        return new

    def replace_with_best_match(self, old_id: str) -> ServiceRecord:
        """Swap a misbehaving service for the best-matching substitute.

        Candidates are ranked by tag overlap with the old service; the
        first one that covers all its tags wins.
        """
        old = self.get(old_id)
        query = FunctionalSpec(required_tags=set(old.descriptor.capability_tags))
        for cand in self.match_services(query):
            if cand.descriptor.id == old_id:
                continue
            if old.descriptor.capability_tags <= cand.descriptor.capability_tags:
                return self.replace_service(old_id, cand.descriptor.id)
        raise NotFoundError(f"no active substitute covers {old_id!r}")

    def deregister_service(self, service_id: str) -> ServiceRecord:
        rec = self._records.get(service_id)
        if rec is None:
            raise NotFoundError(f"no record {service_id!r}")
        if rec.state is not ServiceState.ACTIVE:
            raise StateError(f"record {service_id!r} is {rec.state.value}")
        rec.state = ServiceState.DEREGISTERED
        return rec

    # ------------------------------------------------------------------
    # queries

    def get(self, service_id: str) -> ServiceRecord:
        rec = self._records.get(service_id)
        if rec is None:
            raise NotFoundError(f"no record {service_id!r}")
        return rec

    def resolve(self, service_id: str) -> ServiceRecord:
        """Follow forwarding links from replaced records to the live one."""
        rec = self.get(service_id)
        seen = {service_id}
        while rec.state is ServiceState.REPLACED and rec.replaced_by:
            if rec.replaced_by in seen:
                raise StateError(f"forwarding cycle at {rec.replaced_by!r}")
            seen.add(rec.replaced_by)
            rec = self.get(rec.replaced_by)
        return rec

    def active_records(self) -> list[ServiceRecord]:
        return [
            r
            for _, r in sorted(self._records.items())
            if r.state is ServiceState.ACTIVE
        ]

    def discover_service(self, name: str, version: str | None = None) -> ServiceRecord:
        """Find the live record answering to a name.

        Among active records with the name, an explicit version must
        match exactly; otherwise the highest version wins. A name whose
        records were all replaced forwards to the successors.
        """
        found = [r for r in self.active_records() if r.descriptor.name == name]
        if found:
            if version is not None:
                for r in found:
                    if r.descriptor.version == version:
                        return r
                raise NotFoundError(f"no active record for {name} {version}")
            return max(found, key=lambda r: parse_semver(r.descriptor.version))
        # Nothing active under this name: follow replacement forwarding.
        replaced = [
            r
            for _, r in sorted(self._records.items())
            if r.state is ServiceState.REPLACED
            and r.descriptor.name == name
            and (version is None or r.descriptor.version == version)
        ]
        for rec in sorted(
            replaced, key=lambda r: parse_semver(r.descriptor.version), reverse=True
        ):
            live = self.resolve(rec.descriptor.id)
            if live.state is ServiceState.ACTIVE:
                return live
        raise NotFoundError(f"no active record named {name!r}")

    def match_services(self, query: FunctionalSpec) -> list[ServiceRecord]:
        """Rank active records by tag overlap (Jaccard), names break ties.

        Records sharing no tag with the query are excluded; when
        keywords are given, a record must contain at least one of them
        in its description (case-insensitive) to stay.
        """
        ranked = []
        for rec in self.active_records():
            rtags = rec.descriptor.capability_tags
            if not (query.required_tags & rtags):
                continue
            if query.keywords:
                haystack = rec.descriptor.description.lower()
                if not any(k.lower() in haystack for k in query.keywords):
                    continue
            ranked.append(
                (
                    -jaccard(query.required_tags, rtags),
                    rec.descriptor.name,
                    rec.descriptor.id,
                    rec,
                )
            )
        ranked.sort(key=lambda item: item[:3])
        return [item[3] for item in ranked]

    def compose_services(self, goal: FunctionalSpec) -> list[str]:
        """Greedy set cover of the goal tags by active records.

        Returns the chosen service ids in the order they were picked.
        Each round takes the record covering the most still-uncovered
        tags, names then ids breaking ties. Raises UncoverableGoal
        carrying the residual tags when registered services cannot
        finish the cover.
        """
        uncovered = set(goal.required_tags)
        chosen = []
        pool = self.active_records()
        while uncovered:
            best = None
            best_key = None
            for rec in pool:
                gain = len(uncovered & rec.descriptor.capability_tags)
                if gain == 0:
                    continue
                key = (-gain, rec.descriptor.name, rec.descriptor.id)
                if best_key is None or key < best_key:
                    best, best_key = rec, key
            if best is None:
                raise UncoverableGoal(uncovered)
            chosen.append(best.descriptor.id)
            uncovered -= best.descriptor.capability_tags
            pool = [r for r in pool if r.descriptor.id != best.descriptor.id]
        return chosen
