"""Exception types shared across the package."""


class ConfigError(Exception):
    """Scenario or topology input is unusable."""


class ParseError(ConfigError):
    """Scenario file is not well-formed JSON."""


class ValidationError(ConfigError):
    """Input failed field validation; carries every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class StandardViolation(ConfigError):
    """Service descriptor does not meet the registration standard."""

    def __init__(self, service_id, violations):
        self.service_id = service_id
        self.violations = list(violations)
        parts = [f"{v.field}: {v.message}" for v in self.violations]
        super().__init__(f"{service_id}: " + "; ".join(parts))


class NoAdmissibleNode(Exception):
    """No node in the topology can accept the service."""

    def __init__(self, service_id, detail=""):
        self.service_id = service_id
        msg = f"no admissible node for service {service_id!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DuplicateService(Exception):
    """An active record with the same (name, version) already exists."""


class NotFoundError(Exception):
    """Referenced record does not exist or is no longer active."""


class StateError(Exception):
    """Operation not allowed in the record's current lifecycle state."""


class IncompatibleReplacement(Exception):
    """Proposed successor does not cover the old service's capability tags."""

    def __init__(self, old_id, new_id, missing_tags):
        self.old_id = old_id
        self.new_id = new_id
        self.missing_tags = sorted(missing_tags)
        super().__init__(
            f"{new_id!r} cannot replace {old_id!r}: missing tags "
            + ", ".join(self.missing_tags)
        )


class UncoverableGoal(Exception):
    """No combination of active services covers the requested tags."""

    def __init__(self, residual_tags):
        self.residual_tags = sorted(residual_tags)
        super().__init__("uncovered tags: " + ", ".join(self.residual_tags))


class EmptyOpinions(Exception):
    """Trust combination was given no assessments to combine."""


class ChainTooShort(Exception):
    """Indirect trust needs at least two hops."""


class NonDealerNode(Exception):
    """Opening-hours check was asked about a node that is not a dealer."""


class OutOfOrderEvent(Exception):
    """Context feed received an event older than the last one for the service."""
