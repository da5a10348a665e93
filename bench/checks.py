"""Output checks against results the benchmark derives on its own.

Each check raises CheckFailed with the first problem it finds. The
checks read the parsed scenario's fields and the simulator's records
and recompute what the program claims: the arrival stream, latency
floors, opening hours, charges, the per-service and run rows, and the
arbitration count. Nothing here calls the program's own arithmetic.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math

MASK64 = (1 << 64) - 1
ANALYSIS_INTERVAL_MS = 1000.0
DAY_MINUTES = 1440
PINNED_TIERS = {"dealer-only": "Dealer", "mno-only": "MNO", "cloud-only": "Cloud"}

# Column order of metrics.csv / compare.csv, as docs/metrics.md gives it.
CSV_COLUMNS = [
    "row", "policy", "seed", "service_id", "tier", "invocations", "completed",
    "rejected", "dropped", "in_flight", "mean_latency_ms", "p95_latency_ms",
    "energy_j_total", "charge_total", "reschedules", "arbitration_events",
    "security_violations", "wall_ms",
]
COUNT_FIELDS = ("completed", "rejected", "dropped", "in_flight")
FLOAT_FIELDS = ("mean_latency_ms", "p95_latency_ms", "energy_j_total", "charge_total")
RUN_ONLY = ("arbitration_events", "security_violations", "wall_ms")
SERVICE_JSON = ("service_id", "tier", "invocations") + COUNT_FIELDS + FLOAT_FIELDS + ("reschedules",)
RUN_JSON = ("arrivals",) + COUNT_FIELDS + FLOAT_FIELDS + ("reschedules",) + RUN_ONLY

# Float sums may round differently from ours in the last bits.
REL_TOL = 1e-9
# Latency floor slack: a few ulps of a timestamp near a day in ms.
LATENCY_SLACK_MS = 1e-6


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


# ----------------------------------------------------------------------
# arrival stream: SplitMix64, inverse-CDF exponential gaps, one stream
# per (consumer, service) in sorted order seeded with seed XOR index.


def _stream(seed: int, rate_per_s: float, horizon_ms: float, consumer: str, service: str):
    state = seed & MASK64
    t = 0.0
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        u = ((z >> 11) + 0.5) * 2.0**-53
        t += -math.log(u) / rate_per_s * 1000.0
        if t >= horizon_ms:
            return
        yield (t, consumer, service)


def reference_arrivals(scenario, seed: int):
    """Every arrival below the horizon as (t_ms, consumer, service), in order."""
    pairs = sorted(
        (consumer.id, service_id, rate)
        for consumer in scenario.consumers
        for service_id, rate in consumer.rates.items()
        if rate > 0
    )
    return heapq.merge(
        *(
            _stream(seed ^ index, rate, scenario.horizon_ms, consumer, service)
            for index, (consumer, service, rate) in enumerate(pairs)
        )
    )


# ----------------------------------------------------------------------
# one simulation: records, rows and the arbitration count


class _Group:
    __slots__ = ("invocations", "rejected", "dropped", "in_flight", "latencies",
                 "energy", "charge")

    def __init__(self):
        self.invocations = self.rejected = self.dropped = self.in_flight = 0
        self.latencies: list[float] = []
        self.energy: list[float] = []
        self.charge: list[float] = []

    def add(self, other: "_Group"):
        for name in ("invocations", "rejected", "dropped", "in_flight"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies += other.latencies
        self.energy += other.energy
        self.charge += other.charge


def _check_row(label: str, row, invocations: int, group: _Group):
    counts = (invocations, row.completed, row.rejected, row.dropped, row.in_flight)
    grouped = (group.invocations, len(group.latencies), group.rejected, group.dropped,
               group.in_flight)
    require(invocations == sum(counts[1:]), f"{label}: conservation broken: {counts}")
    require(counts == grouped, f"{label}: counts {counts} != records {grouped}")
    if group.latencies:
        ordered = sorted(group.latencies)
        mean = math.fsum(ordered) / len(ordered)
        p95 = ordered[max(math.ceil(0.95 * len(ordered)), 1) - 1]
    else:
        mean = p95 = 0.0
    require(close(row.mean_latency_ms, mean), f"{label}: mean {row.mean_latency_ms} != {mean}")
    require(row.p95_latency_ms == p95, f"{label}: p95 {row.p95_latency_ms} != {p95}")
    energy = math.fsum(group.energy)
    charge = math.fsum(group.charge)
    require(close(row.energy_j_total, energy), f"{label}: energy {row.energy_j_total} != {energy}")
    require(close(row.charge_total, charge), f"{label}: charge {row.charge_total} != {charge}")


def check_simulation(scenario, policy: str, seed: int, result) -> int:
    """Check one SimResult against the scenario; returns its arrival count."""
    label = f"{policy} seed {seed}"
    nodes = {n.id: n for n in scenario.nodes}
    services = {s.id: s for s in scenario.services}
    records = result.records
    report = result.report

    reference = reference_arrivals(scenario, seed)
    for index, record in enumerate(records):
        expected = next(reference, None)
        got = (record.t_arrive, record.consumer_id, record.service_id)
        require(got == expected, f"{label}: arrival {index} is {got}, stream gives {expected}")
    require(next(reference, None) is None, f"{label}: {len(records)} arrivals, stream has more")

    groups = {service_id: _Group() for service_id in services}
    for record in records:
        group = groups[record.service_id]
        group.invocations += 1
        outcome = None if record.outcome is None else record.outcome.value
        if record.t_start is not None:
            node = nodes[record.node_id]
            if node.tier.value == "Dealer":
                open_minute, close_minute = node.open_hours
                minute = (record.t_start / 60000.0) % DAY_MINUTES
                require(
                    open_minute <= minute < close_minute,
                    f"{label}: request {record.request_id} started on {node.id} "
                    f"at minute {minute}, outside {node.open_hours}",
                )
        if outcome is None:
            group.in_flight += 1
        elif outcome == "Rejected":
            group.rejected += 1
        elif outcome == "Dropped":
            group.dropped += 1
        else:
            require(outcome == "Completed", f"{label}: unknown outcome {outcome}")
            _check_completed(label, record, nodes[record.node_id], services[record.service_id],
                             scenario.rebate_frac)
            group.latencies.append(record.t_done - record.t_arrive)
            group.energy.append(record.energy_j)
            group.charge.append(record.charge)

    require(
        [row.service_id for row in report.services] == sorted(services),
        f"{label}: service rows are not one per service in id order",
    )
    total = _Group()
    for row in report.services:
        group = groups[row.service_id]
        _check_row(f"{label} {row.service_id}", row, row.invocations, group)
        total.add(group)
    run = report.run
    _check_row(f"{label} run", run, run.arrivals, total)
    require(
        run.reschedules == sum(row.reschedules for row in report.services),
        f"{label}: run reschedules differ from the service rows",
    )

    if policy == "sami":
        placed = len(services)
        ticks = math.floor(scenario.horizon_ms / ANALYSIS_INTERVAL_MS)
        expected_events = placed + ticks * placed + run.reschedules
    else:
        tier = PINNED_TIERS[policy]
        placed = len(services) if any(n.tier.value == tier for n in scenario.nodes) else 0
        expected_events = placed
    require(
        run.arbitration_events == expected_events,
        f"{label}: arbitration_events {run.arbitration_events} != {expected_events}",
    )
    return run.arrivals


def window_changes(scenario, policy: str, result) -> tuple[int, int]:
    """(changed, evaluated) (service, tick) pairs of one run's analysis ticks.

    Under sami every placed service is evaluated at every tick t. Its
    window, the service's recent completions, has changed since the
    tick before when some request of it completed in (t - 1000, t].
    The pinned policies have no ticks.
    """
    if policy != "sami":
        return 0, 0
    ticks = math.floor(scenario.horizon_ms / ANALYSIS_INTERVAL_MS)
    changed = {
        (record.service_id, tick)
        for record in result.records
        if record.outcome is not None and record.outcome.value == "Completed"
        for tick in (math.ceil(record.t_done / ANALYSIS_INTERVAL_MS),)
        if tick <= ticks
    }
    return len(changed), ticks * len(scenario.services)


def _check_completed(label, record, node, service, rebate_frac: float):
    payload_mb = service.payload_in + service.payload_out
    cpu_s = service.cpu_demand / node.cpu_speed
    floor_ms = node.rtt_ms + payload_mb * 8.0 * 1000.0 / node.bandwidth_mbps + cpu_s * 1000.0
    latency = record.t_done - record.t_arrive
    require(
        latency >= floor_ms - LATENCY_SLACK_MS,
        f"{label}: request {record.request_id} took {latency} ms, below its floor {floor_ms}",
    )
    tariff = node.tariff
    charge = tariff.base_fee + tariff.cpu_rate * cpu_s + tariff.data_rate * payload_mb
    if latency + node.qos.jitter_ms + node.qos.session_reestablish_ms > service.sla_latency_ms:
        charge *= 1.0 - rebate_frac
    require(
        close(record.charge, charge),
        f"{label}: request {record.request_id} charged {record.charge}, tariff gives {charge}",
    )


def check_latency_claim(sami_report, cloud_report):
    """README: on latency_mix the arbitrated policy halves cloud-only latency."""
    sami_ms = sami_report.run.mean_latency_ms
    cloud_ms = cloud_report.run.mean_latency_ms
    require(
        sami_ms <= 0.5 * cloud_ms,
        f"latency_mix: sami mean {sami_ms} ms is not at most half of cloud-only {cloud_ms} ms",
    )


# ----------------------------------------------------------------------
# output files


def _cell(value) -> str:
    return format(value, ".6g") if isinstance(value, float) else str(value)


def _expected_cells(report, row) -> dict:
    cells = {name: "" for name in CSV_COLUMNS}
    cells.update(policy=report.policy, seed=str(report.seed))
    for name in COUNT_FIELDS + FLOAT_FIELDS + ("reschedules",):
        cells[name] = _cell(getattr(row, name))
    if hasattr(row, "service_id"):
        cells.update(row="service", service_id=row.service_id, tier=row.tier,
                     invocations=_cell(row.invocations))
    else:
        cells.update(row="run", invocations=_cell(row.arrivals))
        for name in RUN_ONLY:
            cells[name] = _cell(getattr(row, name))
    return cells


def _json_matches(obj: dict, cells: dict, keys: tuple, label: str):
    require(sorted(obj) == sorted(keys), f"{label}: JSON fields {sorted(obj)}")
    for key in keys:
        cell = cells["invocations" if key == "arrivals" else key]
        value = obj[key]
        ok = value == float(cell) if isinstance(value, float) else str(value) == cell
        require(ok, f"{label}: JSON {key}={value!r}, expected {cell!r}")


def check_files(csv_path: str, json_path: str, reports: list):
    """The CSV and JSON files hold exactly `reports`, row for row, LF-ended."""
    with open(csv_path, "rb") as fh:
        csv_bytes = fh.read()
    with open(json_path, "rb") as fh:
        json_bytes = fh.read()
    for path, data in ((csv_path, csv_bytes), (json_path, json_bytes)):
        require(data.endswith(b"\n") and b"\r" not in data, f"{path}: not LF-terminated")

    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    require(rows and rows[0] == CSV_COLUMNS, f"{csv_path}: header differs from the documented columns")
    body = rows[1:]
    loaded = json.loads(json_bytes)
    objects = loaded if isinstance(loaded, list) else [loaded]
    require(len(objects) == len(reports), f"{json_path}: {len(objects)} reports, expected {len(reports)}")

    expected_rows = []
    for report, obj in zip(reports, objects):
        label = f"{json_path} {report.policy}"
        require(obj["policy"] == report.policy and obj["seed"] == report.seed,
                f"{label}: policy or seed differs")
        require(len(obj["services"]) == len(report.services), f"{label}: service count differs")
        for row, service_obj in zip(report.services, obj["services"]):
            cells = _expected_cells(report, row)
            _json_matches(service_obj, cells, SERVICE_JSON, f"{label} {row.service_id}")
            expected_rows.append(cells)
        cells = _expected_cells(report, report.run)
        _json_matches(obj["run"], cells, RUN_JSON, f"{label} run")
        expected_rows.append(cells)

    require(len(body) == len(expected_rows), f"{csv_path}: {len(body)} rows, expected {len(expected_rows)}")
    for number, (got, cells) in enumerate(zip(body, expected_rows), start=2):
        want = [cells[name] for name in CSV_COLUMNS]
        require(got == want, f"{csv_path} line {number}: {got} != {want}")
        invocations = int(got[CSV_COLUMNS.index("invocations")])
        parts = sum(int(got[CSV_COLUMNS.index(name)]) for name in COUNT_FIELDS)
        require(invocations == parts, f"{csv_path} line {number}: conservation broken")
