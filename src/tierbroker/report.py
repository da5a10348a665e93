"""Run metrics and their CSV/JSON serializations.

Output files are byte-stable: fixed column order, floats at 6
significant digits, LF line endings, trailing newline, and nothing
time-of-day dependent. wall_ms reports the simulated duration.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from statistics import fmean

CSV_COLUMNS = [
    "row",
    "policy",
    "seed",
    "service_id",
    "tier",
    "invocations",
    "completed",
    "rejected",
    "dropped",
    "in_flight",
    "mean_latency_ms",
    "p95_latency_ms",
    "energy_j_total",
    "charge_total",
    "reschedules",
    "arbitration_events",
    "security_violations",
    "wall_ms",
]


@dataclass
class ServiceRow:
    service_id: str
    tier: str
    invocations: int
    completed: int
    rejected: int
    dropped: int
    in_flight: int
    mean_latency_ms: float
    p95_latency_ms: float
    energy_j_total: float
    charge_total: float
    reschedules: int


@dataclass
class RunRow:
    arrivals: int
    completed: int
    rejected: int
    dropped: int
    in_flight: int
    mean_latency_ms: float
    p95_latency_ms: float
    energy_j_total: float
    charge_total: float
    reschedules: int
    arbitration_events: int
    security_violations: int
    wall_ms: float


@dataclass
class MetricsReport:
    policy: str
    seed: int
    services: list[ServiceRow] = field(default_factory=list)
    run: RunRow | None = None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    if not values:
        raise ValueError("percentile of empty sample")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def latency_stats(latencies: list[float]) -> tuple[float, float]:
    """(mean, p95) of a latency sample; empty samples read as zero."""
    if not latencies:
        return 0.0, 0.0
    return fmean(latencies), percentile(latencies, 95.0)


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def round6(value: float) -> float:
    return float(format(value, ".6g"))


def _csv_cells(kind: str, report: MetricsReport, row: ServiceRow | RunRow) -> list[str]:
    """One CSV line; the run row's arrivals fill invocations, absent columns stay empty."""
    # vars, not asdict: the fields are flat, and asdict deep-copies each one.
    cells = {"row": kind, "policy": report.policy, "seed": report.seed, **vars(row)}
    if "arrivals" in cells:
        cells["invocations"] = cells.pop("arrivals")
    return [fmt(cells.get(column, "")) for column in CSV_COLUMNS]


def _write_rows(path: str, reports: list[MetricsReport]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            for row in report.services:
                writer.writerow(_csv_cells("service", report, row))
            writer.writerow(_csv_cells("run", report, report.run))


def write_metrics_csv(report: MetricsReport, path: str):
    _write_rows(path, [report])


def write_compare_csv(reports: list[MetricsReport], path: str):
    """One block of service rows plus a summary row per policy."""
    _write_rows(path, reports)


def _row_to_dict(row: ServiceRow | RunRow) -> dict:
    # Float fields, by declared type, rounded as the CSV prints them.
    return {
        f.name: round6(getattr(row, f.name)) if f.type == "float" else getattr(row, f.name)
        for f in fields(row)
    }


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "policy": report.policy,
        "seed": report.seed,
        "services": [_row_to_dict(row) for row in report.services],
        "run": _row_to_dict(report.run),
    }


def write_metrics_json(report: MetricsReport, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_compare_json(reports: list[MetricsReport], path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump([report_to_dict(r) for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
