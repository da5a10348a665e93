"""Spans around the program's public functions, and the per-layer table.

A layer is a tierbroker module. The simulator imports its collaborators
by name (`from .arbitrator import analyze_performance`), and the
registry imports `schedule_service` the same way, so each span wraps a
name where its caller looks it up: `tierbroker.simulation.collect_context`,
not `tierbroker.arbitrator.collect_context`. `installed` puts the
wrappers in place and restores the originals on exit.

Spans are kept in memory (name, start, end, parent) and written out as
JSON lines when the traced run ends. A span's self time is its duration
minus the time its direct child spans cover; the run is single-threaded,
so children nest inside their parent.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import Counter

# Span name -> the layer metric its self time adds to.
SPAN_LAYER = {
    "cli.main": "cli.self_s",
    "workload.load_scenario": "workload.parse_s",
    "workload.scenario_from_dict": "workload.parse_s",
    "workload.generate_workload": "workload.generate_s",
    "registry.register_service": "registry.register_s",
    "arbitrator.schedule_service": "arbitrator.schedule_s",
    "arbitrator.decide_among": "arbitrator.schedule_s",
    "arbitrator.analyze_performance": "arbitrator.analysis_s",
    "arbitrator.analyze_computation": "arbitrator.analysis_s",
    "arbitrator.reschedule": "arbitrator.analysis_s",
    "arbitrator.collect_context": "arbitrator.context_s",
    "billing.compute_charge": "billing.charge_s",
    "billing.apply_slo_rebate": "billing.charge_s",
    "simulation.simulate_scenario": "simulation.self_s",
    "report.latency_stats": "report.stats_s",
    "report.write_metrics_csv": "report.write_s",
    "report.write_metrics_json": "report.write_s",
    "report.write_compare_csv": "report.write_s",
    "report.write_compare_json": "report.write_s",
}

# Count metric -> the spans whose number it is.
SPAN_COUNTS = {
    "registry.registrations": ("registry.register_service",),
    "arbitrator.schedule_calls": ("arbitrator.schedule_service", "arbitrator.decide_among"),
    "arbitrator.analysis_calls": ("arbitrator.analyze_performance",),
    "arbitrator.context_calls": ("arbitrator.collect_context",),
    "billing.charge_calls": ("billing.compute_charge",),
}

class Tracer:
    """In-memory span store; `wrap` returns a recording stand-in for a function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()

    def wrap(self, span: str, fn, after=None):
        """`fn` inside a span; `after(counts, args, result)` runs once it ends."""
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._ids[span]
        names, parents, starts, ends, open_spans = (
            self.name, self.parent, self.start, self.end, self._open
        )
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            if after is not None:
                after(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> Counter:
        """Summed self time per span name."""
        child_time = array("d", bytes(8 * len(self.start)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[index] - self.start[index]
        totals: Counter = Counter()
        for index, name_id in enumerate(self.name):
            duration = self.end[index] - self.start[index]
            totals[self.names[name_id]] += duration - child_time[index]
        return totals

    def span_counts(self) -> Counter:
        counts = Counter(self.name)
        return Counter({self.names[name_id]: n for name_id, n in counts.items()})

    def write_jsonl(self, path: str):
        """One span per line: id, name, start and end in seconds, parent id (-1 for roots)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, name_id in enumerate(self.name):
                fh.write(
                    f'{{"id": {index}, "name": "{self.names[name_id]}", '
                    f'"start": {self.start[index] - origin:.9f}, '
                    f'"end": {self.end[index] - origin:.9f}, '
                    f'"parent": {self.parent[index]}}}\n'
                )


# ----------------------------------------------------------------------
# counters taken at the same boundaries as the spans


def _arrivals(counts, args, result):
    counts["workload.arrivals"] += len(result)


def _advice(counts, args, result):
    counts["arbitrator.advice_issued"] += result is not None


def _move(counts, args, result):
    # reschedule(record, advice, ...): the simulator applies a move after
    # this returns, so the record still holds the old placement here.
    counts["arbitrator.moves"] += result.node_id != args[0].placement.node_id


def _bytes(counts, args, result):
    counts["report.bytes_written"] += os.path.getsize(args[1])


def _targets():
    """(owner, attribute, span name, counter) for every traced boundary."""
    import tierbroker.cli as cli
    import tierbroker.registry as registry
    import tierbroker.report as report
    import tierbroker.simulation as simulation
    import tierbroker.workload as workload

    return [
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "workload.load_scenario", None),
        (cli, "simulate_scenario", "simulation.simulate_scenario", None),
        (cli, "write_compare_csv", "report.write_compare_csv", _bytes),
        (cli, "write_compare_json", "report.write_compare_json", _bytes),
        (workload, "load_scenario", "workload.load_scenario", None),
        (workload, "scenario_from_dict", "workload.scenario_from_dict", None),
        (simulation, "simulate_scenario", "simulation.simulate_scenario", None),
        (simulation, "generate_workload", "workload.generate_workload", _arrivals),
        (simulation, "schedule_service", "arbitrator.schedule_service", None),
        (simulation, "decide_among", "arbitrator.decide_among", None),
        (simulation, "analyze_performance", "arbitrator.analyze_performance", _advice),
        (simulation, "analyze_computation", "arbitrator.analyze_computation", _advice),
        (simulation, "reschedule", "arbitrator.reschedule", _move),
        (simulation, "collect_context", "arbitrator.collect_context", None),
        (simulation, "compute_charge", "billing.compute_charge", None),
        (simulation, "apply_slo_rebate", "billing.apply_slo_rebate", None),
        (simulation, "latency_stats", "report.latency_stats", None),
        (registry, "schedule_service", "arbitrator.schedule_service", None),
        (registry.Registry, "register_service", "registry.register_service", None),
        (report, "write_metrics_csv", "report.write_metrics_csv", _bytes),
        (report, "write_metrics_json", "report.write_metrics_json", _bytes),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every boundary in `_targets` while the block runs."""
    saved = []
    try:
        for owner, attribute, span, after in _targets():
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(span, original, after))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def layer_metrics(tracer: Tracer, names: list[str], overhead_s: float) -> dict:
    """The per-layer table from one traced run; every name in `names` is present."""
    values = {name: 0 for name in names}
    for span, seconds in tracer.self_times().items():
        values[SPAN_LAYER[span]] += seconds
    spans = tracer.span_counts()
    for metric, counted in SPAN_COUNTS.items():
        values[metric] = sum(spans[span] for span in counted)
    for metric in ("workload.arrivals", "arbitrator.advice_issued", "arbitrator.moves",
                   "report.bytes_written"):
        values[metric] = tracer.counts[metric]
    calls = values["arbitrator.analysis_calls"]
    values["arbitrator.moves_per_analysis"] = values["arbitrator.moves"] / calls if calls else 0.0
    arrivals = values["workload.arrivals"]
    values["simulation.self_us_per_arrival"] = (
        values["simulation.self_s"] * 1e6 / arrivals if arrivals else 0.0
    )
    values["trace.overhead_s"] = overhead_s
    return values
