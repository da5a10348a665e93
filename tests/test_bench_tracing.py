"""The benchmark's tracer and set-up probe still find every name they use.

bench/tracing.py wraps public functions where their callers look them
up, such as `tierbroker.simulation.compute_charge`. A refactor that
moves or renames one of those lookups would leave `bench/run.py --trace
1` broken or silently missing a layer, so this runs the tracer around
one simulation. The module is loaded from its file; nothing under
bench/ is changed. bench/setup_probe.py likewise replaces
`tierbroker.simulation.generate_workload` to stop a run at its first
event, and the tests at the end stop runs the same way.
"""

import importlib.util
from pathlib import Path

import pytest

from tierbroker import cli, simulation
from tierbroker.model import Outcome
from tierbroker.registry import Registry
from tierbroker.simulation import POLICIES, Simulation
from tierbroker.workload import load_scenario

from conftest import SCENARIO_DIR

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_live_names_and_records_the_layers():
    tracing = load_tracing()
    targets = tracing._targets()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _, _ in targets
        if not hasattr(owner, attribute)
    ]
    assert missing == []
    originals = [getattr(owner, attribute) for owner, attribute, _, _ in targets]

    scenario = load_scenario(str(SCENARIO_DIR / "latency_mix.json"))
    with tracing.installed(tracing.Tracer()) as tracer:
        result = simulation.simulate_scenario(scenario)

    spans = tracer.span_counts()
    for name in (
        "simulation.simulate_scenario",
        "workload.generate_workload",
        "billing.compute_charge",
        "billing.apply_slo_rebate",
        "report.latency_stats",
    ):
        assert spans[name] > 0, name
    # arbitrator.context_calls counts these spans: one per completed request.
    completed = sum(r.outcome is Outcome.COMPLETED for r in result.records)
    assert completed > 0
    assert spans["arbitrator.collect_context"] == completed
    assert [getattr(owner, attribute) for owner, attribute, _, _ in targets] == originals


def test_traced_analyses_and_moves_are_the_simulators(monkeypatch):
    # arbitrator.analysis_calls counts analyze_performance spans, one per
    # analysis, and arbitrator.moves reads reschedule's first argument,
    # the record, for the placement it leaves. On dealer_hours svc-nav
    # moves once on advice and once on the arrival that finds its dealer
    # closed, which the counter must not see.
    tracing = load_tracing()
    analyses = []
    analyze = Simulation._analyze

    def noting(self, t_ms, state):
        moved = analyze(self, t_ms, state)
        analyses.append(moved)
        return moved

    monkeypatch.setattr(Simulation, "_analyze", noting)
    scenario = load_scenario(str(SCENARIO_DIR / "dealer_hours.json"))
    with tracing.installed(tracing.Tracer()) as tracer:
        simulation.simulate_scenario(scenario, policy="sami")
    assert len(analyses) > 0 and sum(analyses) > 0
    assert tracer.span_counts()["arbitrator.analyze_performance"] == len(analyses)
    assert tracer.counts["arbitrator.moves"] == sum(analyses)


# Every method the event loop calls as a handler.
HANDLERS = (
    "_on_arrival", "_on_exec_done", "_on_dealer_open", "_on_dealer_close",
    "_on_analysis_tick", "_try_start",
)


class FirstEvent(Exception):
    """Raised where the set-up probe stops: when the simulator asks for arrivals."""


def stop_at_first_event(monkeypatch):
    """Stop any run when it asks for arrivals, and note the registrations
    and handler calls made before; returns what was noted."""
    noted = {"registered": [], "handled": []}
    register = Registry.register_service

    def registering(self, desc, *args, **kwargs):
        noted["registered"].append(desc.id)
        return register(self, desc, *args, **kwargs)

    def stop(consumers, seed, horizon_ms):
        raise FirstEvent

    monkeypatch.setattr(Registry, "register_service", registering)
    for name in HANDLERS:
        monkeypatch.setattr(
            Simulation, name, lambda self, *args, _name=name: noted["handled"].append(_name)
        )
    monkeypatch.setattr(simulation, "generate_workload", stop)
    return noted


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", ["dealer_hours", "latency_mix"])
def test_arrivals_are_asked_for_after_placement_and_before_any_event(monkeypatch, name, policy):
    # Every tier has a node in these scenarios, so every policy places
    # every service. A run that asked for arrivals through another name
    # than the module's would never stop here.
    scenario = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    noted = stop_at_first_event(monkeypatch)
    with pytest.raises(FirstEvent):
        simulation.simulate_scenario(scenario, policy=policy)
    assert sorted(noted["registered"]) == sorted(s.id for s in scenario.services)
    assert noted["handled"] == []


def test_compare_stops_at_the_first_event(monkeypatch, tmp_path):
    # The probe's first call for shipped_compare is the CLI's compare,
    # which lets the stand-in's exception through.
    noted = stop_at_first_event(monkeypatch)
    with pytest.raises(FirstEvent):
        cli.main(["compare", "--scenario", str(SCENARIO_DIR / "dealer_hours.json"),
                  "--out", str(tmp_path), "--format", "both"])
    assert noted["registered"] == ["svc-nav"]  # under sami, the first policy compare runs
    assert noted["handled"] == []
    assert list(tmp_path.iterdir()) == []
