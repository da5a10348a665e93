"""The benchmark's tracer still finds every name it wraps.

bench/tracing.py wraps public functions where their callers look them
up, such as `tierbroker.simulation.compute_charge`. A refactor that
moves or renames one of those lookups would leave `bench/run.py --trace
1` broken or silently missing a layer, so this runs the tracer around
one simulation. The module is loaded from its file; nothing under
bench/ is changed.
"""

import importlib.util
from pathlib import Path

from tierbroker import simulation
from tierbroker.model import Outcome
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
