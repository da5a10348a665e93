"""The arbitration log records decisions, and the analyses are counted.

The log is a plain list of (t_ms, kind, service id) entries: one
register per placed service and one reschedule per move. However long
the run, its length follows what happened; the analyses every tick
makes are added to arbitration_events from the horizon.
"""

import dataclasses

from tierbroker.model import DAY_MS
from tierbroker.simulation import simulate_scenario
from tierbroker.workload import load_scenario

from conftest import SCENARIO_DIR


def test_a_week_of_quiet_ticks_logs_only_decisions():
    # A week of dealer_hours counts over 600,000 analyses of its one
    # service; the log holds its register and its moves alone.
    scenario = load_scenario(str(SCENARIO_DIR / "dealer_hours.json"))
    scenario = dataclasses.replace(scenario, horizon_ms=7 * DAY_MS)
    result = simulate_scenario(scenario)
    log = result.arbitration_log
    run = result.report.run
    services = len(scenario.services)
    assert type(log) is list
    assert run.reschedules > 0
    assert len(log) == services + run.reschedules
    assert [entry for entry in log if entry[1] == "register"] == [
        (0.0, "register", desc.id) for desc in sorted(scenario.services, key=lambda d: d.id)
    ]
    assert sum(1 for _, kind, _ in log if kind == "reschedule") == run.reschedules
    assert [t for t, _, _ in log] == sorted(t for t, _, _ in log)
    assert run.arbitration_events == services * (1 + 7 * 86400) + run.reschedules
