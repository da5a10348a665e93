"""The analysis tick runs last at its time.

At equal times arrivals run first, then the calendar, then the rest by
push sequence, then the tick, so the tick at T sees every completion,
migration end and dealer event up to and including T, whenever it was
pushed. The loop is run with every pop noted, and no event at a tick's
time may pop after the tick: no event any tick pushes here lands at its
own time, as every migration and every request takes time.
"""

import heapq

import pytest
from hypothesis import assume, given, settings

from tierbroker.simulation import ANALYSIS_INTERVAL_MS, Simulation
from tierbroker.workload import Arrival

from test_event_order import (
    grid_cases,
    lone_dealer_cases,
    sami_places,
    tie_scenario,
    use_arrivals,
)
from test_properties import SHIPPED, shipped


class NotePops(Simulation):
    """The simulator's loop, noting (t_ms, handler name) of each event it pops."""

    def run(self):
        self.popped = []
        self._place_all()
        self._schedule_calendar()
        while self._heap:
            t_ms, _, handler, payload = heapq.heappop(self._heap)
            if t_ms > self.horizon:
                break
            self.popped.append((t_ms, handler.__name__))
            handler(t_ms, payload)
        return self._finish(int(self.horizon // ANALYSIS_INTERVAL_MS))


def ticks_run_last(scenario, seed=None):
    """The pops of a sami run, checked: no event at a tick's time runs after it."""
    sim = NotePops(scenario, policy="sami", seed=seed)
    result = sim.run()
    plain = Simulation(scenario, policy="sami", seed=seed).run()
    assert result.records == plain.records
    assert result.arbitration_log == plain.arbitration_log
    popped = sim.popped
    assert any(name == "_on_analysis_tick" for _, name in popped)
    # Pops come in time order, so only the pop right after a tick can share its time.
    for (t_ms, name), (t_next, next_name) in zip(popped, popped[1:]):
        if name == "_on_analysis_tick":
            assert t_next > t_ms, (t_ms, next_name)
    return popped


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_ticks_run_last(name, seed):
    ticks_run_last(shipped(name), seed)


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_ticks_run_last_on_tied_events(case):
    scenario, arrivals, _ = case
    assume(sami_places((scenario, arrivals, "sami")))
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        ticks_run_last(scenario)


@settings(max_examples=100, deadline=None)
@given(lone_dealer_cases())
def test_ticks_run_last_around_a_lone_dealers_close(case):
    scenario, arrivals, _ = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        ticks_run_last(scenario)


def test_a_migration_end_on_a_tick_runs_before_it(monkeypatch):
    # D1 closes at 60 s. The arrival at 60.92 s moves svc-x to D2, whose
    # 1 MB copy takes 80 ms over its 100 Mbps link, so the migration ends
    # on the 61 s tick, which was pushed at 60 s, before the move. The
    # migration end still runs first and starts the request it held.
    use_arrivals(monkeypatch, [Arrival(60920.0, "u1", "svc-x")])
    scenario = tie_scenario(close_minute=1, horizon_ms=62000.0)
    popped = ticks_run_last(scenario)
    assert [name for t_ms, name in popped if t_ms == 61000.0] == [
        "_try_start",
        "_on_analysis_tick",
    ]
    [record] = Simulation(scenario).run().records
    assert (record.node_id, record.t_start) == ("D2", 61000.0)
