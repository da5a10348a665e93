"""The analysis tick runs last at its time.

At equal times arrivals run first, then the calendar, then the rest by
push sequence, then the tick, so the tick at T sees every completion,
migration end and dealer event up to and including T, whenever it was
pushed. The loop is run with every event it runs noted, arrivals and
ticks as well as heap pops, and no event at a tick's time may run after
the tick: no event any tick pushes here lands at its own time, as every
migration and every request takes time.
"""

import pytest
from hypothesis import assume, given, settings

from tierbroker.simulation import Simulation
from tierbroker.workload import Arrival

from oracles import HeapOnlySimulation
from test_event_order import (
    assert_same_order,
    grid_cases,
    hours_scenario,
    lone_dealer_cases,
    sami_places,
    tie_scenario,
    use_arrivals,
)
from test_properties import SHIPPED, shipped


class NotePops:
    """Notes (t_ms, handler name) of each event the loop runs: an
    arrival, a tick or a heap pop. A handler called from another is
    part of that event, not one of its own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.popped = []
        self.depth = 0

    def _noted(self, name, t_ms, *args):
        if not self.depth:
            self.popped.append((t_ms, name))
        self.depth += 1
        try:
            getattr(super(), name)(t_ms, *args)
        finally:
            self.depth -= 1

    def _on_arrival(self, t_ms, arrival):
        self._noted("_on_arrival", t_ms, arrival)

    def _on_analysis_tick(self, t_ms):
        self._noted("_on_analysis_tick", t_ms)

    def _on_exec_done(self, t_ms, request):
        self._noted("_on_exec_done", t_ms, request)

    def _on_dealer_open(self, t_ms, node_state):
        self._noted("_on_dealer_open", t_ms, node_state)

    def _on_dealer_close(self, t_ms, node_state):
        self._noted("_on_dealer_close", t_ms, node_state)

    def _try_start(self, t_ms, node_state):  # popped at a migration's end
        self._noted("_try_start", t_ms, node_state)


class NoteProgram(NotePops, Simulation):
    pass


class NoteHeapOnly(NotePops, HeapOnlySimulation):
    pass


def ticks_run_last(scenario, seed=None):
    """The events of a sami run, checked: no event at a tick's time runs after it."""
    sim = NoteProgram(scenario, policy="sami", seed=seed)
    result = sim.run()
    plain = Simulation(scenario, policy="sami", seed=seed).run()
    assert result.records == plain.records
    assert result.arbitration_log == plain.arbitration_log
    popped = sim.popped
    # Pops come in time order, so only the pop right after a tick can share its time.
    for (t_ms, name), (t_next, next_name) in zip(popped, popped[1:]):
        if name == "_on_analysis_tick":
            assert t_next > t_ms, (t_ms, next_name)
    return popped


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_ticks_run_last(name, seed):
    popped = ticks_run_last(shipped(name), seed)
    assert any(name == "_on_analysis_tick" for _, name in popped)


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
    # D1 closes at 60 s. The arrival at 60.92 s moves svc-x, whose window
    # holds the 30 s request's completion, to D2, and so marks it for the
    # 61 s tick; its 1 MB copy takes 80 ms over D2's 100 Mbps link, so the
    # migration ends on that tick. The migration end still runs first and
    # starts the request it held.
    use_arrivals(monkeypatch, [Arrival(30000.0, "u1", "svc-x"), Arrival(60920.0, "u1", "svc-x")])
    scenario = tie_scenario(close_minute=1, horizon_ms=62000.0)
    popped = ticks_run_last(scenario)
    assert [name for t_ms, name in popped if t_ms == 61000.0] == [
        "_try_start",
        "_on_analysis_tick",
    ]
    record = Simulation(scenario).run().records[-1]
    assert (record.node_id, record.t_start) == ("D2", 61000.0)


def test_an_arrival_a_close_an_exec_done_and_a_tick_at_one_time(monkeypatch):
    # D1 closes at 60 s. svc-y's request at 59.47 s completes on C1 at
    # 59,470 + 200 + 80 + 250 = 60,000 ms and marks svc-y for the tick at
    # 60 s, and svc-x arrives at 60 s. The arrival runs first and finds D1
    # closed, then the close, then the ExecDone, then the tick, in the
    # program as on the heap-only loop.
    use_arrivals(monkeypatch, [Arrival(59470.0, "u1", "svc-y"), Arrival(60000.0, "u1", "svc-x")])
    scenario = hours_scenario(0, 1, horizon_ms=62000.0)
    result = assert_same_order(scenario)
    order = ["_on_arrival", "_on_dealer_close", "_on_exec_done", "_on_analysis_tick"]
    for cls in (NoteProgram, NoteHeapOnly):
        sim = cls(scenario)
        assert sim.run().records == result.records
        assert [name for t_ms, name in sim.popped if t_ms == 60000.0] == order
    first, second = result.records
    assert first.t_done == second.t_arrive == 60000.0
    assert (60000.0, "reschedule", "svc-x") in result.arbitration_log
