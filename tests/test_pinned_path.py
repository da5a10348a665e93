"""The one request path against the three-event reference.

Under every policy a start pushes the request's ExecDone itself; the
reference pushes a TransferDone at every start, which pushes the
ExecDone. Both must run the same requests to the same records, log and
report, ties included: the grids put arrivals, completions and dealer
hours on the same millisecond, and under sami the tick, which runs last
at its time, sees a completion at its time whichever event pushed it.
HeapOnlySimulation and EveryTickSimulation inherit _try_start, so only
this reference would see a start go wrong.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tierbroker.report import report_to_dict
from tierbroker.simulation import POLICY_TIERS, Simulation

from oracles import ThreeEventSimulation
from test_event_order import grid_cases, multi_day_cases, sami_places, use_arrivals
from test_properties import SHIPPED, shipped

PINNED = tuple(sorted(POLICY_TIERS))


def assert_same_as_three_events(scenario, policy, seed=None):
    result = Simulation(scenario, policy=policy, seed=seed).run()
    reference = ThreeEventSimulation(scenario, policy=policy, seed=seed).run()
    assert result.records == reference.records
    assert result.arbitration_log == reference.arbitration_log
    assert report_to_dict(result.report) == report_to_dict(reference.report)


@settings(max_examples=150, deadline=None)
@given(grid_cases(), st.sampled_from(PINNED))
def test_pinned_runs_match_three_event_reference_on_tied_events(case, policy):
    scenario, arrivals, _ = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_as_three_events(scenario, policy)


@settings(max_examples=100, deadline=None)
@given(multi_day_cases(), st.sampled_from(PINNED))
def test_pinned_runs_match_three_event_reference_over_dealer_days(case, policy):
    scenario, arrivals, _ = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_as_three_events(scenario, policy)


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_sami_runs_match_three_event_reference_on_tied_events(case):
    scenario, arrivals, _ = case
    assume(sami_places((scenario, arrivals, "sami")))
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_same_as_three_events(scenario, "sami")


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("policy", PINNED)
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_pinned_runs_match_three_event_reference(name, policy, seed):
    assert_same_as_three_events(shipped(name), policy, seed)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_sami_runs_match_three_event_reference(name, seed):
    assert_same_as_three_events(shipped(name), "sami", seed)
