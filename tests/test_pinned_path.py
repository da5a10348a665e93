"""A pinned policy's request path against the three-event reference.

Under cloud-only, mno-only and dealer-only a start pushes the request's
ExecDone itself; the reference pushes a TransferDone at every start,
which pushes the ExecDone, as the arbitrated policy still does. Both
must run the same requests to the same records, log and report, ties
included: the grids put arrivals, completions and dealer hours on the
same millisecond. HeapOnlySimulation and EveryTickSimulation inherit
_try_start, so only this reference would see a pinned start go wrong.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierbroker.model import pair_cost
from tierbroker.report import report_to_dict
from tierbroker.simulation import POLICY_TIERS, Simulation

from oracles import ThreeEventSimulation
from test_event_order import grid_cases, multi_day_cases, use_arrivals
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


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("policy", PINNED)
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_pinned_runs_match_three_event_reference(name, policy, seed):
    assert_same_as_three_events(shipped(name), policy, seed)


class CountTransfers(Simulation):
    """Notes the request of each TransferDone the loop runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transferred = []

    def _on_transfer_done(self, t_ms, request):
        self.transferred.append(request.request_id)
        super()._on_transfer_done(t_ms, request)


@pytest.mark.parametrize("policy", ("sami",) + PINNED)
@pytest.mark.parametrize("name", ["dealer_hours", "latency_mix"])
def test_only_the_arbitrated_policy_runs_transfer_ends(name, policy):
    scenario = shipped(name)
    sim = CountTransfers(scenario, policy=policy)
    result = sim.run()
    nodes = {node.id: node for node in scenario.nodes}
    services = {desc.id: desc for desc in scenario.services}
    started = [r for r in result.records if r.t_start is not None]
    assert len(started) > 500
    if policy in POLICY_TIERS:
        assert sim.transferred == []
        return

    def transfer_end(r):
        node = nodes[r.node_id]
        return r.t_start + node.rtt_ms + pair_cost(services[r.service_id], node).transfer_ms

    # Once per started request whose transfer ended by the horizon.
    ended = [r.request_id for r in started if transfer_end(r) <= scenario.horizon_ms]
    assert sorted(sim.transferred) == ended
