"""Properties of every run: request conservation and byte-stable outputs.

The scenarios come from the strategies that drive the reference-loop
tests, under every policy.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierbroker import simulation
from tierbroker.model import Topology
from tierbroker.registry import Registry
from tierbroker.report import write_metrics_csv, write_metrics_json
from tierbroker.simulation import POLICIES, Simulation

from test_event_order import grid_cases, use_arrivals
from test_incremental import incremental_cases


def run_policy(scenario, policy):
    # Topology, not build_topology: the strategies include dealer hours
    # that node validation would refuse (open >= close).
    topology = Topology(scenario.nodes)
    registry = Registry(topology, scenario.vocabulary, scenario.weights)
    return Simulation(topology, registry, scenario, policy=policy).run()


def assert_conserved(report):
    for row in report.services:
        assert row.invocations == row.completed + row.rejected + row.dropped + row.in_flight
    run = report.run
    assert run.arrivals == run.completed + run.rejected + run.dropped + run.in_flight
    assert run.arrivals == sum(row.invocations for row in report.services)


@settings(max_examples=60, deadline=None)
@given(incremental_cases(), st.sampled_from(POLICIES))
def test_requests_are_conserved(case, policy):
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        assert_conserved(run_policy(scenario, policy).report)


@settings(max_examples=60, deadline=None)
@given(grid_cases())
def test_requests_are_conserved_on_tied_events(case):
    scenario, arrivals, policy = case
    with pytest.MonkeyPatch.context() as mp:
        use_arrivals(mp, arrivals)
        assert_conserved(run_policy(scenario, policy).report)


def metrics_bytes(scenario, policy, out_dir):
    report = run_policy(scenario, policy).report
    csv_path = os.path.join(out_dir, "metrics.csv")
    json_path = os.path.join(out_dir, "metrics.json")
    write_metrics_csv(report, csv_path)
    write_metrics_json(report, json_path)
    with open(csv_path, "rb") as csv_fh, open(json_path, "rb") as json_fh:
        return csv_fh.read(), json_fh.read()


@settings(max_examples=40, deadline=None)
@given(incremental_cases(), st.sampled_from(POLICIES))
def test_same_seed_writes_same_bytes(case, policy):
    interval, scenario = case
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(simulation, "ANALYSIS_INTERVAL_MS", interval)
        first = metrics_bytes(scenario, policy, out)
        second = metrics_bytes(scenario, policy, out)
    assert first == second
