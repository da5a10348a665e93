"""The run-length arbitration log against the plain list it stands for.

The simulator stores registers, reschedules and the analyses of a tick
that moved a service as entries, and quiet ticks as runs. Read back, the
log must be that list of entries in every way it is read: its length,
iteration, membership and equality.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from tierbroker.simulation import DAY_MS, ArbitrationLog, simulate_scenario
from tierbroker.workload import load_scenario

from conftest import SCENARIO_DIR

IDS = ("a", "b", "c")
INTERVALS = (1000.0, 60000.0)

# Entries share their times, kinds and ids with the runs' entries, so
# membership sees equal entries in both kinds of part.
ENTRY = st.tuples(
    st.integers(0, 4).map(lambda k: k * 1000.0),
    st.sampled_from(["register", "analysis", "reschedule"]),
    st.sampled_from(IDS),
)
RUN_IDS = st.sampled_from([(), ("a",), ("a", "b"), ("c", "a", "b")])


@st.composite
def operations(draw):
    """Appends and runs; a run drawn to follow on starts where the last run ended."""
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            ops.append(("entry", draw(ENTRY)))
        else:
            ops.append((
                "ticks",
                draw(st.booleans()),  # starts where the previous run ended
                draw(st.integers(0, 8)),  # a start tick, when it does not
                draw(st.integers(0, 4)),
                draw(RUN_IDS),
            ))
    return ops


def build(interval, ops):
    """(log, the plain list of its entries, the parts it should store)."""
    log = ArbitrationLog(interval)
    plain = []
    parts = 0
    last_run = None  # (ids, end) while the last stored part is a run
    for op in ops:
        if op[0] == "entry":
            log._append(op[1])
            plain.append(op[1])
            parts += 1
            last_run = None
            continue
        _, follow_on, start_tick, n_ticks, ids = op
        t_first = last_run[1] if follow_on and last_run else start_tick * interval
        log._append_ticks(t_first, n_ticks, ids)
        plain.extend(
            (t_first + i * interval, "analysis", service_id)
            for i in range(n_ticks)
            for service_id in ids
        )
        if n_ticks and ids:
            if last_run != (ids, t_first):
                parts += 1
            last_run = (ids, t_first + n_ticks * interval)
    return log, plain, parts


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(INTERVALS), operations(), st.data())
def test_log_reads_as_the_list_of_its_entries(interval, ops, data):
    log, plain, parts = build(interval, ops)
    assert len(log) == len(plain)
    assert log.part_count == parts
    assert list(log) == plain

    for probe in [*plain[:3], *data.draw(st.lists(ENTRY, max_size=3)), (0.0, "unknown", "a")]:
        assert (probe in log) == (probe in plain)

    # Equality both ways, against the list and against another log.
    same, _, _ = build(interval, ops)
    assert log == plain and plain == log
    assert not (log != plain) and not (plain != log)
    assert log == same and same == log and not (log != same)
    flat = ArbitrationLog(interval)
    for entry in plain:
        flat._append(entry)
    assert log == flat and flat == log
    longer = [*plain, (0.0, "register", "a")]
    assert log != longer and longer != log
    assert not (log == longer)
    if plain:
        changed = [*plain[:-1], (plain[-1][0] + 1.0, *plain[-1][1:])]
        assert log != changed and changed != log
    assert log != tuple(plain)  # a list of entries, like the list it replaces


def test_quiet_ticks_are_stored_as_runs():
    # A week of dealer_hours logs over 600,000 analyses of one service.
    # Stored per tick, that is a part each; as runs, a tick that moved
    # nothing costs no part of its own.
    scenario = load_scenario(str(SCENARIO_DIR / "dealer_hours.json"))
    scenario = dataclasses.replace(scenario, horizon_ms=7 * DAY_MS)
    result = simulate_scenario(scenario)
    log = result.arbitration_log
    assert len(log) == result.report.run.arbitration_events
    registers = sum(1 for _, kind, _ in log if kind == "register")
    reschedules = [t for t, kind, _ in log if kind == "reschedule"]
    ticks = {t for t, kind, _ in log if kind == "analysis"}
    assert len(ticks) == 7 * 86400
    moved_ticks = len(ticks.intersection(reschedules))
    assert moved_ticks > 0
    # Each register, reschedule and analysis on a tick that moved a
    # service is one part; every run ends at one of those or at the end.
    explicit = registers + len(reschedules) + moved_ticks * len(scenario.services)
    assert log.part_count <= explicit + (explicit + 1)
