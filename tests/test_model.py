"""Domain model rules: projections, admissibility, hours, versions."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tierbroker.errors import NonDealerNode
from tierbroker.model import (
    DAY_MS,
    SecurityClass,
    Tier,
    TrustAssessment,
    TrustBasis,
    TrustLevel,
    check_node,
    effective_level_for_security,
    is_admissible,
    is_dealer_open,
    pair_cost,
    parse_semver,
    security_ok,
    transmit_ms,
)

from conftest import T0_MIDNIGHT, T0_NOON, make_node, make_service


def test_transmit_examples():
    assert transmit_ms(1.0, 8.0) == 1000.0
    assert transmit_ms(2.0, 8.0) == 2000.0
    assert transmit_ms(1.0, 50.0) == 160.0


def test_projected_response_reference_node():
    m1 = make_node("M1", Tier.MNO, cpu_speed=4000.0, rtt_ms=50.0, bandwidth_mbps=50.0)
    svc = make_service(cpu_demand=2000.0, payload_in=0.5, payload_out=0.5)
    # 50 rtt + 160 transfer + 500 exec
    assert pair_cost(svc, m1).response_ms == 710.0


def test_payload_total():
    svc = make_service(payload_in=0.3, payload_out=0.7)
    assert svc.payload_total == 1.0


WHOLE_MINUTE_HOURS = st.integers(0, 1439).flatmap(
    lambda open_minute: st.tuples(st.just(open_minute), st.integers(open_minute + 1, 1440))
)


@given(WHOLE_MINUTE_HOURS, st.integers(0, 10**5))
def test_dealer_flips_exactly_at_calendar_events(hours, day):
    # The calendar pushes each day's events at day * DAY_MS + minute *
    # 60000.0. At that instant the dealer must read as after the event,
    # and one float step earlier as before it. The reference works in
    # whole milliseconds: open at an instant some day's [open, close)
    # holds, and just before one some day's (open, close] holds.
    open_minute, close_minute = hours
    node = make_node("D1", Tier.DEALER, 2000.0, 5.0, 100.0, open_hours=hours)
    days = (day - 1, day, day + 1)
    spans = [(d * 86_400_000 + open_minute * 60_000, d * 86_400_000 + close_minute * 60_000)
             for d in days]
    for minute in hours:
        t = day * DAY_MS + minute * 60000.0
        exact = day * 86_400_000 + minute * 60_000
        assert t == exact
        assert is_dealer_open(node, t) == any(lo <= exact < hi for lo, hi in spans)
        if t > 0:
            before = math.nextafter(t, -math.inf)
            assert is_dealer_open(node, before) == any(lo < exact <= hi for lo, hi in spans)


def test_dealer_open_half_open_interval():
    d1 = make_node("D1", Tier.DEALER, 2000.0, 5.0, 100.0, open_hours=(540, 1020))
    assert is_dealer_open(d1, 540 * 60000.0)
    assert is_dealer_open(d1, 1019 * 60000.0 + 59999.0)
    assert not is_dealer_open(d1, 1020 * 60000.0)
    assert not is_dealer_open(d1, 539 * 60000.0)


def test_dealer_open_rejects_other_tiers():
    m1 = make_node("M1", Tier.MNO, 4000.0, 50.0, 50.0)
    with pytest.raises(NonDealerNode):
        is_dealer_open(m1, T0_NOON)


def test_security_critical_only_private_mno():
    crit = make_service(security_class=SecurityClass.CRITICAL)
    mno = make_node("M1", Tier.MNO, 4000.0, 50.0, 50.0)
    mno_inet = make_node("M2", Tier.MNO, 4000.0, 50.0, 50.0, internet_path=True)
    cloud = make_node("C1", Tier.CLOUD, 8000.0, 200.0, 100.0, internet_path=True)
    dealer = make_node("D1", Tier.DEALER, 2000.0, 5.0, 100.0)
    assert security_ok(crit, mno)
    assert not security_ok(crit, mno_inet)
    assert not security_ok(crit, cloud)
    assert not security_ok(crit, dealer)


def test_security_sensitive_needs_high_trust_over_internet():
    sens = make_service(security_class=SecurityClass.SENSITIVE)
    high = make_node("C1", Tier.CLOUD, 8000.0, 200.0, 100.0, internet_path=True,
                     trust_level=TrustLevel.HIGH)
    med = make_node("C2", Tier.CLOUD, 8000.0, 200.0, 100.0, internet_path=True,
                    trust_level=TrustLevel.MEDIUM)
    offnet = make_node("M1", Tier.MNO, 4000.0, 50.0, 50.0, trust_level=TrustLevel.LOW)
    assert security_ok(sens, high)
    assert not security_ok(sens, med)
    # Without an internet path any trusted node will do.
    assert security_ok(sens, offnet)


def test_security_reputation_high_does_not_clear_sensitive():
    sens = make_service(security_class=SecurityClass.SENSITIVE)
    rep_high = make_node("C1", Tier.CLOUD, 8000.0, 200.0, 100.0, internet_path=True,
                         trust_level=TrustLevel.HIGH, trust_basis=TrustBasis.REPUTATION)
    assert not security_ok(sens, rep_high)
    assert effective_level_for_security(rep_high.trust) == TrustLevel.MEDIUM
    witnessed = TrustAssessment(TrustLevel.HIGH, TrustBasis.AGGREGATED)
    assert effective_level_for_security(witnessed) == TrustLevel.HIGH


def test_untrusted_node_never_admissible():
    svc = make_service()
    node = make_node("M1", Tier.MNO, 4000.0, 50.0, 50.0, trust_level=TrustLevel.UNTRUSTED)
    assert not security_ok(svc, node)
    assert not is_admissible(svc, node, T0_NOON)


def test_admissibility_capacity_clauses():
    node = make_node("M1", Tier.MNO, 4000.0, 50.0, 50.0,
                     mem_capacity=512.0, storage_capacity=100.0)
    assert is_admissible(make_service(), node, T0_NOON)
    assert not is_admissible(make_service(cpu_demand=4001.0), node, T0_NOON)
    assert not is_admissible(make_service(mem_demand=513.0), node, T0_NOON)
    assert not is_admissible(make_service(storage_demand=101.0), node, T0_NOON)
    # Demand exactly at capacity still fits.
    assert is_admissible(
        make_service(cpu_demand=4000.0, mem_demand=512.0, storage_demand=100.0),
        node,
        T0_NOON,
    )


def test_admissibility_respects_dealer_hours():
    d1 = make_node("D1", Tier.DEALER, 2000.0, 5.0, 100.0, open_hours=(540, 1020))
    svc = make_service()
    assert is_admissible(svc, d1, T0_NOON)
    assert not is_admissible(svc, d1, T0_MIDNIGHT)


def test_admissibility_monotone_in_trust():
    svc = make_service(security_class=SecurityClass.SENSITIVE)
    verdicts = []
    for level in (TrustLevel.UNTRUSTED, TrustLevel.LOW, TrustLevel.MEDIUM, TrustLevel.HIGH):
        node = make_node("C1", Tier.CLOUD, 8000.0, 200.0, 100.0,
                         internet_path=True, trust_level=level)
        verdicts.append(is_admissible(svc, node, T0_NOON))
    # Raising trust never turns an admissible node inadmissible.
    assert verdicts == sorted(verdicts)


def test_parse_semver_ordering():
    assert parse_semver("1.2.0") > parse_semver("1.0.0")
    assert parse_semver("2.0.0") > parse_semver("1.9.9")
    assert parse_semver("1.0.0") > parse_semver("1.0.0-rc.1")
    assert parse_semver("1.0.0-rc.2") > parse_semver("1.0.0-rc.1")
    with pytest.raises(ValueError):
        parse_semver("1.0")
    with pytest.raises(ValueError):
        parse_semver("v1.0.0")


def test_parse_semver_matches_the_whole_string():
    # A "$" anchor alone also matches before a final newline.
    with pytest.raises(ValueError):
        parse_semver("1.0.0\n")
    with pytest.raises(ValueError):
        parse_semver("1.0.0\nx")


def test_parse_semver_reads_only_ascii_digits():
    # Python's \d also matches other scripts' digits; ECMA-262's does not.
    with pytest.raises(ValueError):
        parse_semver("1\u0661.0.0")


def test_check_node_reports_all_problems():
    bad = make_node("N1", Tier.MNO, cpu_speed=0.0, rtt_ms=-1.0, bandwidth_mbps=0.0)
    problems = check_node(bad)
    assert any("cpu_speed" in p for p in problems)
    assert any("rtt_ms" in p for p in problems)
    assert any("bandwidth_mbps" in p for p in problems)


def test_check_node_dealer_needs_hours():
    d1 = make_node("D1", Tier.DEALER, 2000.0, 5.0, 100.0)
    d1.open_hours = None
    assert any("open_hours" in p for p in check_node(d1))
    d1.open_hours = (1020, 540)
    assert check_node(d1)
    d1.open_hours = (540, 1020)
    assert check_node(d1) == []


def test_check_node_mno_never_internet():
    m1 = make_node("M1", Tier.MNO, 4000.0, 50.0, 50.0, internet_path=True)
    assert any("internet" in p for p in check_node(m1))
