"""Reference implementations the optimized code is checked against.

The brute-force placement oracle is written against the documented
rules only: it re-derives admissibility, projections, scoring and the
restricted-set flow from scratch so the scheduler can be checked against
an implementation that shares no code with it beyond the data types.

EventSimulation is the event loop under every policy, the reference
for the pinned queues: under a pinned policy no service is ever marked,
so no tick runs and nothing moves, and an arrival its node refuses,
unfit or closed, is rejected there, counting a security violation when
the pair fails on trust or security. Under sami it is the simulator
itself. The oracles below build on it, so each checks both the
simulator and the queues.

HeapOnlySimulation keeps the event loop in its plainest form: every
arrival of the stream, drawn or given, is pushed onto the heap, with
_on_arrival as its handler, before any other event, and under sami a
tick is pushed for every whole multiple of the interval up to the
horizon, keyed (time, TICK_SEQ) so that it runs after every other
event at its time. One loop calls the handler of whatever pops, so the
order of events at equal times is set by push sequence alone, but for
the tick, which runs last. The simulator, which merges the stream, the
heap and a tick clock that runs only while a service is marked, must
reproduce it exactly.

EveryTickSimulation keeps the analysis loop in its plainest form, on
the heap-only loop: every placed service runs both detectors on every
tick, with no memo and no skipped ticks, so the incremental loop must
reproduce it exactly.

ThreeEventSimulation keeps the request path in its plainest form: every
arrival queues its request and asks _try_start, and every start pushes
a TransferDone under every policy, which pushes the ExecDone when the
transfer ends. The simulator, whose arrival starts itself on an idle
node and whose starts push the ExecDone themselves, must reproduce it
exactly: the tick runs last at its time, so it sees a completion at
its time whichever event pushed it.

reference_rows builds a run's report rows with one pass over the
records per figure and per row, and math.fsum over each completed
sample, correctly rounded whatever the order. The simulator's one-walk
report must reproduce it exactly.

splitmix64 is the scalar generator, one state step and one finalizer
per output, and reference_workload draws the arrival stream from it one
output at a time and sorts whole tuples. The block draw and
generate_workload must reproduce them exactly.
"""

import heapq
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

from tierbroker.arbitrator import (
    analyze_computation,
    analyze_performance,
    nearer_gain,
    reschedule,
)
from tierbroker.model import (
    InvocationRecord,
    Outcome,
    SecurityClass,
    Tier,
    TrustBasis,
    TrustLevel,
    is_admissible,
    security_ok,
)
from tierbroker.report import RunRow, ServiceRow, latency_stats
from tierbroker import simulation
from tierbroker.simulation import Simulation
from tierbroker.workload import Arrival

from conftest import make_node

MASK64 = (1 << 64) - 1
# The analysis tick's push sequence on the heap-only loop: at equal times
# it runs after every other event. At most one tick is pending, so no two
# entries share a key.
TICK_SEQ = math.inf
GAMMA = 0x9E3779B97F4A7C15

_TRUST_ORDER = [TrustLevel.UNTRUSTED, TrustLevel.LOW, TrustLevel.MEDIUM, TrustLevel.HIGH]


class OracleNoNode(Exception):
    pass


def trust_rank(level):
    return _TRUST_ORDER.index(level)


def oracle_dealer_open(node, t_ms):
    """Open from open_minute to close_minute, in milliseconds of day."""
    if node.open_hours is None:
        return False
    lo, hi = node.open_hours
    return lo * 60000 <= t_ms % 86_400_000 < hi * 60000


def oracle_security_ok(service, node):
    if trust_rank(node.trust.level) == 0:
        return False
    if service.security_class is SecurityClass.CRITICAL:
        return node.tier is Tier.MNO and not node.internet_path
    if service.security_class is SecurityClass.SENSITIVE and node.internet_path:
        level = node.trust.level
        if node.trust.basis is TrustBasis.REPUTATION and trust_rank(level) > 2:
            level = TrustLevel.MEDIUM
        return trust_rank(level) >= trust_rank(TrustLevel.HIGH)
    return True


def oracle_admissible(service, node, t_ms):
    if service.cpu_demand > node.cpu_speed:
        return False
    if service.mem_demand > node.mem_capacity:
        return False
    if service.storage_demand > node.storage_capacity:
        return False
    if node.tier is Tier.DEALER and not oracle_dealer_open(node, t_ms):
        return False
    return oracle_security_ok(service, node)


def oracle_response_ms(service, node):
    size_mb = service.payload_in + service.payload_out
    transfer = size_mb * 8.0 * 1000.0 / node.bandwidth_mbps
    return node.rtt_ms + transfer + service.cpu_demand / node.cpu_speed * 1000.0


def oracle_charge(service, node):
    cpu_seconds = service.cpu_demand / node.cpu_speed
    return (
        node.tariff.base_fee
        + node.tariff.cpu_rate * cpu_seconds
        + node.tariff.data_rate * (service.payload_in + service.payload_out)
    )


def oracle_pick(pool, service, w_latency, w_cost):
    """Min-max normalized weighted blend, full deterministic tie-break."""
    responses = {n.id: oracle_response_ms(service, n) for n in pool}
    charges = {n.id: oracle_charge(service, n) for n in pool}
    r_lo, r_hi = min(responses.values()), max(responses.values())
    c_lo, c_hi = min(charges.values()), max(charges.values())

    def norm(x, lo, hi):
        if hi <= lo:
            return 0.0
        return (x - lo) / (hi - lo)

    ranked = sorted(
        pool,
        key=lambda n: (
            w_latency * norm(responses[n.id], r_lo, r_hi)
            + w_cost * norm(charges[n.id], c_lo, c_hi),
            responses[n.id],
            charges[n.id],
            n.id,
        ),
    )
    return ranked[0]


def oracle_schedule(service, nodes, w_latency, w_cost, t_ms):
    """Returns (node_id, reason string); raises OracleNoNode when stuck."""
    adm = [n for n in nodes if oracle_admissible(service, n, t_ms)]
    if not adm:
        raise OracleNoNode(service.id)
    if service.security_class is SecurityClass.CRITICAL:
        return oracle_pick(adm, service, w_latency, w_cost).id, "SecurityPin"
    if service.latency_sensitive:
        dealers = [n for n in adm if n.tier is Tier.DEALER]
        if dealers:
            return oracle_pick(dealers, service, w_latency, w_cost).id, "LatencyPreference"
    mnos = [n for n in nodes if n.tier is Tier.MNO]
    oversized = bool(mnos) and all(service.storage_demand > m.storage_capacity for m in mnos)
    if service.data_intensive or oversized:
        clouds = [n for n in adm if n.tier is Tier.CLOUD]
        if clouds:
            return oracle_pick(clouds, service, w_latency, w_cost).id, "DataIntensive"
        for tier in (Tier.DEALER, Tier.MNO, Tier.CLOUD):
            pool = [n for n in adm if n.tier is tier]
            if pool:
                return oracle_pick(pool, service, w_latency, w_cost).id, "CapacityFallback"
    return oracle_pick(adm, service, w_latency, w_cost).id, "CapacityFallback"


def grid_pools():
    """Three heterogeneous candidate nodes per tier for exhaustive sweeps."""
    dealers = [
        make_node("d0", Tier.DEALER, 1500.0, 4.0, 80.0, cpu_slots=1,
                  mem_capacity=1024.0, storage_capacity=2048.0),
        make_node("d1", Tier.DEALER, 2000.0, 7.0, 100.0, cpu_slots=2,
                  mem_capacity=2048.0, storage_capacity=4096.0,
                  trust_level=TrustLevel.MEDIUM, trust_basis=TrustBasis.AGGREGATED),
        make_node("d2", Tier.DEALER, 2500.0, 10.0, 120.0, cpu_slots=3,
                  mem_capacity=3072.0, storage_capacity=6144.0,
                  trust_level=TrustLevel.LOW, trust_basis=TrustBasis.INDIRECT),
    ]
    mnos = [
        make_node("m0", Tier.MNO, 3000.0, 45.0, 40.0, storage_capacity=8192.0),
        make_node("m1", Tier.MNO, 4000.0, 55.0, 55.0, storage_capacity=16384.0,
                  trust_level=TrustLevel.MEDIUM),
        make_node("m2", Tier.MNO, 5000.0, 65.0, 70.0, storage_capacity=24576.0,
                  trust_level=TrustLevel.UNTRUSTED),
    ]
    clouds = [
        make_node("c0", Tier.CLOUD, 6000.0, 150.0, 60.0, cpu_slots=8,
                  mem_capacity=65536.0, storage_capacity=1e6, internet_path=True),
        make_node("c1", Tier.CLOUD, 8000.0, 200.0, 100.0, cpu_slots=8,
                  mem_capacity=65536.0, storage_capacity=1e6, internet_path=True,
                  trust_basis=TrustBasis.REPUTATION),
        make_node("c2", Tier.CLOUD, 10000.0, 250.0, 140.0, cpu_slots=8,
                  mem_capacity=65536.0, storage_capacity=1e6,
                  trust_level=TrustLevel.MEDIUM, trust_basis=TrustBasis.AGGREGATED),
    ]
    return dealers, mnos, clouds


def tier_subsets(pool, max_size=None):
    limit = len(pool) if max_size is None else max_size
    out = []
    for size in range(limit + 1):
        out.extend(combinations(pool, size))
    return out


class Unmarked(set):
    """A set of marked services that stays empty: nothing is analysed."""

    def add(self, service_id):
        pass


class EventSimulation(Simulation):
    """The simulator's event loop under every policy."""

    policies = simulation.POLICIES

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.policy != "sami":  # no service is marked, so no tick runs
            self._changed = Unmarked()

    def _re_resolve(self, t_ms, state, request):
        if self.policy == "sami":
            return super()._re_resolve(t_ms, state, request)
        node = state.pair.node_state.node
        request.node_id = node.id
        request.outcome = Outcome.REJECTED
        state.tally.rejected += 1
        if not security_ok(state.desc, node):
            self.security_violations += 1
        return None

    def _finish(self, ticks):
        return super()._finish(ticks if self.policy == "sami" else 0)


class HeapOnlySimulation(EventSimulation):
    """The simulator with every arrival, and under sami every tick, on the event heap."""

    def _schedule_calendar(self):
        stream = self._stream
        if stream is None:
            # Through the module, so a test's stand-in for generate_workload is seen.
            stream = simulation.generate_workload(self.scenario.consumers, self.seed, self.horizon)
        for arrival in stream:
            self._push(arrival.t_ms, self._on_arrival, arrival)
        self._push_calendar()
        if self.policy == "sami":
            self._push_tick(simulation.ANALYSIS_INTERVAL_MS)

    def _push_tick(self, t_ms):
        if t_ms <= self.horizon:
            heapq.heappush(self._heap, (t_ms, TICK_SEQ, self._on_every_tick, None))

    def _on_every_tick(self, t_ms, _payload):
        self._on_analysis_tick(t_ms)
        # Read at call time, like the simulator, so a test may stretch the interval.
        self._push_tick(t_ms + simulation.ANALYSIS_INTERVAL_MS)

    def run(self):
        self._place_all()
        self._schedule_calendar()
        while self._heap:
            t_ms, _, handler, payload = heapq.heappop(self._heap)
            if t_ms > self.horizon:
                break
            handler(t_ms, payload)
        return self._finish(int(self.horizon // simulation.ANALYSIS_INTERVAL_MS))


class EveryTickSimulation(HeapOnlySimulation):
    """The heap-only loop with the analysis tick evaluated in full every second."""

    def _on_analysis_tick(self, t_ms):
        for service_id in sorted(self.services):
            state = self.services[service_id]
            if state.record is None:
                continue
            current = self.topology.get(state.record.placement.node_id)
            advice = analyze_performance(
                state.window,
                nearer_gain(state.desc, current, self.topology, self.thresholds, t_ms),
                self.thresholds,
            )
            if advice is None:
                expected = state.desc.cpu_demand / current.cpu_speed * 1000.0
                if expected > 0:
                    advice = analyze_computation(
                        state.window.execs,
                        expected,
                        k=self.thresholds.compute_factor,
                        m=self.thresholds.compute_run,
                    )
            if advice is None:
                continue
            decision = reschedule(state.record, advice, self.topology, self.weights, t_ms)
            if decision.node_id != state.record.placement.node_id:
                self.arbitration_log.append((t_ms, "reschedule", service_id))
                self._move(t_ms, state, decision)


class ThreeEventSimulation(EventSimulation):
    """The simulator with every arrival queued, and a TransferDone pushed by
    every start, whatever the policy."""

    def _on_arrival(self, t_ms, arrival):
        _, consumer_id, service_id = arrival
        state = self.services[service_id]
        request = InvocationRecord(len(self.records) + 1, service_id, consumer_id, None, t_ms)
        self.records.append(request)
        state.tally.invocations += 1
        if state.record is None:
            request.outcome = Outcome.REJECTED
            state.tally.rejected += 1
            return
        node_state = state.pair.node_state
        if not is_admissible(state.desc, node_state.node, t_ms):
            node_state = self._re_resolve(t_ms, state, request)
            if node_state is None:
                return
        request.node_id = node_state.node.id
        node_state.queue.append(request)
        self._try_start(t_ms, node_state)

    def _try_start(self, t_ms, node_state):
        node = node_state.node
        queue = node_state.queue
        while queue and node_state.running < node.cpu_slots:
            head = queue[0]
            state = self.services[head.service_id]
            pair = state.pairs[node.id]
            if t_ms < state.migration_until and state.pair is pair:
                break
            queue.popleft()
            node_state.running += 1
            cost = pair.cost
            head.t_start = t_ms
            self._push(t_ms + node.rtt_ms + cost.transfer_ms, self._on_transfer_done, head)

    def _on_transfer_done(self, t_ms, request):
        exec_ms = self.services[request.service_id].pairs[request.node_id].cost.exec_ms
        self._push(t_ms + exec_ms, self._on_exec_done, request)


def reference_totals(records):
    """Outcome counts, latency stats and sums; floats add up correctly rounded, in any order."""
    completed = [r for r in records if r.outcome is Outcome.COMPLETED]
    mean_ms, p95_ms = latency_stats([r.t_done - r.t_arrive for r in completed])
    return dict(
        completed=len(completed),
        rejected=sum(1 for r in records if r.outcome is Outcome.REJECTED),
        dropped=sum(1 for r in records if r.outcome is Outcome.DROPPED),
        in_flight=sum(1 for r in records if r.outcome is None),
        mean_latency_ms=mean_ms,
        p95_latency_ms=p95_ms,
        energy_j_total=math.fsum(r.energy_j for r in completed),
        charge_total=math.fsum(r.charge for r in completed),
    )


def reference_rows(sim):
    """(service rows, run row) of a finished Simulation, figure by figure.

    arbitration_events is docs/metrics.md's sum: one registration per
    placed service, one analysis per placed service per tick under sami,
    and the reschedules, each a reschedule entry of the log.
    """
    moves = Counter(sid for _, kind, sid in sim.arbitration_log if kind == "reschedule")
    by_service = {sid: [] for sid in sim.services}
    for record in sim.records:
        by_service[record.service_id].append(record)
    rows = []
    for service_id in sorted(sim.services):
        state = sim.services[service_id]
        recs = by_service[service_id]
        rows.append(ServiceRow(
            service_id=service_id,
            tier=state.record.placement.tier.value if state.record else "-",
            invocations=len(recs),
            reschedules=moves[service_id],
            **reference_totals(recs),
        ))
    placed = sum(1 for state in sim.services.values() if state.record is not None)
    # Ticks fall on every whole multiple of the interval up to the horizon.
    interval = Fraction(simulation.ANALYSIS_INTERVAL_MS)
    ticks = math.floor(Fraction(sim.horizon) / interval) if sim.policy == "sami" else 0
    reschedules = sum(moves.values())
    run_row = RunRow(
        arrivals=len(sim.records),
        **reference_totals(sim.records),
        reschedules=reschedules,
        arbitration_events=placed + ticks * placed + reschedules,
        security_violations=sim.security_violations,
        wall_ms=sim.horizon,
    )
    return rows, run_row


def splitmix64(seed):
    """The splitmix64 sequence of seed's low 64 bits.

    state advances by the 64-bit golden-gamma constant; each output is
    the finalizer z ^= z>>30 * C1, z ^= z>>27 * C2, z ^= z>>31 applied
    to the new state.
    """
    state = seed & MASK64
    while True:
        state = (state + GAMMA) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def reference_workload(consumers, seed, horizon_ms):
    """Every arrival below the horizon, one scalar draw per gap, sorted as tuples.

    Streams are indexed in sorted (consumer, service) order and each is
    seeded seed XOR stream-index. Each gap is the inverse-CDF exponential
    of the uniform ((z >> 11) + 0.5) * 2**-53 in (0, 1].
    """
    streams = []
    for consumer in sorted(consumers, key=lambda c: c.id):
        for service_id in sorted(consumer.rates):
            rate = consumer.rates[service_id]
            if rate > 0:
                streams.append((consumer.id, service_id, rate))
    arrivals = []
    for index, (consumer_id, service_id, rate) in enumerate(streams):
        t = 0.0
        for z in splitmix64(seed ^ index):
            t += -math.log(((z >> 11) + 0.5) * 2.0**-53) / rate * 1000.0
            if t >= horizon_ms:
                break
            arrivals.append(Arrival(t, consumer_id, service_id))
    arrivals.sort()  # by (t_ms, consumer_id, service_id)
    return arrivals
