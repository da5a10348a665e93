"""Deterministic simulation of the offload fabric, one policy per run.

The arbitrated policy, sami, runs as a discrete-event simulation
(Simulation). One loop merges three sources in time order: the arrival
stream, a heap of every other event and the analysis tick's clock. The
arrival stream is drawn by generate_workload right before the first
event, unless the caller gives one already drawn: compare draws it
once, in its first run, and runs the other policies over the same
stream, rebuilt from that run's records (SimResult.arrivals). Either
way the run walks a reversed copy, so a given stream is only read, and
a drawn one is held by nothing else: each arrival is freed once
handled. The heap holds (time, push sequence, handler, payload) tuples,
and the loop calls handler(time, payload) as each pops; a recurring
event pushes its successor. A dealer with hours reserves a sequence, in
node order, before any other push; its opening pushes its close and its
close the next opening at it, so it has one event pending whatever the
horizon. Ties are resolved alike on every run: arrivals first, in list
order, as the next arrival runs while it is no later than the heap's
first event; then the calendar, in node order, then the rest by push
sequence; then the analysis tick, last, as it runs only while it is
earlier than both. So an arrival at a dealer's close runs before the
close does and the tick at T sees every completion up to T. Each
node serves its queue in FIFO order across cpu_slots parallel slots; a
request occupies a slot from start until execution completes. Dealers
reject whatever is still queued when they close; the next arrival of an
affected service gets re-placed, so a closed dealer's queue stays empty.
Both runs refuse every node check_node refuses, which holds dealer
hours to whole minutes: is_dealer_open then flips exactly at the
calendar's events, day * DAY_MS + minute * 60000.0 to the bit (whole
numbers below 2**53 add exactly), and nowhere else. So a dealer's
openness is node state, the interval [open_from, open_until) of its
current or next day's hours: _open_first_day sets the first day's, and
only a close moves it on, by _NodeState.next_day. An arrival at a close
runs before it, so it still sees that day's interval and reads closed
at open_until: two compares equal is_dealer_open at every arrival,
boundaries included. Every other node, a round-the-clock dealer too,
is open over (-inf, inf). An analysis tick falls on every whole second
and runs the delay-pressure and compute-shortfall detectors, while a
service is marked for them (below).

A start fixes its completion time, ((start + rtt) + transfer) + exec,
and pushes its ExecDone there. So completions at the same time run in
the order their requests started.

The pinned baselines, cloud-only, mno-only and dealer-only, run as a
FIFO queue per node, with no events (PinnedQueues). That is exact
because nothing moves under them: no tick runs, nothing is re-placed,
and every request of a service goes to the node it was registered on,
at that pair's fixed costs. So nodes share nothing, and each serves the
requests it admits in arrival order over its cpu_slots slots. Read in
stream order, a request starts at the later of its arrival and its
node's earliest slot-free time, a heap of its slots' completion times,
when the event loop would start it: a slot that frees at an arrival's
time frees after it, as arrivals run first, and the completion then
starts it at that same time. It completes at the same float sum. A
dealer's openness is the same interval, moved on by next_day as its
close moves it. The close runs after the arrivals at its time and
before every completion there, so it rejects a request that would start
at or after it, if it falls within the horizon; a request that would
start or complete past the horizon is in flight. Completions at one
time settle in another order than the event loop's, which no output
reads: the report sums with math.fsum and sorts for its p95.
tests/oracles.py keeps the event loop under every policy as the
queues' reference. Both runners build on _Run; neither on the other.

The analysis loop is incremental but exact. A verdict depends only on
the service's node, which dealers are open and its window. Each service
keeps two answers from its last analysis: nearer_gain's (nearer: the
nearest tier with a worthwhile gain and that gain, or False for none),
and whether the compute check advised (advising). nearer_gain reads no
window, so its answer stands until the service moves or a dealer opens
or closes. Each of those forgets nearer (_forget), and a dealer's event
at a tick's time runs before the tick, as ticks run last. So an
analysis runs nearer_gain only when nearer is forgotten, and
analyze_performance reads the answer kept. advising is read only while
nearer is False, which _analyze sets only together with advising.
A tick looks only at the services marked since the tick before:
forgotten, or completing a request that could change their verdict. A
service nothing has completed for is never analysed, as neither detector
advises on an empty window. While nearer is unknown or names a tier,
every completion marks its service. With no node nearer, only the
compute check can advise, on the last compute_run execution times
against the current node's. A time within the factor silences it, so it
marks nothing and clears advising. An overrun marks the service unless
advising is set: then the last compute_run times all still overrun, so
the check still advises, and reschedule, which reads the time only
through dealer hours, makes the choice that kept the service in place.
So a tick runs only while a service is marked, as a tick that finds
none analyses nothing. The event that marks a service while none is
sets the clock to the first whole multiple of the interval at or after
its time (_first_tick), and a tick that leaves a service marked, which
is when it moved one (a move marks the mover, whose window is not
empty), keeps it at the next multiple; one that leaves none stops it.
The tick runs last at its time, as the every-tick loop's would, so
event order is unchanged. Under the event loop each service holds its
ServiceWindow from placement on, so a completion feeds it with one
collect_context call and no lookup, and the detectors and _forget read
it there. The pinned queues feed no window and build none.

The arbitration log records decisions: a (t_ms, kind, service id)
entry for each register and each reschedule, so it grows with what
happened, not with the horizon. It is their one record: a service's
reschedules are its reschedule entries, the run's are all of them, and
the placed services are those with a register entry. The analyses
are counted, not logged: every whole multiple of the interval up to
the horizon counts one per placed service, whether or not its tick ran
or the detectors did, so arbitration_events adds floor(horizon /
interval) times the placed services to the log's length under the
arbitrated policy, and nothing under a pinned one.

What is fixed for a (service, node) pair is one _Pair, built by _pair
the first time the service is placed on the node: the node's
_NodeState, pair_cost's transfer and execution times, compute_charge's
charge before rebate (the charge score_pool weighs, as placement reads
the same definitions), whether the service fits the node at all hours
and the energy of a request that waits for nothing. A request's
InvocationRecord, made by _arrive alone, holds what the run decided for
it: arrival, node, start, completion, outcome, energy and charge. Its
transfer and execution times are its pair's on the record's node, and
its wait is t_start - t_arrive. Its energy_j is transmit power over its
transfer and idle power over its wait. A request that starts on arrival
holds its pair's, energy_j at a zero wait, so the float is shared, not
made per request; one that waited computes its own. The SLO rebate
reads its own latency, per request.

Each placed service keeps the pair of its placement, set at placement
and by _move, the only place a placement changes, so an arrival
reaches its queue, and a tick its node, without a lookup. An arrival
that finds its node's queue empty, a slot free and its copy not
migrating there starts at once, as _try_start would start it; any
other queues. _try_start is asked only when it can start something: by
an arrival that queued while a slot is free, by a completion while the
queue holds a request, by a migration's end, and by a move, on the
node left while the copy there was still migrating: the requests it
held there may start at once.
Each request feeds its service's _Tally as it settles: invocations
and rejections at arrival, a drop at re-placement, a rejection at a
dealer's close and a completion's latency, energy and charge at its
ExecDone. What is still in flight at the horizon is the remainder,
invocations - completed - rejected - dropped. The run row reads every
service's tally. Its mean and sums are math.fsum and its p95 reads a
sorted copy, so no order is needed for them.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from itertools import chain
from typing import NamedTuple

from .arbitrator import (
    SchedulerWeights,
    ServiceWindow,
    analyze_computation,
    analyze_performance,
    collect_context,
    decide_among,
    migration_delay_ms,
    nearer_gain,
    reschedule,
    schedule_service,
)
from .billing import apply_slo_rebate, compute_charge
from .errors import ConfigError, NoAdmissibleNode
from .model import (
    DAY_MS,
    EnergyModel,
    InvocationRecord,
    Outcome,
    PairCost,
    PlacementReason,
    ResourceNode,
    ServiceDescriptor,
    Tier,
    Topology,
    check_node,
    fits,
    is_admissible,
    pair_cost,
    security_ok,
)
from .registry import Registry, ServiceRecord
from .report import MetricsReport, RunRow, ServiceRow, latency_stats
from .workload import Arrival, Scenario, generate_workload

log = logging.getLogger(__name__)

ANALYSIS_INTERVAL_MS = 1000.0

POLICY_TIERS = {
    "cloud-only": Tier.CLOUD,
    "mno-only": Tier.MNO,
    "dealer-only": Tier.DEALER,
}
POLICIES = ("sami",) + tuple(sorted(POLICY_TIERS))


def _first_tick(t_ms: float, interval: float) -> float:
    """The first tick at or after t_ms: the least whole multiple of the
    interval, from the interval itself on, not below t_ms.

    Below 2**53 the multiples of a whole interval are whole numbers, so
    k * interval and its compare with t_ms are exact. The quotient is
    rounded, but never above its exact value's ceiling, a whole number
    and so a float; and never below the whole number under that, for
    the same reason. So its ceiling is the count, or one less when it
    rounds down onto a whole number, and then k * interval falls below
    t_ms and k steps up.
    """
    k = max(1, math.ceil(t_ms / interval))
    if k * interval < t_ms:
        k += 1
    return k * interval


def energy_j(transfer_ms: float, wait_ms: float, model: EnergyModel) -> float:
    """Mobile-side energy: radio active while transmitting, idle while waiting."""
    return model.p_tx_w * (transfer_ms / 1000.0) + model.p_idle_w * (wait_ms / 1000.0)


@dataclass
class _NodeState:
    node: ResourceNode
    running: int = 0
    queue: deque = field(default_factory=deque)
    calendar_seq: int = 0  # a dealer's reserved push sequence, when it keeps hours
    # Open at t_ms when open_from <= t_ms < open_until: the current or next
    # day's hours of a dealer that keeps them, all time for any other node.
    open_from: float = -math.inf
    open_until: float = math.inf

    def next_day(self):
        """Move the open interval on to the next day's hours, at a close."""
        open_minute, close_minute = self.node.open_hours
        self.open_until += DAY_MS
        self.open_from = self.open_until - (close_minute - open_minute) * 60000.0


class _Pair(NamedTuple):
    """What is fixed for one service on one node."""

    node_state: _NodeState
    cost: PairCost
    charge: float  # before rebate
    fits: bool  # the half of is_admissible that holds at all hours
    energy_j: float  # a request's that starts on arrival, shared by every such record


@dataclass(slots=True)
class _Tally:
    """A service's arrivals, its settled requests by outcome and its completed samples.

    A request is counted when it arrives and again when it settles;
    in_flight, the requests not settled by the horizon, is the remainder.
    The energy and charge lists hold the record's floats, its pair's
    energy for a request that started on arrival. A latency is kept as
    a double: float objects made during the run cannot reuse the memory
    the handled arrivals free, and raised peak RSS by about 4% on a
    100-service fleet.
    """

    invocations: int = 0
    rejected: int = 0
    dropped: int = 0
    latencies: array = field(default_factory=lambda: array("d"))
    energy: list[float] = field(default_factory=list)
    charge: list[float] = field(default_factory=list)


def _totals(tallies: list[_Tally]) -> dict:
    """The counts, latency stats and sums of the tallies' requests together.

    The mean and the sums are correctly rounded and the p95 reads a
    sorted copy, so no order is needed. Only the latencies are gathered
    into one list, of floats made here at the end of the run; the sums
    read each tally's list in place.
    """
    latencies = list(chain.from_iterable(tally.latencies for tally in tallies))
    completed = len(latencies)
    rejected = sum(tally.rejected for tally in tallies)
    dropped = sum(tally.dropped for tally in tallies)
    invocations = sum(tally.invocations for tally in tallies)
    mean_ms, p95_ms = latency_stats(latencies)
    return dict(
        completed=completed,
        rejected=rejected,
        dropped=dropped,
        in_flight=invocations - completed - rejected - dropped,
        mean_latency_ms=mean_ms,
        p95_latency_ms=p95_ms,
        energy_j_total=math.fsum(chain.from_iterable(tally.energy for tally in tallies)),
        charge_total=math.fsum(chain.from_iterable(tally.charge for tally in tallies)),
    )


@dataclass
class _ServiceState:
    desc: ServiceDescriptor
    record: ServiceRecord | None
    window: ServiceWindow | None = None  # its analysis window, where an event loop feeds it
    pair: _Pair | None = None  # on the placement's node, while placed
    pairs: dict[str, _Pair] = field(default_factory=dict)  # by node id
    migration_until: float = 0.0
    # nearer_gain's answer at the last analysis, False for its None; None
    # from a move or a dealer event until next analysed.
    nearer: tuple[Tier, float] | bool | None = None
    # The compute check advised at the last analysis, and every completion
    # since overran by the factor; read only while nearer is False.
    advising: bool = False
    tally: _Tally = field(default_factory=_Tally)  # its requests, as they settle


@dataclass
class SimResult:
    report: MetricsReport
    records: list[InvocationRecord]
    arbitration_log: list[tuple[float, str, str]]  # (t_ms, kind, service id)

    def arrivals(self) -> list[Arrival]:
        """The arrival stream the run handled, rebuilt from its records.

        Every arrival up to the horizon made one record, in stream order;
        a stream cut there runs every event up to the horizon as the full
        one does.
        """
        new = tuple.__new__  # Arrival's fields without NamedTuple's keyword-taking __new__
        return [new(Arrival, (r.t_arrive, r.consumer_id, r.service_id)) for r in self.records]


class _Run:
    """What both runners share: one policy's run over one scenario.

    The scenario's nodes make the topology, and its services register
    with a registry of its vocabulary and weights. The run draws its
    arrivals from the seed, unless given a stream already drawn, which
    it only reads. Each runner names the policies it runs and refuses
    any other. A request's record is made in _arrive and settled as
    completed in _complete, for both.
    """

    def __init__(
        self,
        scenario: Scenario,
        policy: str = "sami",
        seed: int | None = None,
        arrivals: list[Arrival] | None = None,
    ):
        topology = Topology(scenario.nodes)
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}; choose from {', '.join(POLICIES)}")
        if policy not in self.policies:
            raise ConfigError(
                f"{type(self).__name__} runs {', '.join(self.policies)}, not {policy!r};"
                " simulate_scenario runs every policy"
            )
        problems = [problem for node in topology for problem in check_node(node)]
        if problems:
            raise ConfigError("; ".join(problems))
        self.topology = topology
        self.registry = Registry(vocabulary=scenario.vocabulary, weights=scenario.weights)
        self.scenario = scenario
        self.policy = policy
        self.seed = scenario.seed if seed is None else seed
        self.horizon = scenario.horizon_ms
        self.weights: SchedulerWeights = scenario.weights
        self.thresholds = scenario.thresholds
        self.energy_model = scenario.energy

        self._stream = arrivals  # given, in time order; None to draw it
        self.records: list[InvocationRecord] = []
        self.arbitration_log: list[tuple[float, str, str]] = []
        self.security_violations = 0
        self.services: dict[str, _ServiceState] = {}
        self.node_states = {n.id: _NodeState(node=n) for n in topology}

    # ------------------------------------------------------------------
    # setup

    def _place_all(self):
        for desc in sorted(self.scenario.services, key=lambda s: s.id):
            if self.policy in POLICY_TIERS:
                record = self._register_pinned(desc)
            else:
                record = self.registry.register_service(desc, self.topology, 0.0)
            state = _ServiceState(desc=desc, record=record)
            self.services[desc.id] = state
            if record is not None:
                state.pair = self._pair(state, record.placement.node_id)
                self.arbitration_log.append((0.0, "register", desc.id))

    def _register_pinned(self, desc: ServiceDescriptor) -> ServiceRecord | None:
        """Baseline policies: best node of one tier, or nothing at all.

        Admissibility narrows the pool when it can; when the whole tier
        refuses the service it is pinned anyway and every request will
        bounce off the admissibility check at arrival time.
        """
        tier = POLICY_TIERS[self.policy]
        pool = self.topology.by_tier(tier)
        if not pool:
            log.warning("policy %s: no %s nodes; service %s stays unplaced",
                        self.policy, tier.value, desc.id)
            return None
        admissible = [n for n in pool if is_admissible(desc, n, 0.0)]
        decision = decide_among(
            admissible or pool, desc, self.weights, PlacementReason.CAPACITY_FALLBACK, 0.0
        )
        return self.registry.register_service(desc, self.topology, 0.0, placement=decision)

    def _reversed_stream(self) -> list[Arrival]:
        """The stream, drawn or given, latest first.

        A reversed copy, so each arrival is popped from the end as it is
        handled, and the stream itself is only read. Nothing keeps a drawn
        stream, so each of its arrivals is freed once handled.
        """
        stream = self._stream
        if stream is None:
            stream = generate_workload(self.scenario.consumers, self.seed, self.horizon)
        return stream[::-1]

    def _open_first_day(self) -> list[_NodeState]:
        """Open each dealer that keeps hours over its first day's, until
        their close moves them on; returns their states, in node order."""
        dealers = []
        for node in self.topology.by_tier(Tier.DEALER):
            if node.open_hours == (0, 1440):  # open round the clock: never opens or closes
                continue
            node_state = self.node_states[node.id]
            open_minute, close_minute = node.open_hours
            node_state.open_from = open_minute * 60000.0
            node_state.open_until = close_minute * 60000.0
            dealers.append(node_state)
        return dealers

    def _arrive(self, t_ms: float, arrival: Arrival) -> InvocationRecord | None:
        """Record and count the arrival; None when its service is unplaced, which refuses it."""
        _, consumer_id, service_id = arrival
        state = self.services[service_id]
        request = InvocationRecord(len(self.records) + 1, service_id, consumer_id, None, t_ms)
        self.records.append(request)
        state.tally.invocations += 1
        if state.record is None:
            request.outcome = Outcome.REJECTED
            state.tally.rejected += 1
            return None
        return request

    def _pair(self, state: _ServiceState, node_id: str) -> _Pair:
        """The service's pair on the node, built on first use."""
        pair = state.pairs.get(node_id)
        if pair is None:
            node_state = self.node_states[node_id]
            desc, node = state.desc, node_state.node
            cost = pair_cost(desc, node)
            pair = state.pairs[node_id] = _Pair(
                node_state,
                cost,
                compute_charge(desc, node),
                fits(desc, node),
                energy_j(cost.transfer_ms, 0.0, self.energy_model),
            )
        return pair

    def _complete(self, t_ms: float, request: InvocationRecord, state: _ServiceState,
                  pair: _Pair) -> float:
        """Settle a request completing at t_ms on its pair's node, in its
        record and its service's tally; returns its latency.

        A request that started on arrival takes its pair's energy, the
        same expression at a zero wait, so its record and tally hold the
        pair's float and make none; only one that waited computes its own.
        """
        request.t_done = t_ms
        request.outcome = Outcome.COMPLETED
        wait_ms = request.t_start - request.t_arrive
        if wait_ms:
            energy = energy_j(pair.cost.transfer_ms, wait_ms, self.energy_model)
        else:
            energy = pair.energy_j
        request.energy_j = energy
        latency_ms = t_ms - request.t_arrive
        request.charge = charge = apply_slo_rebate(
            pair.charge,
            pair.node_state.node.qos,
            latency_ms,
            state.desc.sla_latency_ms,
            self.scenario.rebate_frac,
        )
        tally = state.tally
        tally.latencies.append(latency_ms)
        tally.energy.append(energy)
        tally.charge.append(charge)
        return latency_ms

    # ------------------------------------------------------------------
    # reporting

    def _finish(self, ticks: int) -> SimResult:
        """The report, from the services' tallies, each fed as its requests settled.

        No record is read; the run row reads every service's tally.
        docs/metrics.md counts an analysis per placed service at each of
        the run's ticks.
        """
        # Placements and moves are counted from the log, their one record.
        logged = Counter((kind, service_id) for _, kind, service_id in self.arbitration_log)
        rows = []
        for service_id in sorted(self.services):
            state = self.services[service_id]
            rows.append(
                ServiceRow(
                    service_id=service_id,
                    tier=state.record.placement.tier.value if state.record else "-",
                    invocations=state.tally.invocations,
                    reschedules=logged["reschedule", service_id],
                    **_totals([state.tally]),
                )
            )
        tallies = [state.tally for state in self.services.values()]
        placed = sum(logged["register", service_id] for service_id in self.services)
        run_row = RunRow(
            arrivals=sum(tally.invocations for tally in tallies),
            **_totals(tallies),
            reschedules=sum(row.reschedules for row in rows),
            arbitration_events=len(self.arbitration_log) + ticks * placed,
            security_violations=self.security_violations,
            wall_ms=self.horizon,
        )
        report = MetricsReport(
            policy=self.policy, seed=self.seed, services=rows, run=run_row
        )
        return SimResult(
            report=report, records=self.records, arbitration_log=self.arbitration_log
        )


class Simulation(_Run):
    """The arbitrated run, as events. A pinned policy is refused: PinnedQueues
    runs it, and a subclass overriding a handler would check nothing there."""

    policies = ("sami",)  # those the runner runs

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._heap: list[tuple[float, float, Callable, object]] = []
        self._arrivals: list[Arrival] = []  # those not yet handled, latest first
        self._seq = 0
        # Services the next tick analyses: moved or forgotten since the last
        # tick, or completing a request that could change their verdict.
        self._changed: set[str] = set()

    def _place_all(self):
        """Place every service, each with the analysis window its completions feed."""
        super()._place_all()
        size = self.thresholds.window
        for service_id, state in self.services.items():
            state.window = ServiceWindow(service_id, size)

    def _push(self, t_ms: float, handler: Callable, payload=None):
        # No two entries share (time, sequence), so handler and payload are never compared.
        # _on_arrival and _try_start push the same way, inline.
        self._seq += 1
        heappush(self._heap, (t_ms, self._seq, handler, payload))

    def _push_dealer(self, t_ms: float, handler: Callable, node_state: _NodeState):
        """Push a dealer's next opening or close at its reserved sequence, up to the horizon."""
        if t_ms <= self.horizon:
            heappush(self._heap, (t_ms, node_state.calendar_seq, handler, node_state))

    def _schedule_calendar(self):
        self._arrivals = self._reversed_stream()
        self._push_calendar()

    def _push_calendar(self):
        """Push each dealer's first opening or close, before all else."""
        for node_state in self._open_first_day():
            self._seq += 1
            node_state.calendar_seq = self._seq
            open_minute, close_minute = node_state.node.open_hours
            # Its first event after 0 ms: the opening, or the close when it opens at 0 ms.
            first = self._on_dealer_open if open_minute else self._on_dealer_close
            self._push_dealer((open_minute or close_minute) * 60000.0, first, node_state)

    # ------------------------------------------------------------------
    # event handlers

    def run(self) -> SimResult:
        """Run the arrivals, the heap's events and the ticks up to the horizon, merged."""
        self._place_all()
        self._schedule_calendar()
        heap = self._heap
        arrivals = self._arrivals
        changed = self._changed
        horizon = self.horizon
        interval = ANALYSIS_INTERVAL_MS
        on_arrival = self._on_arrival
        on_tick = self._on_analysis_tick
        pop = heappop
        inf = math.inf
        t_tick = inf  # the next tick while a service is marked
        while True:
            t_ms = heap[0][0] if heap else inf
            if arrivals and arrivals[-1][0] <= t_ms:  # an arrival runs first at its time
                t_ms = arrivals[-1][0]
                if t_tick < t_ms:
                    t_ms = t_tick
                elif t_ms <= horizon:
                    on_arrival(t_ms, arrivals.pop())
                    if changed and t_tick == inf:
                        t_tick = _first_tick(t_ms, interval)
                    continue
            elif t_tick < t_ms:  # a tick runs last at its time
                t_ms = t_tick
            elif t_ms <= horizon:
                _, _, handler, payload = pop(heap)
                handler(t_ms, payload)
                if changed and t_tick == inf:
                    t_tick = _first_tick(t_ms, interval)
                continue
            if t_ms > horizon:
                break
            on_tick(t_ms)
            t_tick = t_ms + interval if changed else inf
        # What is left is past the horizon. Its handlers are bound methods, so it
        # would hold this simulation in a reference cycle until the next full collection.
        heap.clear()
        # A tick falls on each whole multiple of the interval up to the horizon.
        return self._finish(int(horizon // interval))

    def _on_arrival(self, t_ms: float, arrival: Arrival):
        request = self._arrive(t_ms, arrival)
        if request is None:
            return
        state = self.services[request.service_id]
        pair = state.pair
        node_state = pair.node_state
        # is_admissible: the half that holds at all hours read from the pair,
        # and a dealer's hours from its node state.
        if not (pair.fits and node_state.open_from <= t_ms < node_state.open_until):
            node_state = self._re_resolve(t_ms, state, request)
            if node_state is None:
                return
            pair = state.pair
        node = node_state.node
        request.node_id = node.id
        queue = node_state.queue
        if node_state.running >= node.cpu_slots:
            queue.append(request)
        elif queue or t_ms < state.migration_until:
            # In FIFO order behind the queue, or held for its copy; the head
            # may start now, its copy arriving at this very time.
            queue.append(request)
            self._try_start(t_ms, node_state)
        else:  # it starts at once, as _try_start would start it
            node_state.running += 1
            cost = pair.cost
            request.t_start = t_ms
            self._seq = seq = self._seq + 1
            t_done = t_ms + node.rtt_ms + cost.transfer_ms + cost.exec_ms
            heappush(self._heap, (t_done, seq, self._on_exec_done, request))

    def _re_resolve(self, t_ms, state: _ServiceState, request: InvocationRecord):
        """Current node refuses the service (dealer closed, say): place anew.

        Returns the new placement's node state, or None when no node admits it.
        """
        try:
            decision = schedule_service(state.desc, self.topology, self.weights, t_ms)
        except NoAdmissibleNode:
            request.outcome = Outcome.DROPPED
            state.tally.dropped += 1
            return None
        if decision.node_id != state.record.placement.node_id:
            self.arbitration_log.append((t_ms, "reschedule", state.desc.id))
            self._move(t_ms, state, decision)
        return state.pair.node_state

    def _move(self, t_ms, state: _ServiceState, decision):
        """Place the service anew, unlogged; the next tick analyses it again.

        Requests queued on the node left were held while the copy there was
        still migrating; the hold reads only the current placement, so they
        are free to start now.
        """
        left = state.pair.node_state
        state.record.placement = decision
        state.pair = pair = self._pair(state, decision.node_id)
        node_state = pair.node_state
        self._forget(state)
        held = t_ms < state.migration_until
        done = state.migration_until = t_ms + migration_delay_ms(state.desc, node_state.node)
        if done <= self.horizon:
            self._push(done, self._try_start, node_state)
        if held and left.queue:
            self._try_start(t_ms, left)

    def _forget(self, *states: _ServiceState):
        """Drop what the last analyses found; the next tick analyses these services anew.

        A service nothing has completed for, an unplaced one among them,
        is left unmarked: neither detector advises on an empty window,
        and its first completion marks it, its nearer being None.
        """
        for state in states:
            state.nearer = None
            if state.window.times:
                self._changed.add(state.desc.id)

    def _try_start(self, t_ms: float, node_state: _NodeState):
        """Start queued requests in FIFO order while a slot is free, and
        push each one's ExecDone.

        A dealer needs no asking: its queue is empty while it is closed.
        """
        node = node_state.node
        queue = node_state.queue
        services = self.services
        heap = self._heap
        on_exec_done = self._on_exec_done
        while queue and node_state.running < node.cpu_slots:
            head: InvocationRecord = queue[0]
            state = services[head.service_id]
            pair = state.pairs[node.id]
            if t_ms < state.migration_until and state.pair is pair:
                # Copy still transferring here; the queue holds (FIFO preserved).
                break
            queue.popleft()
            node_state.running += 1
            cost = pair.cost
            head.t_start = t_ms
            self._seq = seq = self._seq + 1
            t_done = t_ms + node.rtt_ms + cost.transfer_ms + cost.exec_ms
            heappush(heap, (t_done, seq, on_exec_done, head))

    def _on_exec_done(self, t_ms: float, request: InvocationRecord):
        state = self.services[request.service_id]
        pair = state.pairs[request.node_id]
        cost = pair.cost
        node_state = pair.node_state
        node_state.running -= 1
        latency_ms = self._complete(t_ms, request, state, pair)
        collect_context(state.window, t_ms, latency_ms, cost.exec_ms)
        # With no nearer node only the compute check can advise. A time
        # within the factor silences it; an overrun after it advised
        # leaves it advising, on the same choice.
        if state.nearer is not False:
            self._changed.add(request.service_id)
        elif cost.exec_ms > self.thresholds.compute_factor * state.pair.cost.exec_ms:
            if not state.advising:
                self._changed.add(request.service_id)
        else:
            state.advising = False
        if node_state.queue:  # else _try_start would start nothing
            self._try_start(t_ms, node_state)

    def _on_dealer_open(self, t_ms: float, node_state: _NodeState):
        """Push the close at open_until and forget every verdict; admissibility has changed.

        The next tick analyses those something has completed for
        (_forget). Nothing needs starting: the queue was empty while the
        dealer was closed, and a request queued at this instant waits on
        a busy slot or a migration, whose end calls _try_start.
        """
        self._push_dealer(node_state.open_until, self._on_dealer_close, node_state)
        self._forget(*self.services.values())

    def _on_dealer_close(self, t_ms: float, node_state: _NodeState):
        """Move the open interval on to the next day's hours and push their
        opening; reject what is queued and forget every verdict, as on an opening."""
        node_state.next_day()
        self._push_dealer(node_state.open_from, self._on_dealer_open, node_state)
        while node_state.queue:
            request = node_state.queue.popleft()
            request.outcome = Outcome.REJECTED
            self.services[request.service_id].tally.rejected += 1
        self._forget(*self.services.values())

    def _on_analysis_tick(self, t_ms: float):
        """Analyse the services in _changed, in id order, and log each move.

        A move marks the mover (_forget), whose window is not empty, so
        it leaves a service marked exactly when it moved one.
        """
        visit = [self.services[service_id] for service_id in sorted(self._changed)]
        self._changed.clear()
        for state in visit:
            if self._analyze(t_ms, state):
                self.arbitration_log.append((t_ms, "reschedule", state.desc.id))

    def _analyze(self, t_ms: float, state: _ServiceState) -> bool:
        """Run both detectors and act on their advice; True when the service moved."""
        thresholds = self.thresholds
        if state.nearer is None:
            node = state.pair.node_state.node
            state.nearer = nearer_gain(state.desc, node, self.topology, thresholds, t_ms) or False
        advice = analyze_performance(state.window, state.nearer, thresholds)
        if advice is None:
            expected = state.pair.cost.exec_ms
            if expected > 0:
                advice = analyze_computation(
                    state.window.execs,
                    expected,
                    k=thresholds.compute_factor,
                    m=thresholds.compute_run,
                )
            state.advising = advice is not None
        if advice is None:
            return False
        decision = reschedule(state.record, advice, self.topology, self.weights, t_ms)
        if decision.node_id == state.record.placement.node_id:
            return False
        self._move(t_ms, state, decision)
        return True


class PinnedQueues(_Run):
    """A pinned policy's run, as a FIFO queue per node, with no events.

    Nothing moves under a pinned policy, so each node serves the requests
    it admits in arrival order over its slots; see the module docstring
    for why that reproduces the event loop exactly.
    """

    policies = tuple(POLICY_TIERS)

    def run(self) -> SimResult:
        """Settle each arrival up to the horizon, in stream order.

        An arrival is refused when its service is unplaced, unfit for its
        node (a security violation when trust or security is why) or its
        dealer is closed.
        """
        self._place_all()
        arrivals = self._reversed_stream()
        self._open_first_day()
        horizon = self.horizon
        services = self.services
        arrive = self._arrive
        # Each node's slots' free times, a heap: when their last starts complete.
        free = {
            node_id: [-math.inf] * node_state.node.cpu_slots
            for node_id, node_state in self.node_states.items()
        }
        while arrivals:
            arrival = arrivals.pop()
            t_ms = arrival[0]
            if t_ms > horizon:
                break
            request = arrive(t_ms, arrival)
            if request is None:
                continue
            state = services[request.service_id]
            pair = state.pair
            node_state = pair.node_state
            node = node_state.node
            request.node_id = node.id
            while t_ms >= node_state.open_until:  # past a close, as _on_dealer_close moves on
                node_state.next_day()
            t_close = node_state.open_until
            if not (pair.fits and node_state.open_from <= t_ms < t_close):
                request.outcome = Outcome.REJECTED
                state.tally.rejected += 1
                if not security_ok(state.desc, node):
                    self.security_violations += 1
                continue
            slots = free[node.id]
            t_start = slots[0] if slots[0] > t_ms else t_ms
            if t_start >= t_close:  # still queued when its dealer closes
                if t_close <= horizon:
                    request.outcome = Outcome.REJECTED
                    state.tally.rejected += 1
                continue
            if t_start > horizon:  # still queued at the horizon
                continue
            request.t_start = t_start
            cost = pair.cost
            t_done = t_start + node.rtt_ms + cost.transfer_ms + cost.exec_ms
            heapreplace(slots, t_done)
            if t_done <= horizon:  # else still running at the horizon
                self._complete(t_done, request, state, pair)
        return self._finish(0)


def simulate_scenario(
    scenario: Scenario,
    policy: str = "sami",
    seed: int | None = None,
    arrivals: list[Arrival] | None = None,
) -> SimResult:
    """Run one policy over the scenario: sami as events, a pinned one as queues.

    The run draws its arrival stream from the seed, or reads `arrivals`,
    a stream already drawn, in time order, and leaves it as it was. Given
    the stream the seed would draw, it returns what drawing it returns.
    """
    if policy in POLICY_TIERS:
        return PinnedQueues(scenario, policy=policy, seed=seed, arrivals=arrivals).run()
    return Simulation(scenario, policy=policy, seed=seed, arrivals=arrivals).run()


__all__ = [
    "ANALYSIS_INTERVAL_MS",
    "POLICIES",
    "POLICY_TIERS",
    "PinnedQueues",
    "SimResult",
    "Simulation",
    "energy_j",
    "simulate_scenario",
]
