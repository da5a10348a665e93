"""The benchmark's workloads and the paths they use.

Importing this module does not import tierbroker: the set-up probe
times that import from process start, so `import_program` does it on
request. Every workload drives the program through public functions
only (`load_scenario`, `simulate_scenario`, the report writers) or
through the CLI's `main`. The fleet scenario is written to a file by
`prepare` before anything is timed, so that set-up times the program's
own reading and parsing of it and none of the benchmark's building.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("fleet_sami", "fleet_cloud", "shipped_compare")
DEV_SEED = 42
HELD_OUT_SEED = 7

# The four shipped scenarios, in the order shipped_compare runs them.
SHIPPED = ("dealer_hours", "hot_cloud_service", "latency_mix", "minimal")
# Policy order of compare.csv / compare.json, as docs/metrics.md fixes it.
COMPARE_ORDER = ("sami", "dealer-only", "mno-only", "cloud-only")

# The fleet: every latency_mix service copied FLEET_COPIES times at the
# file's rates. At 1x the rates the tiers keep up; at 2x they saturate,
# which would time the backlog rather than the broker. At 0.5 requests
# per second a service's window changes in only about 39% of the
# one-second analysis ticks (1 - e^-0.5), so the fleet is the
# analysis-heavy case by the number of evaluations, not by dense
# windows. Ten simulated minutes keep a sami round near 2.5 s, so a run
# holds about ten rounds: the host's speed drifts by a quarter over tens
# of seconds, and runs of four or five 5 s rounds (20 minutes) spread
# by 15-26% across seeds.
FLEET_BASE = "latency_mix"
FLEET_COPIES = 10
FLEET_HORIZON_MS = 600_000


class ProgramMissing(Exception):
    """The checkout has no tierbroker sources or scenarios to run."""


def import_program():
    """Import tierbroker from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "tierbroker", "__init__.py")
    if not os.path.isfile(init) or not os.path.isdir(SCENARIOS):
        raise ProgramMissing(f"no tierbroker sources or scenarios under {ROOT}")
    sys.path.insert(0, SRC)
    import tierbroker

    if os.path.dirname(os.path.abspath(tierbroker.__file__)) != os.path.dirname(init):
        raise ProgramMissing(f"tierbroker imported from {tierbroker.__file__}, not {SRC}")
    return tierbroker


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIOS, name + ".json")


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fleet_path(seed: int) -> str:
    return os.path.join(OUT, "fleet", f"fleet-{seed}.json")


def fleet_dict(seed: int) -> dict:
    """The 100-service fleet as a scenario dict, seeded with `seed`.

    The tag vocabulary path is made relative to the fleet file, which
    lives under OUT rather than next to the shipped scenarios.
    """
    with open(scenario_path(FLEET_BASE), encoding="utf-8") as fh:
        base = json.load(fh)
    fleet = copy.deepcopy(base)
    if "tag_vocabulary" in fleet:
        fleet["tag_vocabulary"] = os.path.relpath(
            os.path.join(SCENARIOS, fleet["tag_vocabulary"]), os.path.dirname(fleet_path(seed))
        )
    fleet["seed"] = seed
    fleet["horizon_ms"] = FLEET_HORIZON_MS
    fleet["services"] = []
    for consumer in fleet["consumers"]:
        consumer["rates"] = {}
    for service in base["services"]:
        for copy_index in range(FLEET_COPIES):
            clone = copy.deepcopy(service)
            clone["id"] = f"{service['id']}-c{copy_index}"
            clone["name"] = f"{service['name']}-c{copy_index}"
            fleet["services"].append(clone)
            for consumer, base_consumer in zip(fleet["consumers"], base["consumers"]):
                if service["id"] in base_consumer["rates"]:
                    consumer["rates"][clone["id"]] = base_consumer["rates"][service["id"]]
    return fleet


def prepare(name: str, seed: int):
    """Write what the workload reads before it is timed: the fleet file."""
    if name.startswith("fleet_"):
        path = fleet_path(seed)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fleet_dict(seed), fh, indent=1)
            fh.write("\n")


class FleetWorkload:
    """One simulate-and-write of the fleet under one policy per operation."""

    ops_per_round = 1

    def __init__(self, policy: str, seed: int):
        import tierbroker.report
        import tierbroker.simulation
        import tierbroker.workload

        self._workload = tierbroker.workload
        self._simulation = tierbroker.simulation
        self._report = tierbroker.report
        self.policy = policy
        self.seed = seed
        self.path = fleet_path(seed)
        self.scenario = self.parse()

    def parse(self):
        """The fleet file written by `prepare`, read by the program."""
        return self._workload.load_scenario(self.path)

    def run_round(self, out_dir: str):
        """Simulate and write once; returns (host seconds, [result])."""
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "metrics.csv")
        json_path = os.path.join(out_dir, "metrics.json")
        started = time.perf_counter()
        result = self._simulation.simulate_scenario(self.scenario, policy=self.policy)
        self._report.write_metrics_csv(result.report, csv_path)
        self._report.write_metrics_json(result.report, json_path)
        return time.perf_counter() - started, [result]

    def first_call(self):
        """The workload's first program call, as the set-up probe makes it."""
        self._simulation.simulate_scenario(self.scenario, policy=self.policy)

    def output_files(self, out_dir: str) -> list[str]:
        return [os.path.join(out_dir, "metrics.csv"), os.path.join(out_dir, "metrics.json")]


class CompareWorkload:
    """`tierbroker compare --format both` on each shipped scenario."""

    ops_per_round = len(SHIPPED)

    def __init__(self, seed: int):
        import tierbroker.cli
        import tierbroker.workload

        self._cli = tierbroker.cli
        self._workload = tierbroker.workload
        self.seed = seed

    def load_scenarios(self) -> dict:
        """The shipped scenarios as the checks read them (untimed)."""
        return {name: self._workload.load_scenario(scenario_path(name)) for name in SHIPPED}

    def argv(self, name: str, out_dir: str) -> list[str]:
        return [
            "compare", "--scenario", scenario_path(name), "--seed", str(self.seed),
            "--out", os.path.join(out_dir, name), "--format", "both",
        ]

    def run_round(self, out_dir: str):
        """One compare per scenario; returns (host seconds, [(exit code, stderr)])."""
        elapsed = 0.0
        outcomes = []
        for name in SHIPPED:
            argv = self.argv(name, out_dir)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                started = time.perf_counter()
                try:
                    code = self._cli.main(argv)
                except Exception:  # a failed operation; run.py counts it
                    code = None
                    traceback.print_exc()
                elapsed += time.perf_counter() - started
            outcomes.append((code, stderr.getvalue()))
        return elapsed, outcomes

    def first_call(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self._cli.main(self.argv(SHIPPED[0], os.path.join(OUT, "probe")))

    def output_files(self, out_dir: str) -> list[str]:
        return [
            os.path.join(out_dir, name, file)
            for name in SHIPPED
            for file in ("compare.csv", "compare.json")
        ]


def make_workload(name: str, seed: int):
    if name == "fleet_sami":
        return FleetWorkload("sami", seed)
    if name == "fleet_cloud":
        return FleetWorkload("cloud-only", seed)
    if name == "shipped_compare":
        return CompareWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
