"""Host-time benchmark for tierbroker.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is fleet_sami, fleet_cloud, shipped_compare, or all (each workload
in its own process, one after another). The workload's operations run
back to back in this one process and thread for S seconds, in whole
rounds; every round's outputs are checked outside the timed region.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (setup_s, run_s, arrivals_per_s, peak_rss_mb), the
times scaled to a reference host speed (see CALIBRATION_REF_S); with
--trace 1 they are the per-layer table from one extra, traced round.
Outputs go to .bench_out/ in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

# Set-up is timed in fresh processes, two before each round and two after
# the last, so that its median spans the whole run rather than one
# moment of a host whose speed drifts. One more probe runs first to warm
# the file cache and write bytecode, and is not counted.
PROBES_PER_ROUND = 2
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
CHILD_TIMEOUT_S = 170


# The host shares its CPUs with other machines. Its speed swings by up
# to 2x, over seconds and over minutes, with no steal time reported:
# identical fleet_cloud rounds took 0.65 s and 1.34 s within one minute,
# and ten runs' mean round time spread by up to 37% (interquartile
# distance over median). The time metrics are therefore reported at a
# reference speed. A fixed pure-Python loop is timed before and after
# every group of set-up probes, that is, around every round, and a run's
# host seconds are multiplied by CALIBRATION_REF_S over the mean of its
# loop times. On two sets of ten runs per workload the spread of run_s
# was 4-17% scaled against 5-30% in host seconds (bench/README.md).
# The loop shares no code or data with the program and runs with the
# garbage collector off, so no change to the program alters it.
# CALIBRATION_REF_S is the loop's time on the reference machine when the
# host is quiet, so that there scaled and host seconds agree.
CALIBRATION_REF_S = 0.04


class _Item:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: float, key: str, value: float):
        self.t = t
        self.key = key
        self.value = value


def calibrate() -> float:
    """Host seconds of the calibration loop.

    Like the simulator it allocates small objects, keeps them on a heap
    and in per-key sliding lists, and does float work.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        keys = [f"k{i}" for i in range(97)]
        heap: list = []
        windows: dict = {}
        done: list = []
        x = 12345
        for i in range(20_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            item = _Item(x % 1000 / 7.0, keys[i % 97], math.log(1 + x % 100))
            heapq.heappush(heap, (item.t, i, item))
            window = windows.get(item.key)
            if window is None:
                windows[item.key] = window = []
            window.append(item.value)
            if len(window) > 50:
                del window[0]
            if len(heap) > 200:
                done.append(heapq.heappop(heap)[2].value)
        return time.perf_counter() - started
    finally:
        gc.enable()


def probe_setup_s(name: str, seed: int) -> float:
    """Host seconds from process start to the first simulated event."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, PROBE, name, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=workloads.ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - started


class OperationFailed(Exception):
    """An operation raised or exited non-zero; its outputs are not checked."""


class Runner:
    """Runs one workload's rounds, checks every operation and tallies failures."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.workload = workloads.make_workload(name, seed)
        self.out_dir = os.path.join(workloads.OUT, name)
        self.attempted = 0
        self.failed = 0
        self.wrong = False  # some operation's outputs failed a check
        self.problems: list[str] = []
        self.reference = None
        self.reference_problem = None
        # (changed, evaluated) analysis windows: the reference pass's for
        # shipped_compare, the last checked round's for the fleet.
        self.window_pairs = (0, 0)
        if name == "shipped_compare":
            self._reference_pass()

    def _reference_pass(self):
        """Untimed simulate_scenario pass the CLI's files must match."""
        from tierbroker.simulation import simulate_scenario

        self.reference = {}
        try:
            for name, scenario in self.workload.load_scenarios().items():
                # Silence the warnings the program logs for tiers a policy cannot use.
                with contextlib.redirect_stderr(io.StringIO()):
                    results = {
                        policy: simulate_scenario(scenario, policy=policy, seed=self.seed)
                        for policy in workloads.COMPARE_ORDER
                    }
                for policy, result in results.items():
                    checks.check_simulation(scenario, policy, self.seed, result)
                changed, evaluated = checks.window_changes(scenario, "sami", results["sami"])
                self.window_pairs = (self.window_pairs[0] + changed, self.window_pairs[1] + evaluated)
                if name == "latency_mix":
                    checks.check_latency_claim(results["sami"].report, results["cloud-only"].report)
                self.reference[name] = [results[p].report for p in workloads.COMPARE_ORDER]
        except checks.CheckFailed as exc:
            self.reference_problem = f"reference pass: {exc}"

    def _check_op(self, index: int, output) -> int:
        """Check one operation's outputs; returns the arrivals it simulated."""
        if self.name == "shipped_compare":
            scenario_name = workloads.SHIPPED[index]
            code, stderr = output
            if code != 0:
                raise OperationFailed(f"compare {scenario_name} exited {code}:\n{stderr}")
            if self.reference_problem:
                raise checks.CheckFailed(self.reference_problem)
            out = os.path.join(self.out_dir, scenario_name)
            checks.check_files(
                os.path.join(out, "compare.csv"), os.path.join(out, "compare.json"),
                self.reference[scenario_name],
            )
            return sum(report.run.arrivals for report in self.reference[scenario_name])
        arrivals = checks.check_simulation(
            self.workload.scenario, self.workload.policy, self.seed, output
        )
        csv_path, json_path = self.workload.output_files(self.out_dir)
        checks.check_files(csv_path, json_path, [output.report])
        self.window_pairs = checks.window_changes(self.workload.scenario, self.workload.policy, output)
        return arrivals

    def round(self):
        """One timed round, then its checks; returns (host seconds, arrivals) or None."""
        gc.collect()
        ops = self.workload.ops_per_round
        self.attempted += ops
        try:
            elapsed, outputs = self.workload.run_round(self.out_dir)
        except Exception as exc:  # the round's operation failed; keep measuring
            self.failed += ops
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        arrivals = 0
        for index, output in enumerate(outputs):
            try:
                arrivals += self._check_op(index, output)
            except OperationFailed as exc:
                self.failed += 1
                self.problems.append(str(exc))
            except checks.CheckFailed as exc:
                self.failed += 1
                self.wrong = True
                self.problems.append(str(exc))
        return elapsed, arrivals

    def measure(self, seconds: float, between=None) -> list[tuple[float, int]]:
        """Whole rounds back to back until `seconds` of wall time have passed.

        `between`, when given, runs before every round, untimed.
        """
        samples = []
        started = time.monotonic()
        while self.attempted == 0 or time.monotonic() - started < seconds:
            if between is not None:
                between()
            sample = self.round()
            if sample is not None:
                samples.append(sample)
        return samples

    def changed_window_share(self) -> float:
        """Share of analysis evaluations whose service's window changed since the last tick."""
        changed, evaluated = self.window_pairs
        return changed / evaluated if evaluated else 0.0

    def traced_round(self) -> tuple[tracing.Tracer, float | None]:
        """One more round with every layer boundary traced."""
        gc.collect()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            if hasattr(self.workload, "parse"):
                # The fleet is parsed once, before the timed rounds; trace one parse.
                self.workload.parse()
            sample = self.round()
        tracer.write_jsonl(os.path.join(workloads.OUT, "trace", self.name + ".jsonl"))
        return tracer, None if sample is None else sample[0]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s: list[float] = []
    calibrations: list[float] = []

    def probe_setup():
        calibrations.append(calibrate())
        setup_s.extend(probe_setup_s(name, seed) for _ in range(PROBES_PER_ROUND))
        calibrations.append(calibrate())

    workloads.prepare(name, seed)
    if not trace:
        probe_setup_s(name, seed)
    runner = Runner(name, seed)
    samples = runner.measure(seconds, between=None if trace else probe_setup)
    run_s = [elapsed for elapsed, _ in samples]
    host_note = None
    if trace:
        tracer, traced_s = runner.traced_round()
        overhead = traced_s - statistics.fmean(run_s) if traced_s is not None and run_s else 0.0
        per_layer = workloads.load_spec()["per_layer"]
        values = tracing.layer_metrics(tracer, [m["name"] for m in per_layer], overhead)
        values["arbitrator.changed_window_share"] = runner.changed_window_share()
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in per_layer}
    elif samples:
        probe_setup()
        calibration_s = statistics.fmean(calibrations)
        scale = CALIBRATION_REF_S / calibration_s
        host_note = (f"  host seconds before scaling by {scale:.4f} (calibration loop "
                     f"{calibration_s:.5f} s): setup_s {statistics.median(setup_s):.5f}, "
                     f"run_s {statistics.fmean(run_s):.5f}")
        metrics = {
            "setup_s": metric(statistics.median(setup_s) * scale, "s"),
            "run_s": metric(statistics.fmean(run_s) * scale, "s"),
            "arrivals_per_s": metric(
                sum(arrivals for _, arrivals in samples) / (sum(run_s) * scale), "1/s"
            ),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {}
    for problem in runner.problems[:5]:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    print(f"{name} seed={seed} rounds={len(samples)} attempted={runner.attempted} "
          f"failed={runner.failed} round_s=[{', '.join(f'{t:.3f}' for t in run_s)}]")
    if host_note:
        print(host_note)
    for key, entry in metrics.items():
        print(f"  {key:32} {entry['value']:>16.6g} {entry['unit']}")
    return {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in a process of its own; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    if not result["metrics"]:
        print("error: no round completed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
