"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of runs of bench/run.py, one
file per run, named WORKLOAD.ANYTHING (for example fleet_sami.7.out);
the last line of each file is the run's JSON result. For every workload
and metric the command prints each side's median and quartiles (from
statistics.quantiles with n=4), the spread (interquartile distance over
the median) and the change of the medians. An end-to-end metric agrees
when the new median is not worse than the base median by more than the
metric's bound in BENCHMARK.json. The share of failed operations must
be the same on both sides. Exits 1 when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import workloads


def load_runs(directory: str) -> dict:
    """workload -> list of run results."""
    runs: dict[str, list] = {}
    for entry in sorted(os.listdir(directory)):
        workload = entry.split(".", 1)[0]
        if workload not in workloads.WORKLOADS:
            continue
        with open(os.path.join(directory, entry), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        try:
            runs.setdefault(workload, []).append(json.loads(lines[-1]))
        except (IndexError, json.JSONDecodeError):
            raise ValueError(f"{entry}: the last line is not a run result; did the run crash?")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = workloads.load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_runs(args.base), load_runs(args.new)

    agree = True
    for workload in workloads.WORKLOADS:
        if workload not in base or workload not in new:
            continue
        sides = (base[workload], new[workload])
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sides]
        correct = all(r["correct"] for runs in sides for r in runs)
        same_share = shares[0] == shares[1]
        agree &= same_share and correct
        print(f"{workload}: runs {len(sides[0])} vs {len(sides[1])}, failed share "
              f"{shares[0]:.4f} vs {shares[1]:.4f}{'' if same_share else '  DIFFERENT'}"
              f"{'' if correct else ', some run not correct'}")
        names = [n for n in sides[0][0]["metrics"] if all(n in r["metrics"] for rs in sides for r in rs)]
        if not names:
            agree = False
            print("  no metric is in every run: some run completed no round")
        for name in names:
            stats = []
            for runs in sides:
                q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                stats.append((q1, median, q3, (q3 - q1) / median if median else 0.0))
            change = (stats[1][1] - stats[0][1]) / stats[0][1] if stats[0][1] else 0.0
            spec_metric = metrics.get(name, {})
            verdict = ""
            if "bound" in spec_metric:
                worse = change if spec_metric["better"] == "lower" else -change
                ok = worse <= spec_metric["bound"]
                agree &= ok
                verdict = f"{'within' if ok else 'WORSE than'} bound {spec_metric['bound']:.0%}"
            unit = sides[0][0]["metrics"][name]["unit"]
            print(f"  {name:32} {unit:6}"
                  + "".join(f" | {m:10.4g} [{a:.4g}, {b:.4g}] spread {s:6.1%}" for a, m, b, s in stats)
                  + f" | change {change:+7.1%} {verdict}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
