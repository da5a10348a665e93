"""Command line front end.

    tierbroker run      --scenario s.json [--seed N] [--policy P] [--out DIR] [--format F]
    tierbroker compare  --scenario s.json [--seed N] [--out DIR] [--format F]
    tierbroker validate --scenario s.json

Exit codes: 0 success, 2 configuration problem (unparseable or invalid
scenario), 3 no admissible node for some service at setup under the
arbitrated policy.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .arbitrator import enforce_standard
from .errors import ConfigError, NoAdmissibleNode, ValidationError
from .report import (
    write_compare_csv,
    write_compare_json,
    write_metrics_csv,
    write_metrics_json,
)
from .simulation import POLICIES, simulate_scenario
from .workload import load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_NODE = 3

# Near-to-far after the arbitrated policy; fixed so compare.csv is stable.
COMPARE_ORDER = ("sami", "dealer-only", "mno-only", "cloud-only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tierbroker",
        description="Simulate service placement across dealer, operator and cloud tiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_policy: bool):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        if with_policy:
            p.add_argument("--policy", choices=POLICIES, default="sami",
                           help="placement policy (default: sami)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both",
                       dest="fmt", help="output file format (default: both)")

    run_p = sub.add_parser("run", help="run one policy and write metrics")
    common(run_p, with_policy=True)
    cmp_p = sub.add_parser("compare", help="run every policy and write a comparison")
    common(cmp_p, with_policy=False)
    val_p = sub.add_parser("validate", help="check a scenario and its services")
    val_p.add_argument("--scenario", required=True, help="scenario JSON file")
    return parser


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    started = time.perf_counter()
    result = simulate_scenario(scenario, policy=args.policy, seed=args.seed)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    os.makedirs(args.out, exist_ok=True)
    if args.fmt in ("csv", "both"):
        write_metrics_csv(result.report, os.path.join(args.out, "metrics.csv"))
    if args.fmt in ("json", "both"):
        write_metrics_json(result.report, os.path.join(args.out, "metrics.json"))
    run = result.report.run
    print(
        f"policy={args.policy} arrivals={run.arrivals} completed={run.completed} "
        f"rejected={run.rejected} dropped={run.dropped} in_flight={run.in_flight} "
        f"(elapsed {elapsed_ms:.0f} ms)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    started = time.perf_counter()
    # The first run draws the arrival stream; the others run over it, read
    # back from the first run's records.
    first = simulate_scenario(scenario, policy=COMPARE_ORDER[0], seed=args.seed)
    arrivals = first.arrivals()
    reports = [first.report] + [
        simulate_scenario(scenario, policy=policy, seed=args.seed, arrivals=arrivals).report
        for policy in COMPARE_ORDER[1:]
    ]
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    os.makedirs(args.out, exist_ok=True)
    if args.fmt in ("csv", "both"):
        write_compare_csv(reports, os.path.join(args.out, "compare.csv"))
    if args.fmt in ("json", "both"):
        write_compare_json(reports, os.path.join(args.out, "compare.json"))
    for report in reports:
        run = report.run
        print(
            f"policy={report.policy} completed={run.completed} "
            f"mean_latency_ms={run.mean_latency_ms:.1f} charge={run.charge_total:.2f}",
            file=sys.stderr,
        )
    print(f"(elapsed {elapsed_ms:.0f} ms)", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    clean = True
    for desc in sorted(scenario.services, key=lambda s: s.id):
        for violation in enforce_standard(desc, scenario.vocabulary):
            clean = False
            print(f"{desc.id}: {violation.field}: {violation.message}")
    if clean:
        print("ok")
        return EXIT_OK
    return EXIT_CONFIG


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_validate(args)
    except ValidationError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoAdmissibleNode as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_NODE


if __name__ == "__main__":
    sys.exit(main())
