"""Set-up probe: one fresh process that stops at the first simulated event.

    python3 bench/setup_probe.py WORKLOAD SEED

Imports tierbroker, parses and validates the workload's first scenario,
builds topology and registry and places every service, all through the
workload's first program call. The simulator asks for its arrival
stream right before its first event; the probe stops it there and
prints `time.monotonic()` at that moment. The parent subtracts the
monotonic time it took just before starting this process, so set-up is
counted from process start.
"""

from __future__ import annotations

import sys
import time

import workloads


class _FirstEvent(Exception):
    pass


def _stop(*args, **kwargs):
    raise _FirstEvent(time.monotonic())


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    workloads.import_program()
    workload = workloads.make_workload(name, seed)
    import tierbroker.simulation

    tierbroker.simulation.generate_workload = _stop
    try:
        workload.first_call()
    except _FirstEvent as reached:
        print(repr(reached.args[0]))
        return 0
    print("set-up probe: the simulator never asked for arrivals", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
