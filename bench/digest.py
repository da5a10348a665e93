"""Print the SHA-256 of every output file of every workload at one seed.

    python3 bench/digest.py [--seed N]

Each workload runs once, untimed, into .bench_out/digest/. Running this
on two commits and diffing the output checks that they write
byte-identical files; no digest is stored in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    args = parser.parse_args(argv)
    try:
        workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    root = os.path.join(workloads.OUT, "digest")
    for name in workloads.WORKLOADS:
        workloads.prepare(name, args.seed)
        workload = workloads.make_workload(name, args.seed)
        out_dir = os.path.join(root, name)
        _, outputs = workload.run_round(out_dir)
        if name == "shipped_compare" and any(code != 0 for code, _ in outputs):
            print(f"error: {name} failed:\n" + "".join(err for _, err in outputs), file=sys.stderr)
            return 1
        for path in workload.output_files(out_dir):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
