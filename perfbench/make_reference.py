"""Regenerate ``reference.json``: the CLI row of every working point in
the workload pools, as the checked-out program prints it.

Run from the root of a checkout whose tables are trusted (the reference
was made from the first benchmarked version):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

from check import REFERENCE_PATH, parse_table
from run import BLAS_THREADS, BLAS_VARS, cli_env, run_cli
from workloads import pool_commands


def main() -> int:
    env = cli_env()
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    reference: dict = {}
    for command in pool_commands():
        run = run_cli(command.argv(), env)
        digest, _, rows = parse_table(run.stdout)
        if run.exit_code != 0 or digest != command.config_hash():
            print(f"{command.name} failed (exit {run.exit_code}, hash {digest}):\n"
                  f"{run.stderr}", file=sys.stderr)
            return 1
        table = reference.setdefault(command.name, {})
        for key, row in zip(command.row_keys(), rows, strict=True):
            if row["status"] != "ok":
                print(f"{command.name} {key}: {row['status']}", file=sys.stderr)
                return 1
            table[key] = row
        print(f"{command.name}: {len(rows)} rows in {run.wall_s:.1f} s")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
