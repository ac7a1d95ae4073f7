"""Record the `sweep` CSV columns that run.py compares against at 1e-6.

    python3 bench/record_reference.py --size full --seed 0

Runs one untraced sweep pass through the same worker as the benchmark and
stores its header and rows in reference.json under ``sweep/<size>/<seed>``.
"""

from __future__ import annotations

import argparse
import json
import time

import run
from checks import REFERENCE_FILE, read_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    args.workload = "sweep"
    with run.workdir("reference") as work:
        report, _, _ = run.spawn(
            args, work, "pass", False, 0, time.monotonic() + run.RUN_DEADLINE_S
        )
        if report["exit_code"] != 0:
            raise SystemExit(f"sfwm sweep exited {report['exit_code']}")
        header, rows = read_csv(report["csv"])
    table = json.loads(REFERENCE_FILE.read_text())
    table[f"sweep/{args.size}/{args.seed}"] = {"header": header, "rows": rows.tolist()}
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
