"""Run every workload once, untraced and traced, at BENCHMARK.json's run_seconds.

    python3 bench/report.py --seed 1

For each run, run.py's summary goes to stderr: every metric with its
unit and op sample count, and each failed op by argv.  End-to-end
numbers come only from the untraced runs; the traced runs give the
per-layer metrics and the tracing overhead.  Run it from the repository
root.  Exits 1 if a run fails or an op fails for an unexplained reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
