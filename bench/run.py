"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload range-scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  It byte-compiles src/rhnumbers (the
package's only build step), times set-up in several fresh interpreters
(bench/setup_probe.py), then runs the workload in one more fresh
interpreter (bench/worker.py)
and prints, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run.

A human-readable summary (each metric with its unit and sample count,
and every failed op by argv) goes to stderr; the full record (seed,
generated argv list and its digest, machine info) to
.bench_out/record-<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 21
RUN_LIMIT_S = 170.0  # the whole run, probes included, must end before this


def _run(root: Path, script: str, extra: list[str], timeout: float):
    """Run a bench script in a fresh interpreter with the checkout's src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(HERE / script)] + extra, cwd=root, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.perf_counter()
    root = Path.cwd().resolve()
    package = root / "src" / "rhnumbers"
    if not (package / "__init__.py").is_file():
        print(f"error: no rhnumbers package under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(package)], check=True)

    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe = _run(root, "setup_probe.py", [], 30)
            if probe.returncode != 0:
                print(f"error: set-up probe exited with {probe.returncode}", file=sys.stderr)
                return 1
            setups.append(float(probe.stdout))
        proc = _run(root, "worker.py", [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ], RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: a bench process exceeded its time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1

    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = raw["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"samples": len(setups), "unit": "s",
                              "value": statistics.median(setups)}
    _summary(raw, metrics)
    print(json.dumps({
        "correct": raw["unexplained"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


def _summary(raw: dict, metrics: dict) -> None:
    err = sys.stderr
    print(f"{raw['workload']} seed={raw['seed']} trace={raw['trace']} "
          f"ops={raw['attempted']} failed={raw['failed']} "
          f"argv_sha256={raw['argv_sha256'][:16]}", file=err)
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}", file=err)
    for f in raw["failures"]:
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"  {tag}: {' '.join(f['argv'])} -- {f['reason']}", file=err)


if __name__ == "__main__":
    sys.exit(main())
