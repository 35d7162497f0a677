"""One workload run in a fresh interpreter; started by run.py.

Imports rhnumbers from the checkout's src/, runs one warm-up op, then
runs the workload's op stream through `rhnumbers.cli.run_cli` with
in-memory stdout/stderr and prints one JSON object with the raw
measurements as its last stdout line.  Set-up time is measured apart,
by setup_probe.py.

--trace 0 runs whole blocks of ops until their time at the reference
speed reaches --seconds (and at least MIN_OPS ran) and reports
end-to-end metrics.  --trace 1 runs a fixed prefix of the stream under
the tracer (after a fixed tour of one small op per layer), so layer
counts repeat exactly across versions, then replays the same ops
untraced to measure the overhead.  Every op's
output is checked by the oracle after the clock stops.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from oracle import Oracle
from refclock import RefClock
from stats import hd_quantile
from tracer import Tracer
from workloads import CNSR, TOUR, WORKLOADS, Op, iter_blocks

MIN_OPS = 100  # p90 needs ten samples beyond it
OP_LIMIT_S = 30.0  # an op slower than this counts as failed
WALL_FACTOR = 3.0  # a run stops after this many times --seconds of wall time
TRACE_BLOCKS = 2  # the traced prefix, after the tour
WARMUP = Op(("classify", "1729"))

# Failures that are defects of the package today: argv -> (exit code,
# text its stderr must hold).  They still count as failed ops; they only
# keep `correct` true, and only when the op fails in just this way.
KNOWN_DEFECTS = {
    # N and M exceed CPython's 4300-digit int-to-str limit while rendering.
    ("family", "repunit12", "--k", "7", "--verify"):
        (2, "limit (4300 digits) for integer string conversion"),
}

PER_LAYER = (
    "cli.run_cli.self_s", "cli.stdout_bytes",
    "search.scan_range.self_s", "search.arh_pairs_chunk.self_s",
    "search.arh_pairs_chunk.hit_ratio", "search.mrh_pairs_chunk.self_s",
    "search.count_not_sum_of_reversal.self_s", "search.palindromic_square_search.self_s",
    "oeis.first_terms.self_s", "oeis.first_terms.yield_ratio",
    "search.numbers_for_multiplier.self_s", "search.numbers_for_multiplier.members",
    "bounds.digit_bound.calls", "bounds.digit_bound.self_s",
    "tables.reproduce_table.self_s", "tables.section1_counts.self_s",
    "classify.classify.self_s", "classify.arh_witnesses.self_s",
    "classify.mrh_witnesses.self_s", "classify.verify_witness.calls",
    "classify.verify_witness.self_s",
    "digitvec.DigitVec.mul.calls", "digitvec.DigitVec.mul.self_s",
    "digitvec.DigitVec.mul.digit_products",
    "digitvec.DigitVec.from_int.calls", "digitvec.reverse_int.calls",
    "digitvec.digit_sum_int.calls",
    "families.verify_family.self_s", "families.claims_checked", "families.claims_skipped",
    "trace.overhead_ratio",
)


class Runner:
    """Executes ops against the imported package, looked up at call time."""

    def __init__(self):
        import rhnumbers.cli
        import rhnumbers.search
        self.cli = rhnumbers.cli
        self.search = rhnumbers.search

    def run(self, op: Op) -> tuple[int | None, str, str]:
        """(exit code or None on exception, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            if op.argv[0] == CNSR:
                base, k = int(op.argv[2]), int(op.argv[4])
                print(self.search.count_not_sum_of_reversal(base, k), file=out)
                code = 0
            else:
                code = self.cli.run_cli(list(op.argv), out, err)
        except Exception:  # an op that raises is a failed op, not a crashed run
            return None, out.getvalue(), traceback.format_exc(limit=3)
        return code, out.getvalue(), err.getvalue()


def _check_package(root: Path) -> None:
    import rhnumbers
    where = Path(rhnumbers.__file__).resolve()
    if (root / "src") not in where.parents:
        sys.exit(f"error: rhnumbers imported from {where}, not from this checkout's src/")


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def timed_loop(runner: Runner, blocks, store: Path | None, budget_s: float | None,
               tracer: Tracer | None = None) -> list[dict]:
    """Run whole blocks of ops in order (closed loop, one client).

    Each record's `latency` is the op's time at the reference speed (see
    refclock); `wall` is the unscaled time.  With a budget, blocks run
    until the ops' summed latency reaches it (and MIN_OPS ran), so a
    burst of interference does not change which ops a run covers; the
    wall clock only stops a run that takes WALL_FACTOR times longer.
    Outputs go to files in `store`.
    """
    records = []
    spent = 0.0
    wall_end = time.perf_counter() + WALL_FACTOR * budget_s if budget_s else None
    with RefClock() as clock:
        for block in blocks:
            if budget_s is not None and len(records) >= MIN_OPS and (
                    spent >= budget_s or time.perf_counter() >= wall_end):
                break
            for op in block:
                i = len(records)
                if tracer is not None:
                    tracer.op = i
                (code, out, err), latency, wall = clock.time(runner.run, op)
                spent += latency
                records.append({"i": i, "op": op, "code": code, "wall": wall,
                                "latency": latency, "stdout_bytes": len(out.encode())})
                if store is not None:
                    (store / f"{i}.out").write_text(out)
                    (store / f"{i}.err").write_text(err)
    return records


def judge(records: list[dict], store: Path) -> Oracle:
    """Mark each record failed or not; the oracle never runs on the clock."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # family outputs can exceed the default limit
    oracle = Oracle()
    for rec in records:
        op = rec["op"]
        err = (store / f"{rec['i']}.err").read_text()
        if rec["code"] is None:
            reason = "exception: " + err.strip().splitlines()[-1]
        else:
            reason = oracle.check(op, rec["code"], (store / f"{rec['i']}.out").read_text(), err)
        if reason is None and rec["wall"] > OP_LIMIT_S:
            reason = f"took {rec['wall']:.1f} s, over the {OP_LIMIT_S:.0f} s op limit"
        rec["reason"] = reason
        code, text = KNOWN_DEFECTS.get(op.argv, (None, None))
        rec["known_defect"] = (reason is not None and rec["code"] == code
                               and rec["wall"] <= OP_LIMIT_S and text in err)
    return oracle


def end_to_end(records: list[dict], peak_rss_mb: float) -> dict:
    lat = [r["latency"] for r in records]
    failed = sum(1 for r in records if r["reason"])
    return {
        "ops_per_s": (len(records), "1/s", len(records) / sum(lat)),
        "op_p50_s": (len(records), "s", hd_quantile(lat, 0.5)),
        "op_p90_s": (len(records), "s", hd_quantile(lat, 0.9)),
        "peak_rss_mb": (1, "MB", peak_rss_mb),
        "ok_ratio": (len(records), "ratio", (len(records) - failed) / len(records)),
    }


def per_layer(tracer: Tracer, records: list[dict], overhead: float) -> dict:
    self_s = tracer.self_times({r["i"]: r["latency"] / r["wall"] for r in records})
    calls = tracer.calls
    items = tracer.totals("items")
    size = tracer.totals("size")
    arh = "search.arh_pairs_chunk"
    terms = items["oeis.first_terms"]
    scanned = tracer.items_under("oeis.first_terms", "search.scan_range")
    values = {name + ".self_s": self_s.get(name, 0.0) for name in items}
    values.update({name + ".calls": calls[name] for name in calls})
    values.update({
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in records),
        arh + ".hit_ratio": items[arh] / size[arh] if size[arh] else 0.0,
        "oeis.first_terms.yield_ratio": terms / scanned if scanned else 0.0,
        "search.numbers_for_multiplier.members": items["search.numbers_for_multiplier"],
        "digitvec.DigitVec.mul.digit_products": size["digitvec.DigitVec.mul"],
        "families.claims_checked": tracer.claims["checked"],
        "families.claims_skipped": tracer.claims["skipped"],
        "trace.overhead_ratio": overhead,
    })
    return {name: (len(records), _unit(name), values.get(name, 0)) for name in PER_LAYER}


def _unit(name: str) -> str:
    for suffix, unit in (("self_s", "s"), ("ratio", "ratio"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, default=Path(".bench_out"))
    args = ap.parse_args()

    root = Path.cwd().resolve()
    _check_package(root)
    runner = Runner()
    if runner.run(WARMUP)[0] != 0:
        sys.exit("error: warm-up op failed")

    args.out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    store = args.out_dir / f"ops-{tag}-{os.getpid()}"
    store.mkdir()
    try:
        extra = {}
        if args.trace:
            blocks = iter_blocks(args.workload, args.seed)
            prefix = [list(TOUR)] + [block for _, block in zip(range(TRACE_BLOCKS), blocks)]
            tracer = Tracer()
            tracer.install()
            try:
                records = timed_loop(runner, prefix, store, None, tracer)
            finally:
                tracer.restore()
            replay = timed_loop(runner, prefix, None, None)
            overhead = sum(r["latency"] for r in records) / sum(r["latency"] for r in replay)
            peak_rss_mb = 0.0
            trace_path = args.out_dir / f"trace-{tag}.json"
            trace_path.write_text(json.dumps(tracer.dump()))
            extra = {"trace_file": str(trace_path), "absent": tracer.absent}
        else:
            records = timed_loop(runner, iter_blocks(args.workload, args.seed), store,
                                 args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        oracle = judge(records, store)
    finally:
        shutil.rmtree(store, ignore_errors=True)

    metrics = per_layer(tracer, records, overhead) if args.trace else end_to_end(
        records, peak_rss_mb)
    argv_list = [list(r["op"].argv) for r in records]
    failures = [{"i": r["i"], "argv": list(r["op"].argv), "reason": r["reason"],
                 "known_defect": r["known_defect"]} for r in records if r["reason"]]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": len(records),
        "failed": len(failures),
        "unexplained": sum(1 for f in failures if not f["known_defect"]),
        "failures": failures,
        "unverified_claims": oracle.unverified_claims,
        "metrics": {k: {"samples": n, "unit": u, "value": v} for k, (n, u, v) in metrics.items()},
        "argv": argv_list,
        "latency_s": [r["latency"] for r in records],
        "argv_sha256": hashlib.sha256(json.dumps(argv_list).encode()).hexdigest(),
        "machine": machine_info(),
        **extra,
    }
    (args.out_dir / f"record-{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
