"""Tests of the benchmark itself: op streams, oracle, tracer, statistics.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import rhnumbers  # noqa: E402
from rhnumbers.cli import run_cli  # noqa: E402
from oracle import Oracle, _Sweep, arh_multipliers, mrh_multipliers, multiplier_members  # noqa: E402
from stats import betainc, hd_quantile  # noqa: E402
from tracer import SPANNED, Tracer  # noqa: E402
from workloads import CNSR, WORKLOADS, Op, iter_blocks  # noqa: E402
from worker import judge  # noqa: E402

# Names the roadmap plans to delete; the op streams must not depend on them.
PLANNED_DELETIONS = ("--partitions", "multiplier_multiplicity", "split_range", "is_niven_int")


def iter_ops(workload: str, seed: int):
    return itertools.chain.from_iterable(iter_blocks(workload, seed))


def _run(argv: list[str]) -> tuple[Op, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out, err)
    return Op(tuple(argv), code), code, out.getvalue(), err.getvalue()


# -- op streams ------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_streams_are_deterministic_per_seed(workload):
    first = list(itertools.islice(iter_ops(workload, 7), 200))
    again = list(itertools.islice(iter_ops(workload, 7), 200))
    other = list(itertools.islice(iter_ops(workload, 8), 200))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_streams_avoid_names_planned_for_deletion(workload):
    for op in itertools.islice(iter_ops(workload, 3), 300):
        assert not set(op.argv) & set(PLANNED_DELETIONS)


def test_seeds_keep_the_block_design():
    """Two seeds run the same op kinds per block, with different sizes."""
    def shape(block):
        return sorted(op.argv[:3] for op in block)

    a = list(itertools.islice(iter_blocks("range-scan", 1), 4))
    b = list(itertools.islice(iter_blocks("range-scan", 2), 4))
    assert [shape(x) for x in a] == [shape(x) for x in b]
    assert a != b


def test_expected_exit_codes():
    ops = list(itertools.islice(iter_ops("classify-verify", 5), 300))
    conflict = [op for op in ops if op.argv[1:6] == ("square", "--base", "17", "--k", "5")]
    assert conflict and all(op.expect == 1 for op in conflict)
    assert all(op.expect == 0 for op in ops if op not in conflict)
    assert any(op.argv[1:4] == ("repunit12", "--k", "7") for op in ops)


# -- oracle ------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


@pytest.mark.parametrize("fmt", ["json", "csv", "bfile"])
def test_search_oracle_rejects_a_dropped_hit(oracle, fmt):
    op, code, out, err = _run(["search", "--kind", "arh", "--base", "10", "--max", "3000",
                               "--format", fmt])
    assert oracle.check(op, code, out, err) is None
    if fmt == "json":
        doc = json.loads(out)
        del doc["results"][5]
        doc["count"] -= 1
        bad = json.dumps(doc)
    else:
        lines = out.splitlines(keepends=True)
        bad = "".join(lines[:3] + lines[4:])
    assert oracle.check(op, code, bad, err) is not None


def test_classify_oracle_rejects_a_wrong_multiplier(oracle):
    op, code, out, err = _run(["classify", "1729"])
    assert oracle.check(op, code, out, err) is None
    doc = json.loads(out)
    doc["mrh"][0]["m"] += 1
    assert oracle.check(op, code, json.dumps(doc), err) is not None


def test_multiplier_oracle_rejects_a_wrong_member(oracle):
    op, code, out, err = _run(["multiplier", "--kind", "mrh", "--multiplier", "1"])
    assert oracle.check(op, code, out, err) is None
    doc = json.loads(out)
    doc["numbers"][-1] += 9
    assert oracle.check(op, code, json.dumps(doc), err) is not None
    doc = json.loads(out)
    doc["numbers"].pop()
    doc["multiplicity"] -= 1
    assert oracle.check(op, code, json.dumps(doc), err) is not None


def test_source_disagreements_must_stay_reported(oracle):
    op, code, out, err = _run(["tables", "--which", "counts"])
    assert oracle.check(op, code, out, err) is None
    doc = json.loads(out)
    doc["notes"] = []
    assert oracle.check(op, code, json.dumps(doc), err) is not None

    op, code, out, err = _run(["family", "square", "--base", "17", "--k", "5", "--verify"])
    op = Op(op.argv, 1)
    assert oracle.check(op, code, out, err) is None
    doc = json.loads(out)
    doc["instance"]["claims"][-1]["expected"] = True
    doc["results"][-1].update(verdict="PASS", passed=True)
    doc["conflicts"], doc["passed"] = [], True
    assert oracle.check(op, 0, json.dumps(doc), err) is not None

    op, code, out, err = _run(["tables", "--which", "all"])
    assert oracle.check(op, code, out, err) is None


def test_oracle_reports_an_unexpected_exit_code(oracle):
    op, code, out, err = _run(["family", "repunit12", "--k", "7", "--verify"])
    assert code == 2  # CPython's int-to-str digit limit: a known defect
    assert "exit code 2" in oracle.check(Op(op.argv, 0), code, out, err)


def test_only_the_listed_failure_of_a_known_defect_is_excused(tmp_path):
    op, code, out, err = _run(["family", "repunit12", "--k", "7", "--verify"])
    cases = [(code, err), (2, "error: some other fault\n"), (None, "Traceback\nValueError: x\n")]
    records = []
    for i, (case_code, case_err) in enumerate(cases):
        (tmp_path / f"{i}.out").write_text(out)
        (tmp_path / f"{i}.err").write_text(case_err)
        records.append({"i": i, "op": Op(op.argv), "code": case_code, "wall": 1.0})
    limit = sys.get_int_max_str_digits()
    try:
        judge(records, tmp_path)
    finally:
        sys.set_int_max_str_digits(limit)
    assert all(r["reason"] for r in records)
    assert [r["known_defect"] for r in records] == [True, False, False]


def test_setup_probe_prints_a_time():
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert 0 < float(proc.stdout) < 30


@pytest.mark.parametrize("argv", [
    ["palsquare", "--limit", "5000", "--base", "3", "--format", "csv"],
    ["oeis", "--seq", "A305131", "--count", "30"],
    ["bounds", "--multiplier", "1000000", "--kind", "mrh", "--base", "7"],
    ["family", "all-ones", "--base", "2", "--p", "3", "--verify"],
    ["family", "niven-not-mrh", "--base", "10", "--n", "4", "--verify"],
    ["classify", "--base", "12", "--digits", "1,11,3", "--format", "csv"],
    ["tables", "--which", "1"],
    ["tables", "--which", "3"],
])
def test_oracle_accepts_correct_outputs(oracle, argv):
    op, code, out, err = _run(argv)
    assert oracle.check(Op(op.argv, 0), code, out, err) is None


def test_count_not_sum_of_reversal_oracle(oracle):
    value = rhnumbers.count_not_sum_of_reversal(10, 3)
    op = Op((CNSR, "--base", "10", "--k", "3"))
    assert oracle.check(op, 0, f"{value}\n", "") is None
    assert oracle.check(op, 0, f"{value + 1}\n", "") is not None


@pytest.mark.parametrize("base", [2, 10, 13])
def test_reference_sweep_matches_per_n_brute_force(base):
    sweep = _Sweep(base, 3000)
    for n in range(1, 3001):
        assert sweep.arh.get(n, []) == arh_multipliers(n, base)
        assert sweep.mrh.get(n, []) == mrh_multipliers(n, base)


@pytest.mark.parametrize("base", [2, 7, 10])
def test_proven_cap_finds_every_member_below_the_sweep_limit(base):
    hi = 20000
    sweep = _Sweep(base, hi)
    for kind, table in (("arh", sweep.arh), ("mrh", sweep.mrh)):
        by_m: dict[int, list[int]] = {}
        for n, ms in table.items():
            for m in ms:
                by_m.setdefault(m, []).append(n)
        for m in range(1, 30):
            found = [n for n in multiplier_members(base, m, kind) if n <= hi]
            assert found == sorted(by_m.get(m, [])), (kind, m)


# -- tracer ------------------------------------------------------------------


def _rhnumbers_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "rhnumbers" or name.startswith("rhnumbers.")
        for attr, value in vars(module).items()
    } | {("DigitVec", attr): value for attr, value in vars(rhnumbers.DigitVec).items()}


def test_tracer_rebinds_every_importer_and_restores_originals():
    before = _rhnumbers_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert rhnumbers.search.reverse_int is rhnumbers.digitvec.reverse_int
        assert rhnumbers.search.reverse_int is not before[("rhnumbers.digitvec", "reverse_int")]
        assert rhnumbers.tables.reverse_int is rhnumbers.digitvec.reverse_int
        assert rhnumbers.cli.digit_bound is rhnumbers.bounds.digit_bound
        tracer.op = 0
        # Through the module attribute, as the worker calls it.
        assert rhnumbers.cli.run_cli(["search", "--kind", "arh", "--max", "2000"],
                                     io.StringIO()) == 0
        assert rhnumbers.cli.run_cli(["classify", "--base", "3", "4000"], io.StringIO()) == 0
    finally:
        tracer.restore()
    after = _rhnumbers_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    assert not tracer.absent
    self_s = tracer.self_times({0: 1.0})
    assert self_s["search.arh_pairs_chunk"] > 0 and self_s["cli.run_cli"] > 0
    assert tracer.calls["digitvec.reverse_int"] > 1000
    assert tracer.calls["digitvec.DigitVec.mul"] >= 2
    sizes, items = tracer.totals("size"), tracer.totals("items")
    assert sizes["search.arh_pairs_chunk"] == 1999
    assert 0 < items["search.arh_pairs_chunk"] < 1999
    assert items["search.scan_range"] == len(_Sweep(10, 2000).members("arh", 2000))
    assert all(span.end is not None for span in tracer.spans)


def test_tracer_records_a_removed_function_as_absent(monkeypatch):
    monkeypatch.delattr(rhnumbers.search, "palindromic_square_search")
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["search.palindromic_square_search"]
    assert ("search", "palindromic_square_search") in SPANNED


# -- statistics --------------------------------------------------------------


def test_betainc_closed_forms():
    for x in (0.1, 0.37, 0.9):
        assert betainc(1.0, 1.0, x) == pytest.approx(x)
        assert betainc(3.0, 1.0, x) == pytest.approx(x**3)
        assert betainc(2.5, 4.0, x) == pytest.approx(1 - betainc(4.0, 2.5, 1 - x))


def test_hd_quantile():
    values = list(range(1, 102))
    assert hd_quantile(values, 0.5) == pytest.approx(51)
    assert 88 < hd_quantile(values, 0.9) < 93
    assert hd_quantile([5.0] * 20, 0.9) == pytest.approx(5.0)
