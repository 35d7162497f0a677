"""Acceptance criteria, one test per criterion.

Each test prints one [acceptance] PASS/FAIL line (run with -s to see
them live; they also appear in failure output).  Expected values are
exact; where the source text's own numbers are computationally wrong
(the 23-count, the printed b=2/p=4 multiplier list, the b=17/k=5
root-Niven bullet), the criterion is met by the documented discrepancy
the toolkit emits, never by silently editing the fixture.
"""

import io
import time

import pytest

from rhnumbers.bounds import digit_bound
from rhnumbers.classify import ARH, MRH, classify, is_niven, mrh_witnesses, reversal_pair_sums
from rhnumbers.cli import run_cli
from rhnumbers.digitvec import (
    digit_count_int,
    digit_sum_int,
    from_digits,
    has_zero_digit,
    render_digits,
)
from rhnumbers.families import (
    CONFLICT_WITH_PAPER,
    gen_all_ones,
    gen_alternating,
    gen_niven_not_mrh,
    gen_repunit12,
    gen_square_family,
    verify_family,
)
from rhnumbers.oeis import SEQ_ARH, SEQ_MRH, bfile_text, first_terms
from rhnumbers.search import (
    ALLOW,
    SearchConfig,
    count_not_sum_of_reversal,
    formula_lower_bound,
    numbers_for_multiplier,
    palindromic_square_search,
    scan_range,
)
from rhnumbers.tables import reproduce_table, section1_counts

SCAN_PLAN = [(10, 10**6), (2, 10**5), (3, 10**5), (4, 10**5), (5, 10**5)]


def check(cid, ok, detail, t0=None):
    elapsed = f" [{time.perf_counter() - t0:.2f}s]" if t0 is not None else ""
    line = f"[acceptance] {cid} {'PASS' if ok else 'FAIL'} - {detail}{elapsed}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def wide_scans():
    """(base, kind) -> list of (N, [multipliers]); shared by criteria 11 and 12."""
    results = {}
    for base, hi in SCAN_PLAN:
        for kind in (ARH, MRH):
            cfg = SearchConfig(base=base, lo=1, hi=hi, kind=kind)
            results[(base, kind)] = [
                (n, [w.m for w in (res.arh if kind == ARH else res.mrh)])
                for n, res in scan_range(cfg)
            ]
    return results


def test_c01_multiplier_one_mrh_set():
    t0 = time.perf_counter()
    assert digit_bound(10, 1, MRH).k_max == 5
    scanned = [
        n
        for n, _ in scan_range(
            SearchConfig(base=10, lo=1, hi=99999, kind=MRH, multiplier_filter=1)
        )
    ]
    complete = numbers_for_multiplier(10, 1, MRH, ALLOW)
    ok = scanned == complete == [1, 81, 1458, 1729]
    check("C01", ok, f"multiplier-1 MRH set over <=5 digits: {scanned}", t0)


def test_c02_section1_counts():
    t0 = time.perf_counter()
    report = section1_counts()
    arh_ok = report.arh_count == 264
    if report.mrh_matches:
        mrh_ok = True
        detail = f"ARH {report.arh_count}/264, MRH {report.mrh_count}/23 exact"
    else:
        # Documented discrepancy: the full composition must be emitted.
        mrh_ok = bool(report.notes) and len(report.mrh_numbers) == report.mrh_count
        print(f"[acceptance] C02 composition: MRH numbers = {list(report.mrh_numbers)}")
        print(
            f"[acceptance] C02 composition: with zero digits = "
            f"{list(report.mrh_with_zero_digit)}; self-multiplier-only = "
            f"{list(report.mrh_self_multiplier_only)}"
        )
        for note in report.notes:
            print(f"[acceptance] C02 note: {note}")
        detail = (
            f"ARH {report.arh_count}/264 exact; MRH {report.mrh_count} vs printed 23, "
            "gap attributed by composition report"
        )
    check("C02", arh_ok and mrh_ok, detail, t0)


def test_c03_table1_reproduction():
    t0 = time.perf_counter()
    report = reproduce_table("T1")
    expected = {
        1: (18, 99),
        2: (12, 33, 66, 99),
        3: (99,),
        4: (99,),
        5: (11, 22, 33, 44, 55, 66, 77, 88, 99),
        6: (),
        7: (747,),
    }
    rows_ok = all(
        row.verdict == "MATCH" and row.recomputed == expected[row.multiplier]
        for row in report.rows
    )
    with_zeros = numbers_for_multiplier(10, 6, ARH, ALLOW)
    ok = rows_ok and 909 in with_zeros
    check("C03", ok, f"all 7 rows MATCH; M=6 with zeros allowed -> {with_zeros}", t0)


def test_c04_negative_multiplier_results():
    t0 = time.perf_counter()
    arh9 = numbers_for_multiplier(10, 9, ARH, ALLOW)
    mrh3 = numbers_for_multiplier(10, 3, MRH, ALLOW)
    check("C04", arh9 == [] and mrh3 == [], f"ARH M=9 -> {arh9}, MRH M=3 -> {mrh3}", t0)


PRINTED_16 = {
    "111100001111", "111100010111", "111100101011", "111100111100",
    "111101001101", "111101010101", "111101101001", "111101110001",
    "111110001110", "111110010110", "111110101010", "111110110010",
    "111111001100", "111111010100", "111111101000", "111111110000",
}


def test_c05_all_ones_b2_p4():
    t0 = time.perf_counter()
    inst = gen_all_ones(2, 4)
    report = verify_family(inst)
    by_name = {r.name: r for r in report.results}
    generated = {render_digits(m, 2) for m in inst.predicted_multipliers}
    diff_printed = PRINTED_16 - generated
    diff_generated = generated - PRINTED_16
    # The printed list's 4th entry breaks the symmetric-digit condition;
    # brute force sides with the construction.  Any other deviation fails.
    known_typo = diff_printed == {"111100111100"} and diff_generated == {"111100110011"}
    if known_typo:
        print(
            "[acceptance] C05 PAPER-TYPO-SUSPECTED: printed [111100111100]_2 has "
            "identical digits at symmetric positions and is not a multiplier of "
            "65535; brute force confirms [111100110011]_2 instead"
        )
    ok = (
        len(generated) == 16
        and by_name["multiplier_set_complete"].verdict == "PASS"
        and by_name["not_niven"].verdict == "PASS"
        and known_typo
    )
    check(
        "C05",
        ok,
        "16 multipliers, brute-force set equality, N=65535 not 2-Niven; "
        "printed list matches except the one flagged typo entry",
        t0,
    )


def test_c06_alternating_b4_p1():
    t0 = time.perf_counter()
    inst = gen_alternating(4, 1)
    report = verify_family(inst)
    by_name = {r.name: r for r in report.results}
    rendered = {render_digits(m, 4) for m in inst.predicted_multipliers}
    ok = (
        rendered == {"102020", "101030", "103010"}
        and inst.number == 5185
        and by_name["multiplier_set_complete"].verdict == "PASS"
        and by_name["not_niven"].verdict == "PASS"
    )
    check("C06", ok, f"multipliers {sorted(rendered)}, N=5185 not 4-Niven, brute equality", t0)


def test_c07_repunit12_k012():
    t0 = time.perf_counter()
    ok = True
    details = []
    for k in (0, 1, 2):
        inst = gen_repunit12(k)
        report = verify_family(inst)
        ok &= report.passed
        details.append(f"k={k}: N has {digit_count_int(inst.number, 10)} digits")
    inst1 = gen_repunit12(1)
    ok &= inst1.predicted_multipliers == (6734,)
    inst2 = gen_repunit12(2)
    ok &= digit_count_int(inst2.number, 10) == 18
    check("C07", ok, "; ".join(details) + "; k=1 gives M=6734, X=60606", t0)


def test_c08_square_family():
    t0 = time.perf_counter()
    ok = True
    details = []
    for base, k, expect_m in [(3, 2, 2), (5, 2, 3), (7, 2, 4)]:
        inst = gen_square_family(base, k)
        report = verify_family(inst)
        by_name = {r.name: r for r in report.results}
        root = from_digits([base - 1] * (2 ** (k - 1)), base)
        ok &= report.passed or all(
            r.passed is not False for r in report.results if r.name != "root_niven"
        )
        ok &= by_name["digit_sum_match"].passed is True
        ok &= by_name["mrh_witness"].passed is True
        ok &= inst.predicted_multipliers == (expect_m,)
        ok &= is_niven(root, base)
        details.append(f"b={base}: M={expect_m}, root Niven")
    inst17 = gen_square_family(17, 5)
    report17 = verify_family(inst17)
    conflict = next(r for r in report17.results if r.name == "root_niven")
    ok &= conflict.verdict == CONFLICT_WITH_PAPER
    ok &= digit_count_int(inst17.number, 17) == 32  # exercises >64-bit arithmetic
    ok &= all(r.passed is not False for r in report17.results if r.name != "root_niven")
    print(
        f"[acceptance] C08 CONFLICT-WITH-PAPER: b=17, k=5 root recomputes as "
        f"17-Niven ({conflict.detail}); the printed bullet asserts otherwise"
    )
    check("C08", ok, "; ".join(details) + "; (17,5) conflict flagged, not silent", t0)


def test_c09_niven_not_mrh():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        inst = gen_niven_not_mrh(10, n)
        ok &= digit_sum_int(inst.number, 10) == 9 * n
        ok &= is_niven(inst.number, inst.base)
        ok &= mrh_witnesses(inst.number, inst.base) == []
        ok &= verify_family(inst).passed
    check("C09", ok, "n=1..8: digit sum 9n, Niven, exhaustively not MRH", t0)


def test_c10_counting_experiment():
    t0 = time.perf_counter()
    count = count_not_sum_of_reversal(10, 3)
    formula = formula_lower_bound(10, 3)
    ok = formula == 360 and count >= formula
    base2 = all(not reversal_pair_sums(2**k - 1, 2) for k in (3, 5, 7))
    check(
        "C10",
        ok and base2,
        f"sieve count {count} >= formula {formula}; [1^k]_2 non-ARH for k in 3,5,7",
        t0,
    )


def test_c11_bound_consistency(wide_scans):
    t0 = time.perf_counter()
    violations = []
    checked = 0
    for (base, kind), hits in wide_scans.items():
        for n, multipliers in hits:
            k = digit_count_int(n, base)
            for m in multipliers:
                checked += 1
                if k > digit_bound(base, m, kind).k_max:
                    violations.append((base, kind, n, m))
    check(
        "C11",
        not violations,
        f"{checked} witnesses across base-10 to 1e6 and bases 2-5 to 1e5; "
        f"violations: {violations[:5] or 'none'}",
        t0,
    )


def test_c12_oracle_equivalence(wide_scans):
    t0 = time.perf_counter()
    hi = 10**6
    ok = True
    for kind in (ARH, MRH):
        scanned = {}
        for n, multipliers in wide_scans[(10, kind)]:
            for m in multipliers:
                scanned.setdefault(m, []).append(n)
        for m in range(1, 13):
            bounded = [n for n in numbers_for_multiplier(10, m, kind, ALLOW) if n <= hi]
            if scanned.get(m, []) != bounded:
                ok = False
    check("C12", ok, "per-multiplier sets match the 1e6 scan for M=1..12, both kinds", t0)


def test_c13_palindromic_square_search():
    t0 = time.perf_counter()
    hits = {n: s for n, _, s in palindromic_square_search(1000)}
    ok = hits.get(434) == 31 and hits.get(484) == 22 and hits.get(828) == 36
    for n, sq, s in palindromic_square_search(1000):
        res = classify(sq, 10)
        ok &= n // s in [w.m for w in res.mrh]
        ok &= not has_zero_digit(res.n, res.base)
    check("C13", ok, f"434/484/828 present with s(N^2) = 31/22/36; squares classify as zero-free MRH", t0)


def test_c14_determinism_bfile():
    t0 = time.perf_counter()
    ok = True
    for kind, seq, count in ((ARH, SEQ_ARH, 264), (MRH, SEQ_MRH, 22)):
        out = io.StringIO()
        code = run_cli(["search", "--max", "9999", "--kind", kind, "--format", "bfile"], out)
        ok &= code == 0 and out.getvalue() == bfile_text(first_terms(seq, count))
    check("C14", ok, "search b-file below 1e4 equals the oeis one for ARH (264) and MRH (22)", t0)
