"""Verbatim table fixtures, recomputation, and discrepancy adjudication.

The fixtures transcribe the printed tables exactly as they appear,
including suspected typos and duplicate rows; no entry is ever edited
by hand.  reproduce_table recomputes each row from scratch through the
bounded-complete multiplier enumeration, re-verifies every recomputed
member through the defining equation, and classifies each row:

  MATCH                 printed set equals the recomputed set
  PAPER_TYPO_SUSPECTED  mismatch explainable on the printed side (a
                        digit-reversed twin of a recomputed member, or
                        an omission of a member that re-verifies)
  TOOLKIT_MISMATCH      anything else; these fail the run

section1_counts reproduces the two headline counts with a composition
breakdown so that any definitional gap is attributable.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import ARH, MRH, VerifyFailure, verify_witness
from .digitvec import digit_count_int, has_zero_digit, reverse_int
from .search import (
    FORBID,
    SearchConfig,
    numbers_for_multiplier,
    scan_numbers,
    scan_range,
)

MATCH = "MATCH"
PAPER_TYPO_SUSPECTED = "PAPER_TYPO_SUSPECTED"
TOOLKIT_MISMATCH = "TOOLKIT_MISMATCH"

# Table 1: additive multipliers and their zero-free ARH numbers.
T1_ROWS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (1, (18, 99)),
    (2, (12, 33, 66, 99)),
    (3, (99,)),
    (4, (99,)),
    (5, (11, 22, 33, 44, 55, 66, 77, 88, 99)),
    (6, ()),
    (7, (747,)),
)

# Table 2: multiplicative multipliers and their zero-free MRH numbers.
# Row 1 prints "18"; the recomputation decides whether that is 81.
T2_ROWS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (1, (1, 18, 1458, 1729)),
    (2, (2268, 736)),
    (3, ()),
    (4, (1944, 7744)),
    (5, (71685,)),
)

# Table 3: (digit count, multiplier, zero-free MRH numbers), verbatim,
# including the duplicate (8, 66, ...) row and the 72/82 pair.
T3_ROWS: tuple[tuple[int, int, tuple[int, ...]], ...] = (
    (1, 1, (1,)),
    (2, 1, (81,)),
    (3, 2, (736,)),
    (4, 1, (1458, 1729)),
    (4, 2, (2268,)),
    (4, 4, (1944, 7744)),
    (5, 5, (71685,)),
    (5, 7, (23632,)),
    (5, 8, (94528,)),
    (5, 9, (42282,)),
    (5, 14, (51142,)),
    (5, 23, (78246,)),
    (6, 12, (132192,)),
    (6, 14, (188356, 247324)),
    (6, 19, (161595,)),
    (6, 21, (433755, 496692)),
    (6, 22, (234256,)),
    (6, 23, (685584,)),
    (6, 26, (258778,)),
    (6, 27, (332424,)),
    (6, 29, (679354,)),
    (6, 31, (122512,)),
    (6, 33, (176418,)),
    (6, 34, (132192, 751842)),
    (6, 36, (271188,)),
    (6, 37, (215821,)),
    (6, 38, (332424,)),
    (6, 39, (145314,)),
    (6, 44, (235224,)),
    (7, 22, (9379678,)),
    (7, 28, (6527836,)),
    (7, 29, (9253987,)),
    (7, 32, (2892672,)),
    (7, 33, (8673885,)),
    (7, 34, (7526716,)),
    (7, 38, (3773932, 6362226)),
    (7, 39, (5673564,)),
    (7, 41, (2187391,)),
    (7, 49, (4274613, 8239644)),
    (7, 63, (1821771,)),
    (7, 72, (7651584,)),
    (7, 73, (2895472,)),
    (7, 82, (7651584,)),
    (7, 84, (3252312,)),
    (8, 37, (13184839,)),
    (8, 46, (11361448,)),
    (8, 48, (14292288,)),
    (8, 53, (15437628,)),
    (8, 61, (15178752,)),
    (8, 66, (15995232,)),
    (8, 89, (7331464,)),
    (8, 66, (15995232,)),
    (8, 68, (11715516,)),
    (8, 71, (16746912,)),
    (8, 74, (12419568, 15478432)),
    (8, 75, (19348875,)),
    (8, 76, (17433792,)),
    (8, 77, (19552995,)),
    (8, 78, (12661272, 22694256)),
    (8, 79, (11437225,)),
    (8, 86, (21371688,)),
    (8, 89, (12918439,)),
)

TABLE_KINDS = {"T1": ARH, "T2": MRH, "T3": MRH}


class RowReport(NamedTuple):
    table: str
    digit_count: int | None
    multiplier: int
    paper_numbers: tuple[int, ...]
    recomputed: tuple[int, ...]
    verdict: str
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "table": self.table,
            "digit_count": self.digit_count,
            "multiplier": self.multiplier,
            "paper": list(self.paper_numbers),
            "recomputed": list(self.recomputed),
            "verdict": self.verdict,
            "detail": self.detail,
        }


class DiscrepancyReport(NamedTuple):
    table: str
    rows: tuple[RowReport, ...]
    # Recomputed (digit_count, multiplier, numbers) triples absent from
    # the fixture; only populated for Table 3, whose caption spans every
    # multiplier with a <= 8-digit zero-free member.
    unlisted: tuple[tuple[int, int, tuple[int, ...]], ...] = ()

    @property
    def has_toolkit_mismatch(self) -> bool:
        return any(r.verdict == TOOLKIT_MISMATCH for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "table": self.table,
            "rows": [r.to_json_dict() for r in self.rows],
            "unlisted": [
                {"digit_count": k, "multiplier": m, "numbers": list(ns)}
                for k, m, ns in self.unlisted
            ],
            "has_toolkit_mismatch": self.has_toolkit_mismatch,
        }


def _adjudicate(
    table: str,
    digit_count: int | None,
    multiplier: int,
    paper: tuple[int, ...],
    recomputed: list[int],
    kind: str,
) -> RowReport:
    paper_set, rec_set = set(paper), set(recomputed)
    if paper_set == rec_set:
        return RowReport(table, digit_count, multiplier, paper, tuple(recomputed), MATCH, "")
    # Ground the verdict: every recomputed member must re-verify exactly.
    unsound = [
        n
        for n in recomputed
        if isinstance(verify_witness(n, 10, multiplier, kind), VerifyFailure)
    ]
    if unsound:
        return RowReport(
            table, digit_count, multiplier, paper, tuple(recomputed),
            TOOLKIT_MISMATCH, f"recomputed members fail re-verification: {unsound}",
        )
    paper_only = sorted(paper_set - rec_set)
    rec_only = sorted(rec_set - paper_set)
    explanations = []
    unexplained = []
    for x in paper_only:
        twin = reverse_int(x, 10)
        x_verifies = not isinstance(verify_witness(x, 10, multiplier, kind), VerifyFailure)
        if twin in rec_only:
            explanations.append(f"printed {x} is the digit reversal of recomputed {twin}")
        elif x_verifies and digit_count is not None and digit_count_int(x, 10) != digit_count:
            explanations.append(
                f"printed {x} re-verifies with M={multiplier} but has "
                f"{digit_count_int(x, 10)} digits, not {digit_count} (misplaced row)"
            )
        else:
            unexplained.append(x)
    if rec_only:
        explanations.append(f"printed row omits verified member(s) {rec_only}")
    if unexplained:
        return RowReport(
            table, digit_count, multiplier, paper, tuple(recomputed),
            TOOLKIT_MISMATCH,
            f"printed-only {unexplained} neither re-verifies in place nor matches a "
            f"recomputed member; recomputed-only {rec_only}",
        )
    return RowReport(
        table, digit_count, multiplier, paper, tuple(recomputed),
        PAPER_TYPO_SUSPECTED, "; ".join(explanations),
    )


def _zero_free_mrh_by_digit_count(max_digits: int) -> dict[tuple[int, int], list[int]]:
    """Complete (digit_count, multiplier) -> numbers map for zero-free base-10 MRH."""
    cfg = SearchConfig(base=10, lo=1, hi=10**max_digits - 1, kind=MRH, zero_digit_policy=FORBID)
    groups: dict[tuple[int, int], list[int]] = {}
    for n, res in scan_range(cfg):  # ascending, so each list is sorted
        for x in res.mrh_products:
            groups.setdefault((digit_count_int(n, 10), x // res.s), []).append(n)
    return groups


def reproduce_table(table_id: str) -> DiscrepancyReport:
    """Recompute a printed table and adjudicate every fixture row."""
    if table_id not in TABLE_KINDS:
        raise ValueError(f"table id must be one of T1, T2, T3, got {table_id!r}")
    kind = TABLE_KINDS[table_id]
    rows: list[RowReport] = []
    if table_id in ("T1", "T2"):
        fixture = T1_ROWS if table_id == "T1" else T2_ROWS
        for m, printed in fixture:
            recomputed = numbers_for_multiplier(10, m, kind, FORBID)
            rows.append(_adjudicate(table_id, None, m, printed, recomputed, kind))
        return DiscrepancyReport(table=table_id, rows=tuple(rows))
    complete = _zero_free_mrh_by_digit_count(max_digits=8)
    listed_keys = set()
    for k, m, printed in T3_ROWS:
        listed_keys.add((k, m))
        recomputed = complete.get((k, m), [])
        rows.append(_adjudicate(table_id, k, m, printed, recomputed, kind))
    unlisted = tuple(
        (k, m, tuple(ns))
        for (k, m), ns in sorted(complete.items())
        if (k, m) not in listed_keys
    )
    return DiscrepancyReport(table=table_id, rows=tuple(rows), unlisted=unlisted)


def reproduce_all_tables() -> list[DiscrepancyReport]:
    return [reproduce_table(t) for t in ("T1", "T2", "T3")]


# -- headline counts ---------------------------------------------------

ARH_EXPECTED_BELOW_10000 = 264
MRH_EXPECTED_BELOW_10000 = 23


class CountsReport(NamedTuple):
    arh_count: int
    mrh_count: int
    arh_expected: int
    mrh_expected: int
    arh_numbers: tuple[int, ...]
    mrh_numbers: tuple[int, ...]
    arh_with_zero_digit: tuple[int, ...]
    mrh_with_zero_digit: tuple[int, ...]
    mrh_self_multiplier_only: tuple[int, ...]
    notes: tuple[str, ...] = ()

    @property
    def arh_matches(self) -> bool:
        return self.arh_count == self.arh_expected

    @property
    def mrh_matches(self) -> bool:
        return self.mrh_count == self.mrh_expected

    def to_json_dict(self) -> dict:
        return {
            "base": 10,
            "range": [1, 9999],
            "arh": {
                "count": self.arh_count,
                "expected": self.arh_expected,
                "matches": self.arh_matches,
                "numbers": list(self.arh_numbers),
                "with_zero_digit": list(self.arh_with_zero_digit),
            },
            "mrh": {
                "count": self.mrh_count,
                "expected": self.mrh_expected,
                "matches": self.mrh_matches,
                "numbers": list(self.mrh_numbers),
                "with_zero_digit": list(self.mrh_with_zero_digit),
                "self_multiplier_only": list(self.mrh_self_multiplier_only),
            },
            "notes": list(self.notes),
        }


def section1_counts() -> CountsReport:
    """Reproduce the headline counts (264 ARH, 23 MRH below 10000).

    The scan is literal; when a count disagrees, the composition fields
    and notes attribute the gap instead of hiding it.  One MRH scan of
    [1, 10000] gives both the [1, 9999] fields and the inclusive count.
    """
    arh_hits = list(scan_numbers(SearchConfig(base=10, lo=1, hi=9999, kind=ARH)))
    inclusive = list(scan_range(SearchConfig(base=10, lo=1, hi=10000, kind=MRH)))
    mrh_results = [(n, res) for n, res in inclusive if n <= 9999]
    mrh_hits = [n for n, _ in mrh_results]
    self_only = tuple(n for n, res in mrh_results if all(x == n for x in res.mrh_products))
    notes = []
    if len(mrh_hits) != MRH_EXPECTED_BELOW_10000:
        notes.append(
            f"literal scan of [1, 9999] finds {len(mrh_hits)} MRH numbers; "
            f"[1, 10000] inclusive finds {len(inclusive)} "
            "(10000 qualifies trivially with X = 10000, X^R = 1), so the printed "
            "count matches an inclusive-range search"
        )
    return CountsReport(
        arh_count=len(arh_hits),
        mrh_count=len(mrh_hits),
        arh_expected=ARH_EXPECTED_BELOW_10000,
        mrh_expected=MRH_EXPECTED_BELOW_10000,
        arh_numbers=tuple(arh_hits),
        mrh_numbers=tuple(mrh_hits),
        arh_with_zero_digit=tuple(n for n in arh_hits if has_zero_digit(n, 10)),
        mrh_with_zero_digit=tuple(n for n in mrh_hits if has_zero_digit(n, 10)),
        mrh_self_multiplier_only=self_only,
        notes=tuple(notes),
    )
