"""Membership tests and multiplier witnesses for one integer in one base.

A number N is b-ARH when N = M*s_b(N) + (M*s_b(N))^R for some positive
integer M, and b-MRH when N = M*s_b(N) * (M*s_b(N))^R.  The witness
extractors here are complete per-N enumerations; they are meant for
values below WORD_SIZE_CAP.  verify_witness takes a supplied M instead
and works at any magnitude.  All arithmetic is on Python ints; the
DigitVec arguments only supply N's base-b digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .digitvec import DigitVec, digit_sum_int, reverse_int

# Enumeration contract bound for the per-N searches and range scans.
WORD_SIZE_CAP = 2**63 - 1

ARH = "arh"
MRH = "mrh"
NIVEN = "niven"


@dataclass(frozen=True)
class Witness:
    """Multiplier M with X = M*s_b(N) and X + X^R = N (ARH) or X * X^R = N (MRH)."""

    m: int
    x: int
    xr: int

    def to_json_dict(self) -> dict:
        return {"m": self.m, "x": self.x, "xr": self.xr}


@dataclass(frozen=True)
class VerifyFailure:
    """Defining equation failed: `combined` (X op X^R) != `expected` (N)."""

    kind: str
    m: int
    x: int
    xr: int
    combined: int
    expected: int


@dataclass(frozen=True)
class ClassifyResult:
    n: int
    base: int
    is_niven: bool
    arh: tuple[Witness, ...]
    mrh: tuple[Witness, ...]
    quadratic_niven: bool
    strongly_quadratic_niven: bool

    @property
    def arh_multiplicity(self) -> int:
        return len(self.arh)

    @property
    def mrh_multiplicity(self) -> int:
        return len(self.mrh)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "base": self.base,
            "niven": self.is_niven,
            "arh": [w.to_json_dict() for w in self.arh],
            "mrh": [w.to_json_dict() for w in self.mrh],
            "quadratic_niven": self.quadratic_niven,
            "strongly_quadratic_niven": self.strongly_quadratic_niven,
        }


def is_niven(n: DigitVec) -> bool:
    """True iff digit_sum(n) divides value(n); valid at any size."""
    s = n.digit_sum()
    if s == 0:
        raise ValueError("Niven test undefined for zero (digit sum 0)")
    return n.to_int() % s == 0


def _square(n: DigitVec) -> DigitVec:
    value = n.to_int()
    return DigitVec.from_int(value * value, n.base)


def is_quadratic_niven(n: DigitVec) -> bool:
    """N and N^2 both b-Niven (N^2 computed in the same base)."""
    return is_niven(n) and is_niven(_square(n))


def is_strongly_quadratic_niven(n: DigitVec) -> bool:
    """Quadratic Niven with s_b(N) == s_b(N^2)."""
    if not is_niven(n):
        return False
    sq = _square(n)
    return is_niven(sq) and n.digit_sum() == sq.digit_sum()


def arh_witnesses(n: DigitVec) -> list[Witness]:
    """All additive multipliers of n, ascending.

    Enumerates X over multiples of s = s_b(n) with s <= X < value(n);
    X + X^R = N forces s | X and X < N (X^R >= 1), so the scan is
    complete.
    """
    value = n.to_int()
    if not 1 <= value <= WORD_SIZE_CAP:
        raise ValueError(f"value {value} outside [1, {WORD_SIZE_CAP}]")
    base = n.base
    s = n.digit_sum()
    out = []
    x = s
    while x < value:
        if x + reverse_int(x, base) == value:
            out.append(_witness(x, s, base))
        x += s
    return out


def mrh_witnesses(n: DigitVec) -> list[Witness]:
    """All multiplicative multipliers of n, ascending.

    Trial division: for each divisor pair (d1, d2) of value(n), both
    orders are tested; X = d1 qualifies when rev(d1) == d2 and s | d1.
    """
    value = n.to_int()
    if not 1 <= value <= WORD_SIZE_CAP:
        raise ValueError(f"value {value} outside [1, {WORD_SIZE_CAP}]")
    base = n.base
    s = n.digit_sum()
    hits = set()
    for d1 in range(1, isqrt(value) + 1):
        if value % d1:
            continue
        d2 = value // d1
        for x, other in ((d1, d2), (d2, d1)):
            if x % s == 0 and reverse_int(x, base) == other:
                hits.add(x)
    return [_witness(x, s, base) for x in sorted(hits)]


def _witness(x: int, s: int, base: int) -> Witness:
    return Witness(m=x // s, x=x, xr=reverse_int(x, base))


def verify_witness(n: DigitVec, m: int, kind: str) -> Witness | VerifyFailure:
    """Check the defining equation for a supplied multiplier, at any size.

    X = M*s_b(n) is combined with X^R directly; no enumeration, no
    factoring.
    """
    if m < 1:
        raise ValueError(f"multiplier must be positive, got {m}")
    if kind not in (ARH, MRH):
        raise ValueError(f"kind must be {ARH!r} or {MRH!r}, got {kind!r}")
    return check_witness(n.to_int(), n.digit_sum(), n.base, m, kind)


def check_witness(value: int, s: int, base: int, m: int, kind: str) -> Witness | VerifyFailure:
    """The defining equation for N = value with s = s_b(N): X = M*s, X op X^R == N.

    Callers that test many multipliers of one N compute value and s once.
    """
    x = m * s
    xr = reverse_int(x, base)
    combined = x + xr if kind == ARH else x * xr
    if combined == value:
        return Witness(m=m, x=x, xr=xr)
    return VerifyFailure(kind=kind, m=m, x=x, xr=xr, combined=combined, expected=value)


def classify(n: DigitVec) -> ClassifyResult:
    """Full classification record: Niven flags plus both witness lists."""
    return build_result(
        n.to_int(),
        n.base,
        [w.x for w in arh_witnesses(n)],
        [w.x for w in mrh_witnesses(n)],
    )


def build_result(
    value: int, base: int, arh_products: list[int], mrh_products: list[int]
) -> ClassifyResult:
    """Classification record of N = value from its ascending witness products X.

    The one record builder: classify and the range scans both call it.
    """
    s = digit_sum_int(value, base)
    sq = value * value
    sq_sum = digit_sum_int(sq, base)
    niven = value % s == 0
    quad = niven and sq % sq_sum == 0
    return ClassifyResult(
        n=value,
        base=base,
        is_niven=niven,
        arh=tuple(_witness(x, s, base) for x in arh_products),
        mrh=tuple(_witness(x, s, base) for x in mrh_products),
        quadratic_niven=quad,
        strongly_quadratic_niven=quad and s == sq_sum,
    )
