"""Membership tests and multiplier witnesses for one integer in one base.

A number N is b-ARH when N = M*s_b(N) + (M*s_b(N))^R for some positive
integer M, and b-MRH when N = M*s_b(N) * (M*s_b(N))^R.  The witness
extractors here are complete per-N enumerations; they are meant for
values below WORD_SIZE_CAP.  verify_witness takes a supplied M instead
and works at any magnitude.  Every public function takes N as
(value, base), a Python int and its numeration base, and refuses
values below 1 and bases below 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .digitvec import check_base, digit_sum_int, reverse_int

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


def _require_n(value: int, base: int, cap: int | None = None) -> None:
    """Refuse b < 2 and N < 1 (or N > cap) before any digit helper sees them.

    The digit helpers never return on a negative N (divmod(-1, b) is
    (-1, b-1)) or in base 1, and N = 0 (digit sum 0, X = 0) would pass
    the defining equation for every M.
    """
    check_base(base)
    if cap is not None and not 1 <= value <= cap:
        raise ValueError(f"value {value} outside [1, {cap}]")
    if value < 1:
        raise ValueError(f"value must be positive, got {value}")


def is_niven(value: int, base: int) -> bool:
    """True iff s_b(value) divides value; valid at any size."""
    _require_n(value, base)
    return value % digit_sum_int(value, base) == 0


def is_quadratic_niven(value: int, base: int) -> bool:
    """N and N^2 both b-Niven."""
    return is_niven(value, base) and is_niven(value * value, base)


def is_strongly_quadratic_niven(value: int, base: int) -> bool:
    """Quadratic Niven with s_b(N) == s_b(N^2)."""
    if not is_quadratic_niven(value, base):
        return False
    return digit_sum_int(value, base) == digit_sum_int(value * value, base)


def arh_witnesses(value: int, base: int) -> list[Witness]:
    """All additive multipliers of N = value, ascending.

    Enumerates X over multiples of s = s_b(N) with s <= X < N;
    X + X^R = N forces s | X and X < N (X^R >= 1), so the scan is
    complete.
    """
    _require_n(value, base, WORD_SIZE_CAP)
    s = digit_sum_int(value, base)
    out = []
    x = s
    while x < value:
        if x + reverse_int(x, base) == value:
            out.append(_witness(x, s, base))
        x += s
    return out


def mrh_witnesses(value: int, base: int) -> list[Witness]:
    """All multiplicative multipliers of N = value, ascending.

    Trial division: for each divisor pair (d1, d2) of N, both orders
    are tested; X = d1 qualifies when rev(d1) == d2 and s | d1.
    """
    _require_n(value, base, WORD_SIZE_CAP)
    s = digit_sum_int(value, base)
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


def verify_witness(value: int, base: int, m: int, kind: str) -> Witness | VerifyFailure:
    """Check the defining equation of N = value for a supplied multiplier, at any size.

    X = M*s_b(N) is combined with X^R directly; no enumeration, no
    factoring.
    """
    _require_n(value, base)
    if m < 1:
        raise ValueError(f"multiplier must be positive, got {m}")
    if kind not in (ARH, MRH):
        raise ValueError(f"kind must be {ARH!r} or {MRH!r}, got {kind!r}")
    return check_witness(value, digit_sum_int(value, base), base, m, kind)


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


def classify(value: int, base: int) -> ClassifyResult:
    """Full classification record of N = value: Niven flags plus both witness lists."""
    return build_result(
        value,
        base,
        [w.x for w in arh_witnesses(value, base)],
        [w.x for w in mrh_witnesses(value, base)],
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
