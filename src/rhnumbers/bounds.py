"""Bounds for ARH/MRH numbers as functions of (base, multiplier).

digit_sum_cap is proven in its docstring from the definitions alone and
caps every complete per-multiplier enumeration.  The digit-count bounds
(arh_digit_bound, mrh_digit_bound, digit_bound) are the paper's claims
k <= M + c(b), reported as stated and checked against the enumerated
members, never used to cap them.  Their base clauses hold for all M;
the strong clauses only under their literal M-thresholds (no
interpolation in between).  floor_log and digit_sum_cap use integer
arithmetic only, so exact powers never fall on the wrong side.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import ARH, MRH
from .digitvec import check_base, digit_count_int


class BoundSpec(NamedTuple):
    kind: str
    base: int
    multiplier: int
    k_max: int
    source: str

    def to_json_dict(self) -> dict:
        return self._asdict()


def floor_log(base: int, m: int) -> int:
    """Largest e with base**e <= m, by repeated integer multiplication."""
    check_base(base)
    if m < 1:
        raise ValueError(f"floor_log needs m >= 1, got {m}")
    e = 0
    power = base
    while power <= m:
        e += 1
        power *= base
    return e


def arh_digit_bound(base: int, multiplier: int) -> BoundSpec:
    """Digit-count cap for a b-ARH number with additive multiplier M."""
    check_base(base)
    if multiplier < 1:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    if base >= 4:
        k_max, source = multiplier + 2, "k <= M+2 (b >= 4)"
    else:
        k_max, source = multiplier + 3, "k <= M+3 (b = 2 or 3)"
    strong = (
        (base >= 10 and multiplier >= base**6)
        or (3 <= base <= 9 and multiplier >= base**7)
        or (base == 2 and multiplier >= base**8)
    )
    if strong:
        k_strong = 2 * floor_log(base, multiplier)
        if k_strong < k_max:
            k_max, source = k_strong, "k <= 2*floor(log_b M) (strong hypothesis)"
    return BoundSpec(kind=ARH, base=base, multiplier=multiplier, k_max=k_max, source=source)


def mrh_digit_bound(base: int, multiplier: int) -> BoundSpec:
    """Digit-count cap for a b-MRH number with multiplicative multiplier M."""
    check_base(base)
    if multiplier < 1:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    if base >= 6:
        k_max, source = multiplier + 4, "k <= M+4 (b >= 6)"
    elif base == 5:
        k_max, source = multiplier + 5, "k <= M+5 (b = 5)"
    else:
        k_max, source = multiplier + 7, "k <= M+7 (2 <= b <= 4)"
    strong = (
        (base >= 9 and multiplier >= base**9)
        or (5 <= base <= 8 and multiplier >= base**10)
        or (base == 4 and multiplier >= base**11)
        or (base == 3 and multiplier >= base**12)
        or (base == 2 and multiplier >= base**16)
    )
    if strong:
        k_strong = 3 * floor_log(base, multiplier)
        if k_strong < k_max:
            k_max, source = k_strong, "k <= 3*floor(log_b M) (strong hypothesis)"
    return BoundSpec(kind=MRH, base=base, multiplier=multiplier, k_max=k_max, source=source)


def digit_bound(base: int, multiplier: int, kind: str) -> BoundSpec:
    if kind == ARH:
        return arh_digit_bound(base, multiplier)
    if kind == MRH:
        return mrh_digit_bound(base, multiplier)
    raise ValueError(f"kind must be {ARH!r} or {MRH!r}, got {kind!r}")


def digit_sum_cap(base: int, multiplier: int, kind: str) -> int:
    """Largest digit sum s_b(N) any b-ARH/b-MRH number N with multiplier M can have.

    Proof.  Let s = s_b(N), X = M*s and D(v) the base-b digit count.
    X^R has at most D(X) digits, so N = X + X^R < 2*b^D(X) has
    D(N) <= D(X) + 1, and N = X * X^R < b^(2*D(X)) has D(N) <= 2*D(X).
    Every digit is at most b-1, so s <= (b-1)*D(N), and any member's
    digit sum satisfies

        s <= f(s) = (b-1) * (c1*D(M*s) + c0),

    with (c1, c0) = (1, 1) for ARH and (2, 0) for MRH.  For s in
    [b^j, b^(j+1)), M*s < b^D(M) * b^(j+1), so D(M*s) <= D(M)+j+1 and
    f(s) <= g(j) = (b-1) * (c1*(D(M)+j+1) + c0).  Take the first j >= 1
    with b^j > g(j).  Then b^(j+1) > g(j+1) too: the left side grows by
    (b-1)*b^j >= (b-1)*2 and the right side only by (b-1)*c1 <= (b-1)*2.
    By induction s > f(s) for every s >= b^j, so no member has s >= b^j.

    Below b^j, step down from b^j - 1 to the largest s with s <= f(s);
    every s skipped fails s <= f(s) and is no member's digit sum.  f is
    constant, F = (b-1)*(c1*d + c0), on each run of s with D(M*s) = d,
    so the steps go one run at a time: a failing s jumps to F if F
    lies in its run, else to the last s of the run below.  s = 1 always
    satisfies s <= f(s), since f(1) >= b-1, so the cap is at least 1.
    """
    check_base(base)
    if multiplier < 1:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    if kind == ARH:
        c1, c0 = 1, 1
    elif kind == MRH:
        c1, c0 = 2, 0
    else:
        raise ValueError(f"kind must be {ARH!r} or {MRH!r}, got {kind!r}")
    d_m = digit_count_int(multiplier, base)
    j, power = 1, base
    while power <= (base - 1) * (c1 * (d_m + j + 1) + c0):
        j += 1
        power *= base
    s = power - 1
    while True:
        d = digit_count_int(multiplier * s, base)
        f = (base - 1) * (c1 * d + c0)
        if s <= f:
            return s
        run_start = -(-(base ** (d - 1)) // multiplier)  # least s' with D(M*s') = d
        s = max(f, run_start - 1)
