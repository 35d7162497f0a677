"""Bounds for ARH/MRH numbers as functions of (base, multiplier).

digit_sum_cap is proven in its docstring from the definitions alone and
caps every complete per-multiplier enumeration.  The digit-count bound
digit_bound is the paper's claim k <= M + c(b), reported as stated and
checked against the enumerated members, never used to cap them.  Both
kinds follow one rule, read from a per-kind table (_RULES): the base
clause holds for all M, and the strong clause k <= e*floor(log_b M)
only from its literal threshold M >= b^t (no interpolation in between).
floor_log is the digit count less one, and it and digit_sum_cap use
integer arithmetic only, so exact powers never fall on the wrong side.
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
    """Largest e with base**e <= m: one less than m's base-b digit count."""
    check_base(base)
    if m < 1:
        raise ValueError(f"floor_log needs m >= 1, got {m}")
    return digit_count_int(m, base) - 1


# The paper's rule per kind: its base clauses k <= M + c (least base, c,
# condition), the strong factor e of k <= e*floor(log_b M), the strong
# thresholds M >= b^t (least base, t), and digit_sum_cap's (c1, c0).
# Each list runs down to base 2, so the first entry the base reaches holds.
_RULES = {
    ARH: (((4, 2, "b >= 4"), (2, 3, "b = 2 or 3")), 2, ((10, 6), (3, 7), (2, 8)), (1, 1)),
    MRH: (
        ((6, 4, "b >= 6"), (5, 5, "b = 5"), (2, 7, "2 <= b <= 4")),
        3,
        ((9, 9), (5, 10), (4, 11), (3, 12), (2, 16)),
        (2, 0),
    ),
}


def _rules(base: int, multiplier: int, kind: str) -> tuple:
    """kind's entry of _RULES, once base, multiplier and kind are checked, in that order."""
    check_base(base)
    if multiplier < 1:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    if kind not in (ARH, MRH):
        raise ValueError(f"kind must be {ARH!r} or {MRH!r}, got {kind!r}")
    return _RULES[kind]


def digit_bound(base: int, multiplier: int, kind: str) -> BoundSpec:
    """The paper's digit-count cap k_max for a b-ARH/b-MRH number with multiplier M.

    The base clause k <= M + c(b) holds for every M; the strong clause
    k <= e*floor(log_b M) replaces it once M reaches its literal
    threshold b^t, wherever it is the tighter of the two.
    """
    clauses, factor, thresholds, _ = _rules(base, multiplier, kind)
    for least, c, condition in clauses:
        if base >= least:
            break
    k_max, source = multiplier + c, f"k <= M+{c} ({condition})"
    for least, t in thresholds:
        if base >= least:
            break
    if multiplier >= base**t:
        k_strong = factor * floor_log(base, multiplier)
        if k_strong < k_max:
            k_max, source = k_strong, f"k <= {factor}*floor(log_b M) (strong hypothesis)"
    return BoundSpec(kind=kind, base=base, multiplier=multiplier, k_max=k_max, source=source)


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
    c1, c0 = _rules(base, multiplier, kind)[3]
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
