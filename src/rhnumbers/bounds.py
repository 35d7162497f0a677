"""Digit-count bounds for ARH/MRH numbers as functions of (base, multiplier).

Every complete per-multiplier enumeration is capped by these bounds.
The base clauses hold for all M; the strong clauses only under their
literal M-thresholds (no interpolation in between).  floor_log uses
integer multiplication only, so exact powers never fall on the wrong
side of the floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import ARH, MRH
from .digitvec import check_base


@dataclass(frozen=True)
class BoundSpec:
    kind: str
    base: int
    multiplier: int
    k_max: int
    source: str

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "base": self.base,
            "multiplier": self.multiplier,
            "k_max": self.k_max,
            "source": self.source,
        }


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
