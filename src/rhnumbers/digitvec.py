"""Base-b digit views of integers, plus plain-int digit helpers.

All arithmetic in the package runs on Python ints, which are exact at
any size.  A DigitVec is only the digit view of a nonnegative integer:
its base-b digits, most significant first, in canonical form (no
leading zeros, except zero itself which is the single digit [0]).  It
parses and renders the digit strings of the CLI and the family JSON,
and builds family members digit by digit (from_digits).  Digits come
from divmod (from_int), never from str(int), so digit strings have no
int-to-str digit limit.

The plain-int helpers (reverse_int, digit_sum_int, digit_count_int,
has_zero_digit) are the digit operations the engines, classifier and
verifiers use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def check_base(base: int) -> int:
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")
    return base


def _canonical(digits: Sequence[int]) -> tuple[int, ...]:
    """Strip leading zeros; the empty/all-zero sequence collapses to (0,)."""
    i = 0
    while i < len(digits) - 1 and digits[i] == 0:
        i += 1
    out = tuple(digits[i:])
    return out if out else (0,)


@dataclass(frozen=True)
class DigitVec:
    """Base-b digit sequence, most significant digit first."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        check_base(self.base)
        if not self.digits:
            raise ValueError("digit sequence must be nonempty")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} out of range for base {self.base}")
        if len(self.digits) > 1 and self.digits[0] == 0:
            raise ValueError("leading zero in non-zero digit sequence")

    # -- construction ------------------------------------------------

    @classmethod
    def from_int(cls, n: int, base: int) -> "DigitVec":
        """Canonical digit vector of a nonnegative integer."""
        check_base(base)
        if n < 0:
            raise ValueError(f"negative value {n} has no digit vector")
        if n == 0:
            return cls(base, (0,))
        digits = []
        while n:
            n, d = divmod(n, base)
            digits.append(d)
        return cls(base, tuple(reversed(digits)))

    @classmethod
    def from_digits(cls, digits: Iterable[int], base: int) -> "DigitVec":
        """Build from a digit sequence, canonicalizing leading zeros."""
        return cls(check_base(base), _canonical(tuple(digits)))

    @classmethod
    def parse(cls, text: str, base: int) -> "DigitVec":
        """Inverse of render(): juxtaposed digits for b <= 10, comma-separated above."""
        check_base(base)
        text = text.strip()
        if not text:
            raise ValueError("empty digit string")
        if base <= 10:
            parts = list(text)
        else:
            parts = text.split(",")
        return cls.from_digits([int(p) for p in parts], base)

    # -- queries -----------------------------------------------------

    def to_int(self) -> int:
        """Exact value (unbounded)."""
        value = 0
        for d in self.digits:
            value = value * self.base + d
        return value

    def digit_sum(self) -> int:
        return sum(self.digits)

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Digits base-10-per-digit: juxtaposed for b <= 10, comma-separated above."""
        if self.base <= 10:
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)

    def __str__(self) -> str:
        return self.render()


# -- plain-int digit helpers (search engine workhorses) ---------------


def reverse_int(x: int, base: int) -> int:
    """Value of x's base-b digits reversed; trailing zeros of x vanish."""
    r = 0
    while x:
        x, d = divmod(x, base)
        r = r * base + d
    return r


def digit_sum_int(x: int, base: int) -> int:
    s = 0
    while x:
        x, d = divmod(x, base)
        s += d
    return s


def digit_count_int(x: int, base: int) -> int:
    if x == 0:
        return 1
    k = 0
    while x:
        x //= base
        k += 1
    return k


def has_zero_digit(x: int, base: int) -> bool:
    if x == 0:
        return True
    while x:
        x, d = divmod(x, base)
        if d == 0:
            return True
    return False
