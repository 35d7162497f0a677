"""Plain-int digit helpers, and the digit text at the package's edges.

All arithmetic in the package runs on Python ints, which are exact at
any size.  The plain-int helpers (reverse_int, digit_sum_int,
digits_int, digit_count_int, has_zero_digit) are the digit operations
the engines, classifier and verifiers use.  from_digits builds a value
from its base-b digits, most significant first; the family generators
build their members this way.  Digits are text in two places only: the
`classify --digits` input (parse_digits) and the family JSON
(render_digits), juxtaposed for b <= 10 and comma-separated above.
Digit text has no int-to-str digit limit.  Base 2 is format(value,
"b"), which has none, and base 10 up to _REVERSE_SPLIT_BITS bits is
int.__repr__, whose 617 digits stay below the smallest limit CPython
accepts (640).  Every other value is rendered by divmod, c digits at a
time, as the base-b^c digits of the value, each chunk's text looked up
in a table of the b^c chunk texts (_chunk_texts, at most
_CHUNK_TABLE_CAP entries, cached per base, so at most 255 tables; a
base above the cap builds none and renders digit by digit).
"""

from __future__ import annotations

from functools import lru_cache
from math import log2
from typing import Iterable

# Digit count above which from_digits joins, and digits_int (behind
# digit_sum_int and render_digits) splits, a value in halves: the
# per-digit loop costs time quadratic in the digit count, the halving
# only what its few big products and divisions cost.  Below it the loop
# is the faster, so the engines' word-size ints never leave it.
_SPLIT_DIGITS = 64
# Bit length above which reverse_int reverses by digits_int and
# _join_digits instead of its per-digit loop.  The loop divides all of x
# once per digit; the split wins from about 1,000 to 1,500 bits in bases
# 2 to 2^16, and at 2,048 bits it was the faster in every base measured
# (2-core VM, CPython 3.11), provided x has more than _SPLIT_DIGITS
# digits, below which digits_int takes one digit at a time as well.
# render_digits takes int.__repr__ for base-10 values up to this size.
_REVERSE_SPLIT_BITS = 2048
# Most entries in one base's table of chunk texts: 2^8 keeps each table
# a few kilobytes, while 4096-entry tables added 3.4 MB of peak RSS to
# the classify-verify benchmark workload, which renders in fifteen bases.
_CHUNK_TABLE_CAP = 1 << 8


def check_base(base: int) -> int:
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")
    return base


def from_digits(digits: Iterable[int], base: int) -> int:
    """Value of base-b digits, most significant first; leading zeros are allowed."""
    check_base(base)
    return _join_digits(list(digits), base)


def _join_digits(digits: list[int], base: int) -> int:
    """from_digits below _SPLIT_DIGITS digits, and hi*b^m + lo of the two halves above."""
    if len(digits) > _SPLIT_DIGITS:
        m = len(digits) // 2
        return _join_digits(digits[:-m], base) * base**m + _join_digits(digits[-m:], base)
    value = 0
    for d in digits:
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
        value = value * base + d
    return value


def parse_digits(text: str, base: int) -> int:
    """Inverse of render_digits (leading zeros are read, so "0012" is 12)."""
    check_base(base)
    text = text.strip()
    if not text:
        raise ValueError("empty digit string")
    parts = text if base <= 10 else text.split(",")
    return from_digits([int(p) for p in parts], base)


def render_digits(value: int, base: int) -> str:
    """Base-b digits of a nonnegative value, one decimal numeral per digit."""
    check_base(base)
    if value < 0:
        raise ValueError(f"negative value {value} has no digits")
    if base == 10 and value.bit_length() <= _REVERSE_SPLIT_BITS:
        return int.__repr__(value)
    if base == 2:
        return format(value, "b")
    sep = "" if base <= 10 else ","
    if base > _CHUNK_TABLE_CAP:
        return sep.join([str(d) for d in reversed(digits_int(value, base) or [0])])
    size, texts, heads = _chunk_texts(base)
    chunks = digits_int(value, size) or [0]  # least significant first
    top = chunks.pop()
    return sep.join([heads[top], *[texts[c] for c in reversed(chunks)]])


@lru_cache(maxsize=None)
def _chunk_texts(base: int) -> tuple[int, list[str], list[str]]:
    """(B, texts, heads) for a base within _CHUNK_TABLE_CAP.

    B = b^c is the largest power of b within the cap (c >= 1).  For
    n < B, texts[n] is the text of n's c base-b digits with leading
    zeros, as a chunk inside a value reads, and heads[n] that of its
    digits without them, as a value's leading chunk reads.  Appending
    each digit d to the table's texts gives the table one digit longer,
    as DigitSums grows its digit sums.
    """
    sep = "" if base <= 10 else ","
    digits = [str(d) for d in range(base)]
    texts, heads, size = digits, digits, base
    while size * base <= _CHUNK_TABLE_CAP:
        texts = [t + sep + d for t in texts for d in digits]
        heads = digits + [h + sep + d for h in heads[1:] for d in digits]
        size *= base
    return size, texts, heads


# -- plain-int digit helpers (search engine workhorses) ---------------


def reverse_int(x: int, base: int) -> int:
    """Value of x's base-b digits reversed; trailing zeros of x vanish."""
    if x.bit_length() > _REVERSE_SPLIT_BITS and x >= base**_SPLIT_DIGITS:
        return _join_digits(digits_int(x, base), base)  # least significant first: reversed
    r = 0
    while x:
        x, d = divmod(x, base)
        r = r * base + d
    return r


def digit_sum_int(x: int, base: int) -> int:
    if x.bit_length() > _SPLIT_DIGITS:  # else x has at most that many digits, in any base
        return sum(digits_int(x, base))
    s = 0
    while x:
        x, d = divmod(x, base)
        s += d
    return s


def digits_int(x: int, base: int) -> list[int]:
    """Base-b digits of x >= 0, least significant first ([] for 0).

    Above _SPLIT_DIGITS digits, x = hi*b^m + lo with m about half its
    digit count and the halves recurse, so the cost is that of the
    few big divisions rather than one division of all of x per digit.
    """
    if x.bit_length() > _SPLIT_DIGITS and x >= base**_SPLIT_DIGITS:
        m = int(x.bit_length() / log2(base)) // 2
        hi, lo = divmod(x, base**m)
        low = digits_int(lo, base)
        return low + [0] * (m - len(low)) + digits_int(hi, base)
    digits = []
    while x:
        x, d = divmod(x, base)
        digits.append(d)
    return digits


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
