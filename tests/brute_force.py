"""Brute-force references for the digit-pair solvers, the range scans and palsquare.

Each tries every candidate below a bound, so they are fit for small
inputs only: the tests check classify.solve_arh, the residue masks and
listing walk of one vector (pair_sum_masks, _ascending),
reversal_pair_sums, classify.mrh_products, the range scans,
count_not_sum_of_reversal and palindromic_square_search against them.
Far windows, beyond any brute force, check pair_sum_vectors against
the vectors that reversal_pair_sums reads from each N's digits.  The
family multiplier sets are checked against their digit patterns,
spelled out one member at a time.

The digit loops below are this module's own, and it imports nothing
from rhnumbers, so each comparison stands apart from the package.
"""

import itertools
from math import isqrt


def from_digits(ds: list[int], base: int) -> int:
    """Value of base-b digits, most significant first."""
    value = 0
    for d in ds:
        value = value * base + d
    return value


def reverse(x: int, base: int) -> int:
    """x's base-b digits read in reverse; trailing zeros of x vanish."""
    r = 0
    while x:
        x, d = divmod(x, base)
        r = r * base + d
    return r


def digit_sum(x: int, base: int) -> int:
    s = 0
    while x:
        x, d = divmod(x, base)
        s += d
    return s


def digit_count(x: int, base: int) -> int:
    """D(x) for x >= 1."""
    k = 0
    while x:
        x //= base
        k += 1
    return k


def has_zero_digit(x: int, base: int) -> bool:
    """Whether x >= 1 has a zero base-b digit."""
    while x:
        x, d = divmod(x, base)
        if d == 0:
            return True
    return False


def arh_products_brute(value: int, base: int) -> list[int]:
    """Every X with X + X^R = value and s_b(value) | X, ascending.

    X + X^R = N forces s | X and X < N (X^R >= 1), so trying every
    multiple of s = s_b(N) below N is complete.
    """
    s = digit_sum(value, base)
    return [x for x in range(s, value, s) if x + reverse(x, base) == value]


def pair_sum_products_brute(base: int, k: int, p: list[int]) -> list[int]:
    """Every k-digit X whose digit pairs x_j + x_{k-1-j} sum to p_j, ascending.

    Each choice of the high digits x_{k-1-j} (x_{k-1} >= 1, every digit
    in [0, b)) is spelled out digit by digit; the middle digit of an
    odd k is p_mid / 2.
    """
    half = k // 2
    middle = p[half] // 2 * base**half if k % 2 else 0
    pairs = [
        [
            a * base ** (k - 1 - j) + (p[j] - a) * base**j
            for a in range(max(p[j] - base + 1, 0 if j else 1), min(p[j], base - 1) + 1)
        ]
        for j in range(half)
    ]
    return sorted(middle + sum(choice) for choice in itertools.product(*pairs))


def is_expressible_brute(n: int, base: int) -> bool:
    """Whether n = X + X^R for some positive X (X < n suffices)."""
    return any(x + reverse(x, base) == n for x in range(1, n))


def arh_map_sweep(base: int, lo: int, hi: int) -> dict[int, list[int]]:
    """N -> ascending witness products X, for every b-ARH N in [lo, hi].

    Sweeps every X below hi: a witness X of N <= hi has X < N.
    """
    found: dict[int, list[int]] = {}
    for x in range(1, hi):
        n = x + reverse(x, base)
        if lo <= n <= hi and x % digit_sum(n, base) == 0:
            found.setdefault(n, []).append(x)
    return found


def mrh_products_brute(value: int, base: int) -> list[int]:
    """Every X with X * X^R = value, ascending, by trial division up to sqrt(value).

    Each divisor pair (d1, d2) of N is tested in both orders: X = d1
    qualifies when rev(d1) == d2.
    """
    hits = set()
    for d1 in range(1, isqrt(value) + 1):
        if value % d1:
            continue
        d2 = value // d1
        for x, other in ((d1, d2), (d2, d1)):
            if reverse(x, base) == other:
                hits.add(x)
    return sorted(hits)


def mrh_map_sweep(base: int, lo: int, hi: int) -> dict[int, list[int]]:
    """N -> ascending witness products X, for every b-MRH N in [lo, hi].

    Sweeps every Y <= sqrt(hi*b) with no trailing zero and each
    X = Y*b^t, since X^R = Y^R: Y^R > Y/b, so N >= Y*Y^R > Y^2/b.
    """
    found: dict[int, list[int]] = {}
    for y in range(1, isqrt(hi * base) + 1):
        if y % base == 0:
            continue
        n, x = y * reverse(y, base), y
        s = digit_sum(n, base)  # appending zeros to X leaves s_b(N) fixed
        while n <= hi:
            if n >= lo and x % s == 0:
                found.setdefault(n, []).append(x)
            n, x = n * base, x * base
    return {n: sorted(xs) for n, xs in found.items()}


def count_not_sum_sieve(base: int, k: int) -> int:
    """Count of k-digit base-b integers not of the form X + X^R.

    Marks X + X^R for every positive X below b^k; no X >= b^k can land
    in the k-digit window.
    """
    window_lo = base ** (k - 1) if k > 1 else 1
    window_hi = base**k
    marked = bytearray(window_hi - window_lo)
    for x in range(1, window_hi):
        t = x + reverse(x, base)
        if window_lo <= t < window_hi:
            marked[t - window_lo] = 1
    return (window_hi - window_lo) - sum(marked)


def palindromic_square_brute(limit: int, base: int) -> list[tuple[int, int, int]]:
    """(N, N^2, s_b(N^2)) for every palindromic N <= limit with s_b(N^2) | N, N^2 zero-free.

    Reverses every n <= limit to find the palindromes.
    """
    out = []
    for n in range(1, limit + 1):
        if reverse(n, base) != n:
            continue
        sq = n * n
        if has_zero_digit(sq, base):
            continue
        s = digit_sum(sq, base)
        if n % s == 0:
            out.append((n, sq, s))
    return out


def all_ones_multipliers_brute(base: int, p: int) -> list[int]:
    """[(1)^p c_0..c_{h-1} (1-c_{h-1})..(1-c_0)]_b for every bit string c, in product order.

    k = b^p and h = (k-2p)/2: the all-ones family's multipliers, each
    built from its digits.
    """
    half = (base**p - 2 * p) // 2
    out = []
    for bits in itertools.product((0, 1), repeat=half):
        inner = list(bits) + [1 - b for b in reversed(bits)]
        out.append(from_digits([1] * p + inner, base))
    return out


def alternating_multipliers_brute(base: int, p: int) -> list[int]:
    """[(1)^p 0 a_0 .. 0 a_{h-1} 0 (b-a_{h-1}) .. 0 (b-a_0) 0]_b for every a in [1, b-1]^h.

    In product order, with h = (k-2p)/2 for k = b^p: the alternating
    family's multipliers, each built from its digits.
    """
    half = (base**p - 2 * p) // 2
    out = []
    for free in itertools.product(range(1, base), repeat=half):
        alphas = list(free) + [base - a for a in reversed(free)]
        inner = []
        for a in alphas:
            inner += [0, a]
        out.append(from_digits([1] * p + inner + [0], base))
    return out
