"""Membership tests and multiplier witnesses for one integer in one base.

A number N is b-ARH when N = M*s_b(N) + (M*s_b(N))^R for some positive
integer M, and b-MRH when N = M*s_b(N) * (M*s_b(N))^R.  The witness
extractors here are complete per-N enumerations at any size, and each
kind has one digit-pair engine.  arh_witnesses solves N = X + X^R from
N's digits (solve_arh).  mrh_witnesses lists N = X * X^R with
mrh_products, which fixes X's digit pairs from both ends against N's
high digits and its residues mod b^(i+1); the range scans call the
same engine on their windows.  verify_witness takes a supplied M
instead and works at any magnitude.  classify gives N's whole record,
a ClassifyResult: s_b(N), s_b(N^2) and the witness products of both
kinds, from which its Niven flags and witnesses are read; the range
scans build the same record.  Every public function takes N as
(value, base), a Python int and its numeration base, and refuses
values below 1 and bases below 2.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from math import gcd, isqrt
from operator import add
from typing import Iterator, NamedTuple

from .digitvec import check_base, digit_count_int, digit_sum_int, digits_int, reverse_int

ARH = "arh"
MRH = "mrh"
NIVEN = "niven"

# The most additive witnesses classify and arh_witnesses list: the 40-digit
# repunit has 131,072 of them, the 100-digit one 2^48, more than any memory holds.
MAX_LISTED_WITNESSES = 1 << 20


class Witness(NamedTuple):
    """Multiplier M with X = M*s_b(N) and X + X^R = N (ARH) or X * X^R = N (MRH)."""

    m: int
    x: int
    xr: int

    def to_json_dict(self) -> dict:
        return self._asdict()


class VerifyFailure(NamedTuple):
    """Defining equation failed: `combined` (X op X^R) != `expected` (N)."""

    kind: str
    m: int
    x: int
    xr: int
    combined: int
    expected: int


def niven_flags(n: int, s: int, sq_sum: int) -> tuple[bool, bool, bool]:
    """(Niven, quadratic Niven, strongly quadratic Niven) of N = n, s = s_b(N), sq_sum = s_b(N^2).

    s | N; then also sq_sum | N^2; then also s == sq_sum.  The one rule
    for every flag of a record, read or rendered.
    """
    niven = n % s == 0
    quad = niven and n * n % sq_sum == 0
    return niven, quad, quad and s == sq_sum


class ClassifyResult(NamedTuple):
    """Classification record of N = n in base b: its digit sums and its witness products.

    s = s_b(N) and sq_sum = s_b(N^2); arh_products and mrh_products are
    the ascending witness products X of each kind (X + X^R = N, or
    X * X^R = N, with s | X), () when there are none.  The flags and
    the Witness lists are read from these fields: each X is a witness,
    so its reversal is N - X (ARH) or N // X (MRH), with no digits to
    reverse.  classify and the range scans are the only producers.
    """

    n: int
    base: int
    s: int
    sq_sum: int
    arh_products: tuple[int, ...]
    mrh_products: tuple[int, ...]

    def flags(self) -> tuple[bool, bool, bool]:
        """(Niven, quadratic Niven, strongly quadratic Niven): niven_flags of the record."""
        return niven_flags(self.n, self.s, self.sq_sum)

    @property
    def is_niven(self) -> bool:
        return self.flags()[0]

    @property
    def quadratic_niven(self) -> bool:
        return self.flags()[1]

    @property
    def strongly_quadratic_niven(self) -> bool:
        return self.flags()[2]

    @property
    def arh(self) -> tuple[Witness, ...]:
        n, s = self.n, self.s
        return tuple(Witness(x // s, x, n - x) for x in self.arh_products)

    @property
    def mrh(self) -> tuple[Witness, ...]:
        n, s = self.n, self.s
        return tuple(Witness(x // s, x, n // x) for x in self.mrh_products)

    def to_json_dict(self) -> dict:
        niven, quad, strong = self.flags()
        return {
            "n": self.n,
            "base": self.base,
            "niven": niven,
            "arh": [w.to_json_dict() for w in self.arh],
            "mrh": [w.to_json_dict() for w in self.mrh],
            "quadratic_niven": quad,
            "strongly_quadratic_niven": strong,
        }


def _require_n(value: int, base: int) -> None:
    """Refuse b < 2 and N < 1 before any digit helper sees them.

    The digit helpers never return on a negative N (divmod(-1, b) is
    (-1, b-1)) or in base 1, and N = 0 (digit sum 0, X = 0) would pass
    the defining equation for every M.
    """
    check_base(base)
    if value < 1:
        raise ValueError(f"value must be positive, got {value}")


def is_niven(value: int, base: int) -> bool:
    """True iff s_b(value) divides value; valid at any size."""
    _require_n(value, base)
    return value % digit_sum_int(value, base) == 0


def is_quadratic_niven(value: int, base: int) -> bool:
    """N and N^2 both b-Niven: the second of niven_flags."""
    _require_n(value, base)
    return niven_flags(value, digit_sum_int(value, base), digit_sum_int(value * value, base))[1]


def is_strongly_quadratic_niven(value: int, base: int) -> bool:
    """Quadratic Niven with s_b(N) == s_b(N^2): the third of niven_flags."""
    _require_n(value, base)
    return niven_flags(value, digit_sum_int(value, base), digit_sum_int(value * value, base))[2]


def arh_witnesses(value: int, base: int) -> list[Witness]:
    """All additive multipliers of N = value, ascending, at any size (solve_arh).

    Refused (ValueError) past MAX_LISTED_WITNESSES of them, as in classify.
    """
    _require_n(value, base)
    s = digit_sum_int(value, base)
    return [Witness(m=x // s, x=x, xr=value - x) for x in _listed_arh(value, base)]


def reversal_pair_sums(value: int, base: int) -> list[tuple[int, list[int]]]:
    """Every (k, p) such that value = X + X^R for a k-digit X with digit-pair sums p.

    Write a k-digit X as sum x_j*b^j with x_{k-1} >= 1.  Then
    X^R = sum x_{k-1-j}*b^j (a trailing zero of X becomes a leading zero
    of X^R), so value = sum p_j*b^j with p_j = x_j + x_{k-1-j}.  Hence p
    is symmetric, each p_j lies in [0, 2b-2], p_0 >= 1 because it holds
    the leading digit, and for odd k the middle sum is twice a digit, so
    it is even (for k = 1 it is value itself, so not 0).  Conversely,
    every such p is the pair-sum vector of some k-digit X.  Since
    X < value < 2*b^k, k is D(value)-1 or D(value).

    The carry into any position is 0 or 1, because p_j + 1 <= 2b-1.  For
    each k, p is read from both ends at once.  At pair (j, i = k-1-j) the
    carry c_lo into position j is known from below, and the carry c_hi
    that position i must send up is known from above; for the top
    position it is value's digit at index k.  The low end fixes p_j mod
    b: p_j = (n_j - c_lo) mod b + b*e.  The high end needs
    p_j + c_in = n_i + b*c_hi for a carry c_in into position i.  The two
    candidates for p_j differ by b >= 2, so at most one leaves c_in in
    {0, 1}, and that c_in is what position i-1 must send up.  The ends
    meet with equal carries (even k) or an even middle sum (odd k).  So
    each k has at most one p, and the list holds at most two entries.
    """
    _require_n(value, base)
    digits = digits_int(value, base)  # least significant first
    found = []
    for k in (len(digits) - 1, len(digits)):
        p = _pair_sums_of_length(digits, k, base)
        if p is not None:
            found.append((k, p))
    return found


def _pair_sums_of_length(digits: list[int], k: int, base: int) -> list[int] | None:
    """The pair sums p of a k-digit X with X + X^R = N, from N's digits; None if there is none."""
    c_hi = digits[k] if k < len(digits) else 0
    if k < 1 or c_hi > 1:
        return None
    c_lo, half = 0, []  # p_0 .. p_(k//2 - 1); p is symmetric
    for low, high in zip(digits[: k // 2], digits[k - 1 : (k - 1) // 2 : -1]):
        step = _pair_step(c_lo, c_hi, low, high, base)
        if step is None:
            return None
        p_j, c_lo, c_hi = step
        half.append(p_j)
    if half and not half[0]:  # p_0 holds X's leading digit
        return None
    if k % 2 == 0:
        return half + half[::-1] if c_lo == c_hi else None
    mid = _middle_sum(c_lo, c_hi, digits[k // 2], base)
    return None if mid is None else half + [mid] + half[::-1]


def _pair_step(c_lo: int, c_hi: int, low: int, high: int, base: int) -> tuple[int, int, int] | None:
    """One digit pair (j, i) of X + X^R = N, j < i: (p_j, next c_lo, next c_hi), or None.

    low and high are N's digits n_j and n_i; c_lo is the carry into
    position j, c_hi the carry that position i must send up (see
    reversal_pair_sums).  The low end fixes p_j = (n_j - c_lo) mod b + b*e,
    and the high end needs p_j + c_in = n_i + b*c_hi, so
    v = n_i + b*c_hi - (n_j - c_lo) mod b = b*e + c_in, with e and the
    carry c_in into position i each 0 or 1, and p_j <= 2b - 2.  The next
    pair, (j+1, i-1), has the carry out of position j below it and c_in
    above it.  The one carry rule of the package: reversal_pair_sums
    reads one N with it, and count_not_sum_of_reversal counts every
    k-digit N with it.
    """
    r = (low - c_lo) % base
    v = high + base * c_hi - r
    c_in = v % base
    if v < 0 or c_in > 1:
        return None
    p = r + v - c_in
    if p > 2 * base - 2:
        return None
    return p, (p + c_lo) // base, c_in


def _middle_sum(c_lo: int, c_hi: int, mid: int, base: int) -> int | None:
    """The middle pair sum of an odd-length X + X^R = N with middle digit mid; None if none.

    The ends meet at the middle position: p_mid + c_lo = mid + b*c_hi,
    and p_mid is twice X's middle digit, so even and at most 2b - 2.
    """
    p = mid + base * c_hi - c_lo
    return p if p % 2 == 0 and 0 <= p <= 2 * base - 2 else None


def solve_arh(value: int, base: int) -> tuple[int, Iterator[int]]:
    """Count of, and ascending stream over, every X with X + X^R = value and s_b(value) | X.

    Complete at any size: every such X has one of the pair-sum vectors
    p that reversal_pair_sums lists.  Given (k, p), the high digit
    a_j = x_{k-1-j} of each pair fixes the low one, x_j = p_j - a_j, so
    X = x0 + sum_j a_j*(b^(k-1-j) - b^j).  Here x0 holds the sums p_j at
    the low positions and the middle digit p_mid/2, and a_j ranges over
    [max(p_j-b+1, 0), min(p_j, b-1)], with a_0 >= 1 (_high_digits).  A
    backward DP over the pairs, mod s = s_b(value), gives for each pair
    the bitmask of residues from which some choice of the remaining high
    digits makes s | X (pair_sum_masks), and a second one the number
    of such choices (_completions).  A depth-first walk then tries each
    high digit in ascending order and enters only reachable residues, so
    every branch it enters ends in a qualifying X (_ascending).  It
    yields exactly the qualifying X of that p, ascending, because X's
    high half decides its order and fixes its low half.  The X for
    k = D(value)-1 all lie below those for k = D(value).  Every step
    b^(k-1-j) - b^j is a multiple of q = b^2 - 1 for odd k and of b - 1
    for even k, so every X of p agrees with x0 mod q: a p with
    gcd(s, q) not dividing x0 has no X, and pair_sum_masks drops it
    before the DP.

    The count comes from the DP alone, so a caller can refuse an
    oversized output before listing anything.  Each DP takes up to
    k/2 * b steps on length-s residue sets for each p (a pair whose
    weight b^(k-1-j) - b^j is 0 mod s only scales the count); the walk
    takes k/2 steps on k-digit ints for each X it yields.
    """
    pair_sums = reversal_pair_sums(value, base)
    s = digit_sum_int(value, base)
    tables = PairTables(base)
    count = 0
    streams = []
    for k, p in pair_sums:
        masks = pair_sum_masks(tables, k, p, s)
        if masks is not None:
            count += _completions(tables, k, p, s)
            streams.append(_ascending(tables, k, p, s, masks))
    return count, itertools.chain.from_iterable(streams)


def _listed_arh(value: int, base: int) -> Iterator[int]:
    """solve_arh's stream, refused (ValueError) when its count passes MAX_LISTED_WITNESSES."""
    count, products = solve_arh(value, base)
    if count > MAX_LISTED_WITNESSES:
        raise ValueError(
            f"N has {count} ARH witnesses, over the listing limit of {MAX_LISTED_WITNESSES}"
        )
    return products


class PairTables:
    """What the residue DP of pair_sum_masks shares across vectors, in one base.

    A k-digit X with pair sums p is x0 + sum_t a_t*step_t, with a_t the
    high digit of pair t and step_t = b^(k-1-t) - b^t.  For each (k, s),
    row(k, s) holds the weights step_t mod s, taken with pow mod s;
    inner[v]: the bitmask of the residues from which the innermost pair
    alone, with pair sum v, reaches 0 mod s, filled the first time a
    vector needs it; and g = gcd(s, b^2 - 1 for odd k, else b - 1), the
    part of s that every step is a multiple of (pair_sum_masks).  A
    scan meets many vectors of each (k, s), so these cost it once per
    (k, s), not once per vector, and its memory grows with the vectors
    it meets, not with the base.  steps(k) holds the
    steps themselves, which only the listing walk (_ascending) reads.
    Every entry is exact for any s >= 1; a scan or call makes its own
    object and drops it at the end.
    """

    __slots__ = ("base", "_rows", "_steps")

    def __init__(self, base: int):
        self.base = base
        self._rows: dict[tuple[int, int], tuple[list[int], dict[int, int], int]] = {}
        self._steps: dict[int, list[int]] = {}

    def row(self, k: int, s: int) -> tuple[list[int], dict[int, int], int]:
        """(weights mod s, inner masks by pair sum, g) of (k, s), made on first use."""
        row = self._rows.get((k, s))
        if row is None:
            base = self.base
            weights = [(pow(base, k - 1 - t, s) - pow(base, t, s)) % s for t in range(k // 2)]
            g = gcd(s, base * base - 1 if k % 2 else base - 1)
            row = self._rows[k, s] = (weights, {}, g)
        return row

    def steps(self, k: int) -> list[int]:
        """step_t = b^(k-1-t) - b^t for each pair t of k digits, made on first use."""
        steps = self._steps.get(k)
        if steps is None:
            base, steps = self.base, []
            high, low = base ** (k - 1), 1
            for _ in range(k // 2):
                steps.append(high - low)
                high //= base
                low *= base
            self._steps[k] = steps
        return steps


def pair_sum_masks(tables: PairTables, k: int, p: list[int], s: int) -> list[int] | None:
    """masks[t], the residues mod s from which the pairs after t reach 0; None if no X does.

    The X have k digits, pair sums p (so X + X^R = N) and s | X.  The
    step solve_arh takes for each of its vectors; range scans meet each
    vector once, generating it from p rather than from N's digits, take
    s = s_b(N) from their digit-sum table and share one PairTables
    across the scan.  mask holds the residues mod s from which pairs
    t.. can reach 0: residue 0 after the last pair, tables.row's inner
    mask after the innermost, and before each middle pair the union of
    the rotations of the mask after it by a*w, w its weight mod s, for
    each high digit a.  A weight of 0 leaves the mask as it is, and a
    full mask stays full.  The outer pair then tests only the residues
    (x0 + a*w) mod s that its own digits reach, up to the first one in
    the mask.  The masks are exact (a residue is in a mask iff some
    choice of the later high digits takes it to 0), so a vector with
    masks has an X: a membership test asks for None, and a listing
    passes the masks to _ascending ([] for k = 1 and s | X).

    Casting out b^2 - 1 first drops most vectors with no X before any
    mask is read.  step_t = b^t*(b^(k-1-2t) - 1), and b^e - 1 is a
    multiple of b - 1 for every e >= 1 and of b^2 - 1 for every even e.
    k - 1 - 2t is at least 1, and even when k is odd, so every step is
    a multiple of q = b^2 - 1 (odd k) or b - 1 (even k), and every X of
    p agrees with x0 mod q.  s | X needs g | X for g = gcd(s, q), so a
    vector with g not dividing x0 has no X; every other vector goes on
    to the DP, whose masks stay exact.
    """
    base, half = tables.base, k // 2
    x0 = _low_half(base, k, p)
    if not half:
        return None if x0 % s else []
    weights, inner, g = tables.row(k, s)
    if x0 % g:
        return None
    mask, full = 1, (1 << s) - 1
    masks = [mask]  # reversed at the end: masks[t] for the pairs after t
    if half > 1:
        v = p[half - 1]
        mask = inner.get(v)
        if mask is None:
            w = weights[half - 1]
            mask = 0
            for a in _high_digits(base, p, half - 1):
                mask |= 1 << (-a * w % s)
            inner[v] = mask
        masks.append(mask)
        # The middle and outer pairs spell out _high_digits' range: a call
        # per pair costs a base-2 scan about 1.6x the time per vector.
        for j in range(half - 2, 0, -1):
            w = weights[j]
            if w and mask != full:
                v = p[j]
                a = v - base + 1 if v >= base else 0
                shift, doubled, rotations = a * w % s, mask | mask << s, 0
                for _ in range(a, (v if v < base else base - 1) + 1):
                    rotations |= doubled >> shift
                    shift += w
                    if shift >= s:
                        shift -= s
                mask = rotations & full
            masks.append(mask)
    v, w = p[0], weights[0]
    a = v - base + 1 if v >= base else 1
    r = (x0 + a * w) % s
    for _ in range(a, (v if v < base else base - 1) + 1):
        if mask >> r & 1:
            break
        r += w
        if r >= s:
            r -= s
    else:
        return None
    return masks[::-1]


def _low_half(base: int, k: int, p: list[int]) -> int:
    """x0: X with every high digit 0, i.e. the pair sums p_j at the low positions and p_mid/2."""
    half = k // 2
    x0 = p[half] // 2 if k % 2 else 0
    for j in range(half - 1, -1, -1):
        x0 = x0 * base + p[j]
    return x0


def _high_digits(base: int, p: list[int], j: int) -> range:
    """The high digits a_j that pair j's sum p_j allows (a_0 >= 1: X has k digits)."""
    return range(max(p[j] - base + 1, 0 if j else 1), min(p[j], base - 1) + 1)


def _completions(tables: PairTables, k: int, p: list[int], s: int) -> int:
    """Number of high-digit choices for pair sums p that make s | X."""
    base, half = tables.base, k // 2
    weights = tables.row(k, s)[0]
    ways = [1] + [0] * (s - 1)
    scale = 1  # true number of completions is scale * ways[r]
    for j in reversed(range(half)):
        highs, w = _high_digits(base, p, j), weights[j]
        if w == 0:  # no choice moves the residue: the pair only multiplies the count
            scale *= len(highs)
            continue
        next_ways = [0] * s
        for a in highs:
            shift = a * w % s
            next_ways = list(map(add, next_ways, ways[shift:] + ways[:shift]))
        ways = next_ways
    return scale * ways[_low_half(base, k, p) % s]


def _ascending(tables: PairTables, k: int, p: list[int], s: int, masks: list[int]):
    """The X of pair_sum_masks' vector, ascending: a depth-first walk over the high digits.

    masks[t] holds the residues the pairs after t finish from.  Pair t
    moves X by its step and the residue by its weight mod s, both read
    from tables.  The last pair finishes X from residue 0 alone, so its
    X are yielded as they are found; a vector of no pair has one X.
    """
    base, half = tables.base, k // 2
    x0 = _low_half(base, k, p)
    if not half:
        yield x0
        return
    steps, weights = tables.steps(k), tables.row(k, s)[0]
    highs = [_high_digits(base, p, j) for j in range(half)]
    stack = [(0, x0, x0 % s)]
    while stack:
        t, x, r = stack.pop()
        step, w, reachable = steps[t], weights[t], masks[t]
        if t + 1 == half:  # masks[t] holds residue 0 only
            for a in highs[t]:
                if (r + a * w) % s == 0:
                    yield x + a * step
            continue
        for a in reversed(highs[t]):  # popped smallest first
            r2 = (r + a * w) % s
            if reachable >> r2 & 1:
                stack.append((t + 1, x + a * step, r2))


def mrh_witnesses(value: int, base: int) -> list[Witness]:
    """All multiplicative multipliers of N = value, ascending, at any size.

    The X of mrh_products on the one-value window [N, N] that s_b(N)
    divides.
    """
    _require_n(value, base)
    s = digit_sum_int(value, base)
    products = mrh_products(base, value, value)
    return [Witness(m=x // s, x=x, xr=value // x) for _, x in products if x % s == 0]


def mrh_products(base: int, lo: int, hi: int, zero_free: bool = False) -> list[tuple[int, int]]:
    """Every (N, X) with N = X * X^R in [lo, hi], ascending (with zero_free, b divides no X).

    Write X = Y*b^t with Y free of trailing zeros.  Then X^R = Y^R,
    which has the same k digits as Y, so N = Y*Y^R*b^t, and Y*Y^R, of
    2k-1 or 2k digits, lies in [ceil(lo/b^t), floor(hi/b^t)].  A window
    that holds no multiple of b^t holds none of b^(t+1), which ends the
    walk over t.  So for lo = hi = N it visits only the t with b^t | N,
    and only the k that the digit count of N/b^t allows.
    _reversal_factors lists the Y of each (t, k).  This is the
    multiplicative twin of reversal_pair_sums and the range scans'
    pair_sum_vectors: one digit pair of Y at a time, from both ends.

    A zero-free scan (zero_free set) drops every N with a zero digit,
    and N = Y*Y^R*b^t ends in t zeros, so the walk stops after t = 0:
    it lists exactly the (N, X) with X mod b != 0.
    """
    found = []
    scale, lo = 1, max(lo, 1)  # every product is at least 1, and low >= 1 ends the walk
    while (low := -(-lo // scale)) <= (high := hi // scale):
        k_low, k_high = ((digit_count_int(v, base) + 1) // 2 for v in (low, high))
        for k in range(k_low, k_high + 1):
            found += [(y * r * scale, y * scale) for y, r in _reversal_factors(base, k, low, high)]
        if zero_free:
            break
        scale *= base
    found.sort()
    return found


def _reversal_factors(base: int, k: int, low: int, high: int) -> Iterator[tuple[int, int]]:
    """(Y, Y^R) for every k-digit Y with no trailing zero and low <= Y*Y^R <= high.

    A depth-first walk fixes the digit pairs (y_i, y_{k-1-i}) of Y from
    both ends.  Y^R holds the same digits swapped: the high digit
    c = y_{k-1-i} sits at w_hi = b^(k-1-i) in Y and at w_lo = b^i in
    Y^R, the low digit a = y_i the other way round.  After pair i, the
    partial values y and r (free middle digits at 0) bound Y*Y^R from
    below, and y + span and r + span (free digits at b-1) from above.
    Both bounds grow with a and with c.  So the a whose upper bound
    (at the largest c) reaches low start at one bisection, the first a
    past high ends the pair (the high prune), and for each a the c
    whose interval meets the window form one run.  The run starts at
    the least c whose upper bound reaches low; that start only falls as
    a grows, so one pointer walks it down over the whole pair, and the
    first c past high ends the run.  The free digits sit at b^(i+1)
    and above in both factors, so y*r mod b^(i+1) is already Y*Y^R's
    residue, and it must be one that the window holds (the low prune).
    That removes all but (high-low+1)/b^(i+1) of the residues for a
    window narrower than b^(i+1); a wider window holds every residue.
    Below b^i, one value of the window is left, and _narrow_pairs
    solves each two-digit pair i >= 1 on a few lines of (a, c).
    Without the low prune, one N = Y*Y^R is a walk over all Y near
    sqrt(N).  The middle digit of an odd k is one more step, in which
    a sits at b^(k//2) in both factors and c is 0.  Once every digit is
    fixed the bounds meet, so each Y that the walk completes lies in
    the window.

    Y^R is itself a k-digit Y with no trailing zero, and Y^R*Y is the
    same product, so the outer pair is walked with a <= c only, and a
    completed Y whose outer digits differ also gives Y^R.  An outer pair
    with a = c is the outer pair of both, and the walk below it meets
    both.  For a two-digit Y near b^3 this stops a at sqrt(b), not b.
    """
    width = high - low
    stack = [(0, 0, 0)]
    while stack:
        i, y, r = stack.pop()
        if 2 * i >= k:
            yield y, r
            if y % base != r % base:  # outer digits a < c: Y^R was not walked
                yield r, y
            continue
        w_hi, w_lo = base ** (k - 1 - i), base**i
        modulus = w_lo * base
        span = max(w_hi - modulus, 0)
        first = 1 if i == 0 else 0  # Y's leading and trailing digits are nonzero
        c_first, end = (0, 1) if w_hi == w_lo else (first, base)
        mirrored = i == 0 and w_hi != w_lo
        if i and w_hi != w_lo and width < w_lo:  # one window value is left: solve lines
            stack += [(i + 1, yc, rc) for yc, rc in _narrow_pairs(base, k, i, y, r, low, high)]
            continue
        if mirrored and not width:  # the outer pair, for one N
            for a, c in _outer_pairs(base, k, low):
                yc, rc = a + c * w_hi, a * w_hi + c
                if yc * rc <= high and (yc + span) * (rc + span) >= low:
                    stack.append((1, yc, rc))
            continue

        def bound(a: int, c: int, free: int) -> int:  # Y*Y^R with the free digits at free
            return (y + free + a * w_lo + c * w_hi) * (r + free + a * w_hi + c * w_lo)

        start = bisect_left(range(base), low, first, key=lambda a: bound(a, end - 1, span))
        stop = bisect_left(  # the first a whose least product passes high
            range(base), high + 1, start, key=lambda a: bound(a, a if mirrored else c_first, 0)
        )
        c = None  # the run's start for the last a
        for a in range(start, stop):
            c_min = a if mirrored else c_first
            if c is None:
                c = bisect_left(range(end), low, c_min, key=lambda c: bound(a, c, span))
            ya, ra = y + a * w_lo, r + a * w_hi
            uy, ur = ya + span, ra + span  # bound(a, c, span) is (uy + c*w_hi) * (ur + c*w_lo)
            while c > c_min and (uy + (c - 1) * w_hi) * (ur + (c - 1) * w_lo) >= low:
                c -= 1
            for h in range(max(c, c_min), end):
                yc, rc = ya + h * w_hi, ra + h * w_lo
                p = yc * rc
                if p > high:
                    break
                if width < modulus and (p - low) % modulus > width:
                    continue
                stack.append((i + 1, yc, rc))


def _outer_pairs(base: int, k: int, n: int):
    """Outer digits (a, c), a <= c, of each k-digit Y, k >= 2, that Y*Y^R = n allows.

    Y = c*b^(k-1) + ... + a and Y^R = a*b^(k-1) + ... + c, so
    a*c*b^(2k-2) <= n < (a+1)*(c+1)*b^(2k-2): with M = n // b^(2k-2),
    m = a*c lies in (M - a - c - 1, M], within (M - 2b + 1, M].  And
    Y*Y^R = a*c mod b, so m = n mod b, which leaves at most two values
    of m.  The pairs are their divisor pairs with a <= c < b, found by
    trial division up to sqrt(m): one remainder for each a, where the
    walk took a bisection and a residue class.
    """
    top = n // base ** (2 * k - 2)
    m_lo = max(top - 2 * base + 2, 1)
    for m in range(m_lo + (n - m_lo) % base, top + 1, base):
        for a in range(max(-(-m // (base - 1)), 1), isqrt(m) + 1):
            if m % a == 0:
                yield a, m // a


def _narrow_pairs(base: int, k: int, i: int, y: int, r: int, low: int, high: int):
    """(y, r) after each (a, c) at a two-digit pair i >= 1, in a window narrower than b^i.

    _reversal_factors' node (i, y, r): c = y_{k-1-i} sits at w_hi in Y
    and at w_lo = b^i in Y^R, a the other way round, and w_hi >= b*w_lo.
    Every Y*Y^R below the node is y*r mod b^i, so one value T of the
    window is left (pair i-1's low prune kept that residue in it), and
    mod b^(i+1) it is y*r + b^i*L, L = l*a + f*c, l and f being Y's
    leading and last digit: L = (T - y*r)/b^i mod b.
    Both bounds of the walk are y*r + unit*L, unit = b^(k-1)*w_hi, plus
    a term that grows with a, c and the free digits, from 0 up to its
    value at a = c = b-1 with the free digits at b-1.  So the lower
    bound <= T and the upper one >= T hold L to a band of a few lines
    l*a + f*c = L.  On a line, a = a0 + t*f/g and c = c0 - t*l/g,
    g = gcd(l, f), so Y and Y^R are linear in t, one slope negative and
    one positive, and both bounds are concave quadratics in t.  The
    children are the run of t whose upper bound reaches low, less the
    run whose lower bound passes high: a few lines of four bisections
    each, plus one step per child.
    """
    w_hi, w_lo, top = base ** (k - 1 - i), base**i, base ** (k - 1)
    span = w_hi - w_lo * base
    target = low + (y * r - low) % w_lo
    lead, last = y // top, y % base
    g, d, unit = gcd(lead, last), target - y * r, top * w_hi
    da, dc = last // g, lead // g  # the step along a line: a += da, c -= dc
    sy, sr = da * w_lo - dc * w_hi, da * w_hi - dc * w_lo
    inverse = pow(dc, -1, da)
    most = (y + span + (base - 1) * (w_lo + w_hi)) * (r + span + (base - 1) * (w_lo + w_hi))
    line_lo = max((lead + last) * (base - 1) - (most - target) // unit, 0)
    for line in range(line_lo + (d // w_lo - line_lo) % base, d // unit + 1, base):
        if line % g:
            continue
        a0 = line // g * inverse % da
        c0 = (line - lead * a0) // last
        y0, r0 = y + a0 * w_lo + c0 * w_hi, r + a0 * w_hi + c0 * w_lo
        t_lo, t_hi = max(-((base - 1 - c0) // dc), 0), min((base - 1 - a0) // da, c0 // dc)
        start, stop = _concave_run(y0 + span, r0 + span, sy, sr, low, t_lo, t_hi)
        cut, resume = _concave_run(y0, r0, sy, sr, high + 1, start, stop - 1)
        for t in itertools.chain(range(start, cut), range(resume, stop)):
            yield y0 + sy * t, r0 + sr * t


def _concave_run(y: int, r: int, sy: int, sr: int, v: int, t_lo: int, t_hi: int) -> tuple[int, int]:
    """[start, stop): the t in [t_lo, t_hi] with (y + sy*t)*(r + sr*t) >= v, where sy*sr < 0.

    The product is concave in t, so it rises up to the integer peak
    and falls after it: one bisection on each side, on exact products,
    finds the run.  When t_lo <= t_hi + 1, t_lo <= start <= stop <= t_hi + 1,
    so a run taken within another lies inside it.
    """

    def product(t: int) -> int:
        return (y + sy * t) * (r + sr * t)

    peak = min(max((sy * r + sr * y) // (-2 * sy * sr), t_lo), t_hi)
    start = t_lo + bisect_left(range(t_lo, peak + 1), v, key=product)
    stop = peak + 1 + bisect_right(range(peak + 1, t_hi + 1), -v, key=lambda t: -product(t))
    return start, stop


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
    x = m * digit_sum_int(value, base)
    xr = reverse_int(x, base)
    combined = x + xr if kind == ARH else x * xr
    if combined == value:
        return Witness(m=m, x=x, xr=xr)
    return VerifyFailure(kind=kind, m=m, x=x, xr=xr, combined=combined, expected=value)


def classify(value: int, base: int) -> ClassifyResult:
    """Full classification record of N = value: both digit sums and both witness lists.

    An N with more than MAX_LISTED_WITNESSES additive witnesses is
    refused (ValueError) before any is listed (_listed_arh).
    """
    _require_n(value, base)
    arh = _listed_arh(value, base)
    s, sq_sum = digit_sum_int(value, base), digit_sum_int(value * value, base)
    mrh = tuple(x for _, x in mrh_products(base, value, value) if x % s == 0)
    return ClassifyResult(value, base, s, sq_sum, tuple(arh), mrh)
