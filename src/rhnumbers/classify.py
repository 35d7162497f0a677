"""Membership tests and multiplier witnesses for one integer in one base.

A number N is b-ARH when N = M*s_b(N) + (M*s_b(N))^R for some positive
integer M, and b-MRH when N = M*s_b(N) * (M*s_b(N))^R.  The witness
extractors here are complete per-N enumerations at any size, and each
kind has one digit-pair engine.  arh_witnesses solves N = X + X^R from
N's digits (arh_products).  mrh_witnesses lists N = X * X^R with
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
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from operator import add
from typing import Iterator, NamedTuple

from .digitvec import check_base, digit_count_int, digit_sum_int, digits_int, reverse_int

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
        """(Niven, quadratic Niven, strongly quadratic Niven).

        s | N; then also sq_sum | N^2; then also s == sq_sum.  The one
        rule for every flag of a record, read or rendered.
        """
        n, s, sq_sum = self.n, self.s, self.sq_sum
        niven = n % s == 0
        quad = niven and n * n % sq_sum == 0
        return niven, quad, quad and s == sq_sum

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
    """N and N^2 both b-Niven."""
    return is_niven(value, base) and is_niven(value * value, base)


def is_strongly_quadratic_niven(value: int, base: int) -> bool:
    """Quadratic Niven with s_b(N) == s_b(N^2)."""
    if not is_quadratic_niven(value, base):
        return False
    return digit_sum_int(value, base) == digit_sum_int(value * value, base)


def arh_witnesses(value: int, base: int) -> list[Witness]:
    """All additive multipliers of N = value, ascending, at any size (arh_products)."""
    _require_n(value, base)
    s = digit_sum_int(value, base)
    return [Witness(m=x // s, x=x, xr=value - x) for x in arh_products(value, base, s)]


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
    c_lo = 0
    p = [0] * k
    for j in range(k // 2):
        low = (digits[j] - c_lo) % base
        v = digits[k - 1 - j] + base * c_hi - low  # b*e + c_in
        if v not in (0, 1, base, base + 1):
            return None
        c_hi = v % base  # c_in, which position i-1 must now send up
        p[j] = p[k - 1 - j] = low + v - c_hi
        if p[j] > 2 * base - 2 or (j == 0 and p[j] < 1):
            return None
        c_lo = (p[j] + c_lo) // base
    if k % 2 == 0:
        return p if c_lo == c_hi else None
    mid = k // 2
    p[mid] = digits[mid] + base * c_hi - c_lo
    return p if p[mid] % 2 == 0 and 0 <= p[mid] <= 2 * base - 2 else None


def solve_arh(value: int, base: int) -> tuple[int, Iterator[int]]:
    """Count of, and ascending stream over, every X with X + X^R = value and s_b(value) | X.

    Complete at any size: every such X has one of the pair-sum vectors
    p that reversal_pair_sums lists.  Given (k, p), the high digit
    a_j = x_{k-1-j} of each pair fixes the low one, x_j = p_j - a_j, so
    X = x0 + sum_j a_j*(b^(k-1-j) - b^j).  Here x0 holds the sums p_j at
    the low positions and the middle digit p_mid/2, and a_j ranges over
    [max(p_j-b+1, 0), min(p_j, b-1)], with a_0 >= 1 (_pair_digits).  A
    backward DP over the pairs, mod s = s_b(value), gives for each pair
    the bitmask of residues from which some choice of the remaining high
    digits makes s | X (_reachable_masks), and a second one the number
    of such choices (_completions).  A depth-first walk then tries each
    high digit in ascending order and enters only reachable residues, so
    every branch it enters ends in a qualifying X (_ascending).  It
    yields exactly the qualifying X of that p, ascending, because X's
    high half decides its order and fixes its low half.  The X for
    k = D(value)-1 all lie below those for k = D(value).

    The count comes from the DP alone, so a caller can refuse an
    oversized output before listing anything.  Each DP takes up to
    k/2 * b steps on length-s residue sets for each p (a pair whose
    weight b^(k-1-j) - b^j is 0 mod s only scales the count); the walk
    takes k/2 steps on k-digit ints for each X it yields.
    """
    pair_sums = reversal_pair_sums(value, base)
    if not pair_sums:
        return 0, iter(())
    s = digit_sum_int(value, base)
    count = 0
    streams = []
    for k, p in pair_sums:
        x0, highs = _pair_digits(k, p, base)
        ways = _completions(k, base, highs, s, x0 % s)
        if ways:
            count += ways
            streams.append(_ascending(x0, k, base, highs, _reachable_masks(k, base, highs, s), s))
    return count, itertools.chain.from_iterable(streams)


def arh_products(value: int, base: int, s: int) -> Iterator[int]:
    """Ascending stream over every X with X + X^R = value and s | X, s = s_b(value).

    solve_arh's stream without its count, for a caller that has s at
    hand: pair_sum_products on each vector of reversal_pair_sums in turn.
    """
    return itertools.chain.from_iterable(
        products
        for k, p in reversal_pair_sums(value, base)
        if (products := pair_sum_products(base, k, p, s)) is not None
    )


def pair_sum_products(base: int, k: int, p: list[int], s: int) -> Iterator[int] | None:
    """Ascending X with k digits and pair sums p (so X + X^R = N) and s | X, s = s_b(N).

    The step solve_arh takes for each of its vectors, without the
    count: range scans meet each vector once, generating it from p
    rather than from N's digits, and take s from their digit-sum table.
    None when no such X exists.  The residue masks are exact (a residue
    is in masks[0] iff some choice of the high digits takes it to 0), so
    a stream that is returned is never empty, and a caller that only
    needs to know whether N is b-ARH need not walk it.
    """
    x0, highs = _pair_digits(k, p, base)
    masks = _reachable_masks(k, base, highs, s)
    if not masks[0] >> (x0 % s) & 1:
        return None
    return _ascending(x0, k, base, highs, masks, s)


def _pair_digits(k: int, p: list[int], base: int) -> tuple[int, list[range]]:
    """x0 (the low sums and the middle digit) and the range of each pair's high digit."""
    half = k // 2
    x0 = p[half] // 2 if k % 2 else 0
    for j in reversed(range(half)):
        x0 = x0 * base + p[j]
    highs = [range(max(p[j] - base + 1, 1 if j == 0 else 0), min(p[j], base - 1) + 1)
             for j in range(half)]
    return x0, highs


def _reachable_masks(k: int, base: int, highs: list[range], s: int) -> list[int]:
    """masks[t]: bitmask of the residues mod s from which pairs t.. can reach 0."""
    full = (1 << s) - 1
    mask = 1  # after the last pair: residue 0 only
    masks = [mask]
    for j in reversed(range(len(highs))):
        w = (pow(base, k - 1 - j, s) - pow(base, j, s)) % s
        if w:  # a weight of 0 mod s leaves every residue where it is
            next_mask = 0
            for a in highs[j]:
                shift = a * w % s
                next_mask |= ((mask >> shift) | (mask << (s - shift))) & full
            mask = next_mask
        masks.append(mask)
    masks.reverse()
    return masks


def _completions(k: int, base: int, highs: list[range], s: int, r0: int) -> int:
    """Number of high-digit choices that take residue r0 to 0 mod s."""
    ways = [1] + [0] * (s - 1)
    scale = 1  # true number of completions is scale * ways[r]
    for j in reversed(range(len(highs))):
        w = (pow(base, k - 1 - j, s) - pow(base, j, s)) % s
        if w == 0:  # no choice moves the residue: the pair only multiplies the count
            scale *= len(highs[j])
            continue
        next_ways = [0] * s
        for a in highs[j]:
            shift = a * w % s
            next_ways = list(map(add, next_ways, ways[shift:] + ways[:shift]))
        ways = next_ways
    return scale * ways[r0]


def _ascending(x0: int, k: int, base: int, highs: list[range], masks: list[int], s: int):
    """Depth-first walk over the high digits; masks[t] are the residues pair t can finish from.

    Pair t's step b^(k-1-t) - b^t is formed when the walk enters the
    pair, so memory stays linear in k.  The last pair finishes X from
    residue 0 alone, so its X are yielded as they are found.
    """
    half = len(highs)
    if not half:
        yield x0
        return
    stack = [(0, x0, x0 % s)]
    while stack:
        t, x, r = stack.pop()
        step, reachable = base ** (k - 1 - t) - base**t, masks[t + 1]
        if t + 1 == half:  # masks[half] holds residue 0 only
            for a in highs[t]:
                if (r + a * step) % s == 0:
                    yield x + a * step
            continue
        for a in reversed(highs[t]):  # popped smallest first
            r2 = (r + a * step) % s
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


def mrh_products(base: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Every (N, X) with N = X * X^R in [lo, hi], ascending.

    Write X = Y*b^t with Y free of trailing zeros.  Then X^R = Y^R,
    which has the same k digits as Y, so N = Y*Y^R*b^t, and Y*Y^R, of
    2k-1 or 2k digits, lies in [ceil(lo/b^t), floor(hi/b^t)].  A window
    that holds no multiple of b^t holds none of b^(t+1), which ends the
    walk over t.  So for lo = hi = N it visits only the t with b^t | N,
    and only the k that the digit count of N/b^t allows.
    _reversal_factors lists the Y of each (t, k).  This is the
    multiplicative twin of reversal_pair_sums and the range scans'
    pair_sum_vectors: one digit pair of Y at a time, from both ends.
    """
    found = []
    scale, lo = 1, max(lo, 1)  # every product is at least 1, and low >= 1 ends the walk
    while (low := -(-lo // scale)) <= (high := hi // scale):
        k_low, k_high = ((digit_count_int(v, base) + 1) // 2 for v in (low, high))
        for k in range(k_low, k_high + 1):
            found += [(y * r * scale, y * scale) for y, r in _reversal_factors(base, k, low, high)]
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
    window narrower than b^(i+1), and all but one for low = high; a
    wider window holds every residue.  Where the window is narrower
    than b^i and free digits remain, c sits at a multiple of b^(i+1) in
    Y and at b^i in Y^R, so with c at 0 in y and r,
    Y*Y^R = y*r + b^i*c*y_0 mod b^(i+1), y_0 being Y's nonzero last
    digit: the one residue left fixes c*y_0 mod b, and the run steps
    through that class of c alone.  Without the low prune, one
    N = Y*Y^R is a walk over all Y near sqrt(N).  The middle digit of
    an odd k is one more step, in which a sits at b^(k//2) in both
    factors and c is 0.  Once every digit is fixed the bounds meet, so
    each Y that the walk completes lies in the window.

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
            h, step = max(c, c_min), 1
            if span and width < w_lo:  # one residue passes: h*y_0 = j mod b
                y0, j = ya % base, -((ya * ra - low) % modulus // w_lo) % base
                g = gcd(y0, base)
                if j % g:
                    continue
                step = base // g
                h += (j // g * pow(y0 // g, -1, step) - h) % step
            for h in range(h, end, step):
                yc, rc = ya + h * w_hi, ra + h * w_lo
                p = yc * rc
                if p > high:
                    break
                if width < modulus and (p - low) % modulus > width:
                    continue
                stack.append((i + 1, yc, rc))


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
    """Full classification record of N = value: both digit sums and both witness lists."""
    _require_n(value, base)
    s, sq_sum = digit_sum_int(value, base), digit_sum_int(value * value, base)
    mrh = tuple(x for _, x in mrh_products(base, value, value) if x % s == 0)
    return ClassifyResult(value, base, s, sq_sum, tuple(arh_products(value, base, s)), mrh)
