"""Enumeration engines: range scans, complete per-multiplier sets, the
non-expressible counting experiment, and the palindromic-square search.

Range scans work forward from the witnesses rather than testing every
N; X is a witness product of N iff s_b(N) | X.  The additive scan
walks the digit-pair sum vectors p of N = X + X^R (pair_sum_vectors),
about (2b-1)^(k/2) of them for k-digit X against b^k values of X, and
tests each p's X for s_b(N) | X with a residue DP
(classify.pair_sum_masks).  The multiplicative lists come from
classify.mrh_products.  Both walks fix digit pairs from both ends and
prune them against the window's ends and, in a window narrower than
b^(i+1), its residues mod b^(i+1), so a narrow window far out visits
few of them.  A Niven scan tests every N, one block of the digit-sum
table at a time.

One engine (_hits) serves two views.  A filtered scan (--multiplier)
takes its hits from numbers_for_multiplier and each record from
classify; an unfiltered one walks [lo, hi] in windows that grow from
lo, holding one window's hits at a time, so a reader that stops early
(oeis) walks only the windows it reads.  scan_numbers yields N alone,
for b-files and oeis: it lists no witness, since the DP's exact masks
already say whether a vector has one, and a Niven scan walks no
vectors.  scan_range yields N and its ClassifyResult, the record that classify
gives (both digit sums and both ascending witness product lists),
under classify's listing limit; the CLI's json and csv views render
each record's text from it.  A zero-free scan drops a vector whose N
has a zero digit before it takes N's digit sum or tests its
witnesses.  Every window takes each hit's s_b(N) once, from one
DigitSums table grown to the window's need, and carries it to the
hit's record.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import chain
from math import isqrt, log2
from typing import Iterator, NamedTuple

from .bounds import digit_bound, digit_sum_cap
from .classify import (
    ARH,
    MAX_LISTED_WITNESSES,
    MRH,
    NIVEN,
    ClassifyResult,
    PairTables,
    _ascending,
    _listed_arh,
    _middle_sum,
    _pair_step,
    classify,
    mrh_products,
    pair_sum_masks,
)
from .digitvec import (
    check_base,
    digit_count_int,
    digit_sum_int,
    has_zero_digit,
    reverse_int,
)

ALLOW = "allow"
FORBID = "forbid"

# Bounds limit^2 in palindromic_square_search, checked without building
# it.  Range scans take any size; counts are bounded by their work instead.
WORD_SIZE_CAP = 2**63 - 1
# count_not_sum_of_reversal's work bound (_count_work): the largest k it
# admits in bases 2, 10, 64 and 256 (102,109, 83,693, 71,483 and 65,261)
# took 8-12 s of CPU each (2-core VM), and k = 2 in base 990,000 12 s.
_COUNT_WORK_LIMIT = 10**6


class _SearchFields(NamedTuple):
    base: int
    lo: int
    hi: int
    kind: str
    zero_digit_policy: str = ALLOW
    multiplier_filter: int | None = None


class SearchConfig(_SearchFields):
    """A range scan's parameters, checked when built: by the constructor, _make or _replace.

    lo and hi may have any size; a refusal prints neither, which may
    have too many digits to print.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_base(self.base)
        if not 1 <= self.lo <= self.hi:
            raise ValueError("need 1 <= lo <= hi")
        if self.kind not in (ARH, MRH, NIVEN):
            raise ValueError(f"kind must be one of {ARH!r}, {MRH!r}, {NIVEN!r}")
        if self.zero_digit_policy not in (ALLOW, FORBID):
            raise ValueError(f"zero_digit_policy must be {ALLOW!r} or {FORBID!r}")
        if self.multiplier_filter is not None:
            if self.multiplier_filter < 1:
                raise ValueError("multiplier_filter must be a positive integer")
            if self.kind == NIVEN:
                raise ValueError("multiplier_filter makes no sense for a Niven scan")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def pair_sum_vectors(base: int, lo: int, hi: int):
    """(N, k, p) for every digit-pair sum vector p whose N lies in [lo, hi], k ascending.

    p is the symmetric vector of a k-digit X with N = X + X^R, as
    classify.reversal_pair_sums describes it: p_j = p_{k-1-j} in
    [0, 2b-2], p_0 >= 1, and for odd k an even middle sum (at least 2
    when k = 1).  Every such p comes from some X, and
    N = sum_j p_j*(b^j + b^(k-1-j)) over the pairs plus p_mid*b^(k//2).
    Complete for [lo, hi]: X + X^R = N <= hi means X < N, so
    k = D(X) <= D(hi); and X, X^R < b^k give N < 2*b^k <= b^(k+1), so
    N >= lo needs k >= D(lo) - 1.  Every k from max(1, D(lo) - 1) to
    D(hi) is walked, so a window far out builds no weights for the
    lengths that cannot reach it.  Each N has at most one p for each k.

    The walk fixes the outer pair first.  A pair's loop stops once the
    partial sum passes hi, since larger values only add to it, and a
    value is skipped when even the largest sums of the pairs left
    cannot lift N to lo.  The pairs after pair i and the middle add
    multiples of b^(i+1), so the partial sum has N's residue mod
    b^(i+1), and in a window narrower than b^(i+1) (moduli[i] > 0) a
    value is also skipped when the window holds no N of that residue:
    one walk serves [N, N] and every wider window.

    The walk is one loop over a stack of one frame per fixed pair (the
    pair, the partial sum before it, an iterator over its untried
    values), so its memory grows with the pairs and it has no depth
    limit.
    """
    top, width = 2 * base - 2, hi - lo
    for k in range(max(1, digit_count_int(lo, base) - 1), digit_count_int(hi, base) + 1):
        half = k // 2
        weights = [base**j + base ** (k - 1 - j) for j in range(half)]
        values = [range(1 if j == 0 else 0, top + 1) for j in range(half)]
        if k % 2:  # the middle sum is twice a digit
            weights.append(base**half)
            values.append(range(2 if k == 1 else 0, top + 1, 2))
        rest = [0] * (len(weights) + 1)  # rest[i]: the most positions i.. can add
        for i in reversed(range(len(weights))):
            rest[i] = rest[i + 1] + top * weights[i]
        moduli = [base ** (i + 1) if width < base ** (i + 1) else 0 for i in range(len(weights))]
        p, last = [0] * k, len(weights) - 1
        stack = [(0, 0, iter(values[0]))]  # (pair i, partial sum before it, its untried values)
        while stack:
            i, partial, untried = stack[-1]
            w, left, modulus = weights[i], rest[i + 1], moduli[i]
            for v in untried:
                n = partial + v * w
                if n > hi:
                    stack.pop()
                    break
                if n + left < lo or modulus and (n - lo) % modulus > width:
                    continue
                p[i] = p[k - 1 - i] = v  # depth first: pairs before i still hold this path
                if i == last:
                    yield n, k, p[:]
                else:
                    stack.append((i + 1, n, iter(values[i + 1])))
                    break
            else:
                stack.pop()


class DigitSums:
    """s_b(n) for the n of a scan up to hi, and their squares, from one table of digit sums.

    The table T holds the digit sums of 0..B-1 for B = b^m, the first
    power of b whose square exceeds hi.  One loop, no recursion, takes
    s_b(n) as the sum of T over n's base-B digits: one divmod by B for
    every n <= hi, and at most three for its square, s_b(n^2) =
    sums(n * n), since n^2 < B^4.  T starts at one digit (B = b, kept
    as a range, so any base >= 2 costs nothing), and prepending each
    digit d to the numbers of T gives the table one digit longer.  T
    stops growing at _TABLE_CAP entries; past B^2 the loop takes one
    divmod more for each further m digits, which any n works with.  A
    range scan keeps one and grows it for each window [lo, hi] to
    min(hi, (hi - lo + 1)^2), so a narrow window far out (--min 10**14)
    builds no table of b*sqrt(hi) entries and no table size is built
    twice; it takes every digit sum from it, each hit's s_b(n) once.
    """

    __slots__ = ("base", "table", "size")

    def __init__(self, base: int, hi: int):
        self.base, self.table, self.size = base, range(base), base  # s_b(d) = d, at no cost
        self.grow(hi)

    def grow(self, hi: int) -> None:
        """Lengthen the table, digit by digit, to the size DigitSums(base, hi) would build."""
        base, table, size = self.base, self.table, self.size
        while size * size <= hi and size * base <= _TABLE_CAP:
            table = [d + t for d in range(base) for t in table]
            size *= base
        self.table, self.size = table, size

    def __call__(self, n: int) -> int:
        t, size, s = self.table, self.size, 0
        while n >= size:
            n, low = divmod(n, size)
            s += t[low]
        return s + t[n]

    def niven(self, lo: int, hi: int, zero_free: bool = False) -> Iterator[tuple[int, int]]:
        """(n, s_b(n)) for every n in [lo, hi] with s_b(n) | n, ascending.

        One block of the n that share n // B at a time: s_b(n) is the
        block's digit sum plus T[n % B], and each block's hits are
        yielded once that block is done, so the listing holds one block.
        With zero_free set, a block whose high part n // B is positive
        and has a zero digit is skipped whole, since all its n have that
        zero; the n of other blocks are left to the caller's filter.
        """
        t, size = self.table, self.size
        for high in range(lo // size, hi // size + 1):
            if zero_free and high and has_zero_digit(high, self.base):
                continue
            start, top = high * size, self(high)
            first, last = max(lo - start, 0), min(hi - start, size - 1)
            numbers = range(start + first, start + last + 1)
            yield from [
                (n, s) for n, low in zip(numbers, t[first:last + 1]) if n % (s := top + low) == 0
            ]


_TABLE_CAP = 2**20  # entries of a DigitSums table: 8 MB of list
_FIRST_WINDOW = 10**4  # values of the first window of a scan from 1; later ones span 9x their start
_WINDOW = 10**7  # the most values of [lo, hi] that one window of a range scan covers


def _hits(cfg: SearchConfig, records: bool):
    """Every hit of cfg.kind, ascending: (N, its ClassifyResult) with records set, else N.

    A filtered scan's hits are the members of [lo, hi] that
    numbers_for_multiplier lists, complete by digit_sum_cap, and each
    record is classify's.  An unfiltered range is walked in windows that
    grow from its start: the window from lo spans min(_WINDOW,
    max(_FIRST_WINDOW, 9*lo)) values, so a scan from 1 walks [1, 10^4],
    then about a decade at a time up to _WINDOW values.  Each window is
    finished (its hits sorted and yielded) before the next begins, so a
    scan holds one window's hits at a time and a reader that stops
    early pays only for the windows it reads.  Every window takes its
    digit sums from one DigitSums, grown to the window's need, and the
    pair-sum vectors' weights and residue masks from one PairTables,
    both made for this scan alone.  A record carries the complete
    ascending witness lists of N; without records only the work that
    decides membership is done.
    """
    base, m = cfg.base, cfg.multiplier_filter
    if m is not None:
        for n in numbers_for_multiplier(base, m, cfg.kind, cfg.zero_digit_policy, cfg.hi):
            if n >= cfg.lo:
                yield (n, classify(n, base)) if records else n
        return
    sums, tables, lo = DigitSums(base, 0), PairTables(base), cfg.lo
    while lo <= cfg.hi:
        hi = min(cfg.hi, lo + min(_WINDOW, max(_FIRST_WINDOW, 9 * lo)) - 1)
        sums.grow(min(hi, (hi - lo + 1) ** 2))
        yield from _window_hits(cfg, sums, tables, records, lo, hi)
        lo = hi + 1


def _window_hits(
    cfg: SearchConfig, sums: DigitSums, tables: PairTables, records: bool, lo: int, hi: int
):
    """_hits on the window [lo, hi] of an unfiltered range.

    X is a witness product of N iff s_b(N) | X, so an ARH scan keeps a
    pair-sum vector whose masks admit some X (pair_sum_masks), and a
    Niven scan with records tests only the vectors whose N is Niven.  A
    zero-free scan drops a vector whose N has a zero digit before any
    of that work, so its ARH hits need no second test; the MRH and
    Niven listings can hold an N with an inner zero, and their hits are
    tested as they are read.  The MRH lists keep the X that s_b(N)
    divides of the (N, X) that mrh_products lists; a zero-free scan
    passes it zero_free, so it lists no N that ends in 0.  Both hit
    maps hold N -> [s_b(N), X...], the X ascending.  A record's ARH
    list is the walk's (_ascending) only if no N of the window can pass
    MAX_LISTED_WITNESSES (a D-digit N has at most b^(k//2) X for each
    k = D-1, D), else _listed_arh's, which refuses such an N as classify
    does: for the N whose masks admit an X, and for every MRH hit.  No
    hit's s_b(N) is taken twice: a record reuses the one its map holds
    or, for Niven, the one the listing tested.  A numbers-only scan
    reads the hits alone, and a Niven hit in neither map gets empty
    witness lists without a slice.
    """
    base, kind = cfg.base, cfg.kind
    forbid = cfg.zero_digit_policy == FORBID
    most = 2 * base ** (digit_count_int(hi, base) // 2)  # ARH witnesses of any N <= hi
    listing = records and kind != MRH and most <= MAX_LISTED_WITNESSES
    mrh_map: dict[int, list[int]] = {}  # N -> [s_b(N), its witness products X, ascending]
    if records or kind == MRH:
        last = 0  # the pairs of one N come together: its s_b(N) is taken once
        for n, x in mrh_products(base, lo, hi, forbid):
            if n != last:
                last, s = n, sums(n)
            if x % s == 0:
                mrh_map.setdefault(n, [s]).append(x)
    arh_map: dict[int, list[int]] = {}  # the same for ARH
    if kind == ARH or records and kind == NIVEN:  # MRH records solve each hit instead
        for n, k, p in pair_sum_vectors(base, lo, hi):
            if forbid and has_zero_digit(n, base):
                continue
            s = sums(n)
            if kind == NIVEN and n % s:
                continue
            masks = pair_sum_masks(tables, k, p, s)
            if masks is not None:
                found = arh_map.setdefault(n, [s])
                if listing:  # k ascending, and the X of k-1 digits lie below those of k
                    found.extend(_ascending(tables, k, p, s, masks))
    if kind == NIVEN:
        candidates = sums.niven(lo, hi, forbid)
    else:
        hits = arh_map if kind == ARH else mrh_map
        candidates = ((n, hits[n][0]) for n in sorted(hits))
    if forbid and kind != ARH:  # every ARH hit passed the vector loop's test
        candidates = ((n, s) for n, s in candidates if not has_zero_digit(n, base))
    if not records:
        for n, _ in candidates:
            yield n
        return
    for n, s in candidates:
        found = arh_map.pop(n, None)  # popped: a window's lists and records are not held at once
        arh = tuple(found[1:] if listing else _listed_arh(n, base)) if found or kind == MRH else ()
        products = mrh_map.get(n)
        mrh = tuple(products[1:]) if products else ()
        # The record's fields in order, without the Python-level __new__ call
        # (twice the cost of the tuple itself, once per hit).
        yield n, tuple.__new__(ClassifyResult, (n, base, s, sums(n * n), arh, mrh))


def scan_numbers(cfg: SearchConfig):
    """Ascending stream of every hit N of cfg.kind: scan_range without the records.

    It lists no witness: an ARH scan only tests each pair-sum vector's
    masks, a Niven scan reads the digit-sum table alone, and an MRH
    scan lists its products without solving their ARH lists.
    """
    yield from _hits(cfg, records=False)


def scan_range(cfg: SearchConfig):
    """Ordered stream of (N, ClassifyResult) for every hit of cfg.kind.

    Each record carries N's digit sums and the complete ascending
    witness products of both kinds for that N.
    """
    yield from _hits(cfg, records=True)


def numbers_for_multiplier(
    base: int, multiplier: int, kind: str, zero_digit_policy: str = ALLOW, hi: int | None = None
) -> list[int]:
    """The complete set of b-ARH/b-MRH numbers with the given multiplier (those <= hi, if given).

    Forward generation: any qualifying N has s_b(N) <= digit_sum_cap
    (proven in bounds.digit_sum_cap from the definitions alone); each
    candidate digit sum s determines X = M*s and N, accepted iff
    s_b(N) == s.  A member N <= hi also has s <= (b-1)*D(hi), and
    s <= hi // M since N >= X.  The paper's digit-count bound plays no
    part here; paper_bound_conflicts checks the result against it.

    Casting out b-1 leaves only some digit sums to try.  Let r = b-1.
    Since b = 1 mod r, every v agrees with s_b(v) mod r, and so X^R,
    which holds the nonzero digits of X, agrees with X.  A member's
    s = s_b(N) agrees with N, so r divides s - 2*M*s (ARH, N = X + X^R)
    or s - (M*s)^2 (MRH, N = X*X^R).  The residues t in [0, r) that
    meet this are found once, and only s = t, t+r, ... up to the cap
    are tried (r, 2r, ... for t = 0); in base 2, r = 1 and every s is.
    That is about cap*|R|/r digit sums for the set R of those residues.
    A zero-free MRH listing also skips every s with b | M*s: X then
    ends in 0, and so does N = X*X^R.
    """
    if zero_digit_policy not in (ALLOW, FORBID):
        raise ValueError(f"zero_digit_policy must be {ALLOW!r} or {FORBID!r}")
    cap = digit_sum_cap(base, multiplier, kind)
    if hi is not None:
        cap = min(cap, (base - 1) * digit_count_int(hi, base), hi // multiplier)
    r, m = base - 1, multiplier
    residues = [t for t in range(min(r, cap + 1))  # a t above the cap is no s
                if (t - (2 * m * t if kind == ARH else (m * t) ** 2)) % r == 0]
    ends_in_zero = zero_digit_policy == FORBID and kind == MRH  # b | X drops N
    found = []
    for s in chain.from_iterable(range(t or r, cap + 1, r) for t in residues):
        x = m * s
        if ends_in_zero and x % base == 0:
            continue
        xr = reverse_int(x, base)
        n = x + xr if kind == ARH else x * xr
        if digit_sum_int(n, base) != s or (hi is not None and n > hi):
            continue
        if zero_digit_policy == FORBID and has_zero_digit(n, base):
            continue
        found.append(n)
    return sorted(found)


def paper_bound_conflicts(base: int, multiplier: int, kind: str, numbers: list[int]) -> list[int]:
    """Members with more digits than the paper's cap k_max allows (CONFLICT-WITH-PAPER)."""
    k_max = digit_bound(base, multiplier, kind).k_max
    return [n for n in numbers if digit_count_int(n, base) > k_max]


def count_not_sum_of_reversal(base: int, k: int) -> int:
    """Count of k-digit base-b integers not expressible as X + X^R.

    Only an X of k or k-1 digits reaches a k-digit N: a j-digit X gives
    X <= X + X^R < 2*b^j <= b^(j+1).  So the count is the window's
    (b-1)*b^(k-1) values less the N that one of two carry automata
    accepts.  A reads N as X + X^R for a k-digit X: pairs (t, k-1-t),
    top carry 0 and p_0 >= 1.  B reads it for a (k-1)-digit X: pairs
    (t, k-2-t) and N's leading digit as top carry, so that digit is 1;
    B's p_0 >= 1 holds by itself, since pair sums of 0 at both ends of X
    would leave N below 2*b^(k-2) <= b^(k-1).  Both step with
    classify._pair_step, the rule reversal_pair_sums reads one N with,
    and accept N iff it has a pair-sum vector of their length.

    Each automaton is deterministic: N's digits fix its carries at every
    step, so a count over digit strings meets each N it accepts on one
    path, once.  The N accepted by either number |A| + |B| - |A and B|.
    The count reads N from both ends, step t taking n_t and n_(k-1-t):
    A takes its pair t and B its pair t-1, (n_(t-1), n_(k-1-t)), so a
    joint state is (A's carries, B's carries, n_(t-1)).  |A and B| is
    counted on the joint states where both live (at most 16b, and 30 in
    every base tried), each of which a step leaves by at most four digit
    pairs (_pair_moves).  |A| and |B| are counted on each one's four
    carry states alone, stepped by the number of digit pairs that lead
    from each state to each.  At the end, for even k A's carries meet
    equal and n_(k/2-1) is B's middle digit; for odd k the middle digit
    is A's middle and the high digit of B's last pair.

    An input whose _count_work passes _COUNT_WORK_LIMIT is refused
    (ValueError) before b^k is built.
    """
    check_base(base)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    work = _count_work(base, k)
    if work > _COUNT_WORK_LIMIT:
        raise ValueError(
            f"counting the {k}-digit numbers of base {base} would take about {work:.2e} "
            f"work units of about 10 us, over the limit of {_COUNT_WORK_LIMIT:.0e}"
        )
    if k == 1:
        return base // 2  # N = 2X: the odd digits
    leads = [[0] * 4 for _ in range(4)]  # leads[c][c']: the digit pairs that take c to c'
    for c, lead in enumerate(leads):
        for low in range(base):
            for *_, after in _pair_moves(c, low, None, base):
                lead[after] += 1
    # Step 0 reads n_0 and N's leading digit n_(k-1) >= 1.  B starts in
    # carries (0, 1) when that digit is 1, with n_0 as its lagging digit.
    a_live, b_live, both = [0] * 4, [0, 1, 0, 0], Counter()  # b_live: per lagging digit
    for low in range(base):
        for _, high, p_0, a in _pair_moves(0, low, None, base):
            if high and p_0:
                a_live[a] += 1
                if high == 1:
                    both[a, 1, low] += 1
    moves = functools.cache(functools.partial(_pair_moves, base=base))
    for _ in range(1, k // 2):
        a_live, b_live = ([sum(n * lead[c] for n, lead in zip(live, leads)) for c in range(4)]
                          for live in (a_live, b_live))
        after = Counter()
        for (a, b, prev), n in both.items():
            for _, high, _, b_next in moves(b, prev, None):
                for low, _, _, a_next in moves(a, None, high):
                    after[a_next, b_next, low] += n
        both = after

    def middle(c: int, mid: int) -> bool:
        return _middle_sum(c >> 1, c & 1, mid, base) is not None

    # a_ends[c] and b_ends[c]: the ways A, and B for each lagging digit,
    # close from carries c on the digits left; both_ends: the N on which both do.
    if k % 2:  # the middle digit m is A's middle and the high digit of B's last pair
        a_ends = [sum(middle(c, m) for m in range(base)) for c in range(4)]
        b_ends = [lead[0] + lead[3] for lead in leads]
        both_ends = sum(
            n * sum(middle(a, m) for _, m, _, c in moves(b, prev, None) if c in (0, 3))
            for (a, b, prev), n in both.items()
        )
    else:  # A's carries meet equal, and the lagging digit is B's middle
        a_ends = [1, 0, 0, 1]
        b_ends = [sum(middle(c, mid) for mid in range(base)) for c in range(4)]
        both_ends = sum(n * a_ends[a] * middle(b, prev) for (a, b, prev), n in both.items())
    accepted = sum(n * e for n, e in zip(a_live + b_live, a_ends + b_ends)) - both_ends
    return (base - 1) * base ** (k - 1) - accepted


def _pair_moves(c: int, low: int | None, high: int | None, base: int):
    """(low, high, p_j, c') for each digit pair that passes a pair step from carries c.

    Either low or high is given, and the other is None.  A carry state
    c is 2*c_lo + c_hi.  The step needs
    p_j + c_in = n_i + b*c_hi with p_j = n_j - c_lo (mod b), so
    n_i = n_j - c_lo + c_in (mod b) for c_in 0 or 1: the given digit
    leaves two candidates for the other, each tried with
    classify._pair_step.
    """
    c_lo, c_hi = c >> 1, c & 1
    if high is None:
        pairs = {(low, (low - c_lo + c_in) % base) for c_in in (0, 1)}
    else:
        pairs = {((high + c_lo - c_in) % base, high) for c_in in (0, 1)}
    found = []
    for n_j, n_i in pairs:
        step = _pair_step(c_lo, c_hi, n_j, n_i, base)
        if step is not None:
            p_j, lo_next, hi_next = step
            found.append((n_j, n_i, p_j, 2 * lo_next + hi_next))
    return found


def _count_work(base: int, k: int) -> float:
    """count_not_sum_of_reversal's work from (b, k) alone, in units of about 10 us (2-core VM).

    Its passes over every digit cost about b units.  Each of its k/2
    steps costs 5 units, and one more for each 28,000 bits of its ints'
    size: A's and B's counts reach k*log2(b) bits, the joint ones under
    a bit per digit (weighted as 3, fitted at b = 2 to 256).
    """
    return base + k // 2 * (5 + k * (3 + log2(base)) / 28000)


def formula_lower_bound(base: int, k: int) -> int:
    """b^(k-1)*(b-3)/2 + b^(k-2), in exact integer arithmetic."""
    check_base(base)
    if k < 2:
        raise ValueError(f"formula needs k >= 2, got {k}")
    # b^(k-1)*(b-3) is even: b^(k-1) is for an even b, and b - 3 for an odd one.
    return base ** (k - 1) * (base - 3) // 2 + base ** (k - 2)


def palindromic_square_search(limit: int, base: int = 10) -> list[tuple[int, int, int]]:
    """All palindromic N <= limit with s_b(N^2) | N and N^2 zero-digit-free.

    Each (N, N^2, s_b(N^2)) in the result makes N^2 a zero-free b-MRH
    number with multiplier N / s_b(N^2), since N^R = N.  The
    palindromes are built from their first halves, at most about
    2*sqrt(b*limit) of them: an L-digit palindrome is its first
    h = ceil(L/2) digits followed by the reversal of its first L - h
    digits.  Lengths go up and, within a length, the first halves, which
    orders the palindromes ascending.
    """
    check_base(base)
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > isqrt(WORD_SIZE_CAP):
        raise ValueError("limit^2 exceeds word-size cap")
    out = []
    for length in range(1, digit_count_int(limit, base) + 1):
        h = (length + 1) // 2
        shift, odd = base ** (length - h), length % 2
        for half in range(base ** (h - 1), base**h):
            n = half * shift + reverse_int(half // base if odd else half, base)
            if n > limit:
                break
            sq = n * n
            if has_zero_digit(sq, base):
                continue
            s = digit_sum_int(sq, base)
            if n % s == 0:
                out.append((n, sq, s))
    return out
