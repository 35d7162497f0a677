import json
import random
import time
import tracemalloc
from math import gcd, isqrt

import pytest
from brute_force import (
    arh_products_brute,
    digit_sum,
    is_expressible_brute,
    mrh_products_brute,
    pair_sum_products_brute,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rhnumbers.classify import (
    ARH,
    MAX_LISTED_WITNESSES,
    MRH,
    NIVEN,
    PairTables,
    VerifyFailure,
    Witness,
    arh_witnesses,
    classify,
    is_niven,
    is_quadratic_niven,
    is_strongly_quadratic_niven,
    mrh_products,
    mrh_witnesses,
    pair_sum_masks,
    reversal_pair_sums,
    solve_arh,
    verify_witness,
)
from rhnumbers.classify import _ascending, _completions
from rhnumbers.digitvec import digits_int, from_digits, reverse_int
from rhnumbers.search import pair_sum_vectors


class TestIsNiven:
    def test_1729(self):
        assert is_niven(1729, 10)

    def test_144_base7(self):
        # [144]_7 = 81, digit sum 9: Niven despite the printed example's framing.
        assert is_niven(81, 7)

    def test_10(self):
        assert is_niven(10, 10)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_niven(0, 10)


ENTRIES = {
    "classify": classify,
    "arh_witnesses": arh_witnesses,
    "mrh_witnesses": mrh_witnesses,
    "solve_arh": solve_arh,
    "reversal_pair_sums": reversal_pair_sums,
    "verify_witness_arh": lambda value, base: verify_witness(value, base, 5, ARH),
    "verify_witness_mrh": lambda value, base: verify_witness(value, base, 5, MRH),
    "is_niven": is_niven,
    "is_quadratic_niven": is_quadratic_niven,
    "is_strongly_quadratic_niven": is_strongly_quadratic_niven,
}


@pytest.mark.parametrize("name", ENTRIES)
@pytest.mark.parametrize("value,base", [(-1, 10), (0, 10), (7, 1)])
def test_int_entries_refuse_bad_input(name, value, base):
    # The digit helpers never return on -1 or in base 1, and 0 (digit sum 0,
    # X = 0) meets X op X^R = N for every M: each entry must refuse them first.
    with pytest.raises(ValueError):
        ENTRIES[name](value, base)


class TestArhWitnesses:
    def test_99_has_five(self):
        assert [w.m for w in arh_witnesses(99, 10)] == [1, 2, 3, 4, 5]

    def test_747(self):
        # Table 1's row M=7 lists 747; the complete multiplier set is larger
        # (324 + 423 = 522 + 225 = 720 + 27 = 747 as well, double-loop verified).
        ms = [w.m for w in arh_witnesses(747, 10)]
        assert 7 in ms
        assert ms == [7, 18, 29, 40]

    def test_one_has_none(self):
        assert arh_witnesses(1, 10) == []

    def test_witness_invariant_fields(self):
        for w in arh_witnesses(747, 10):
            assert w.x == w.m * (7 + 4 + 7)
            assert w.x + w.xr == 747

    def test_12_base10_but_not_base9(self):
        # ARH-ness depends on the base.
        assert [w.m for w in arh_witnesses(12, 10)] == [2]
        assert arh_witnesses(11, 9) == []  # [12]_9


class TestMrhWitnesses:
    def test_1729(self):
        assert [w.m for w in mrh_witnesses(1729, 10)] == [1]

    def test_332424_two_multipliers(self):
        assert [w.m for w in mrh_witnesses(332424, 10)] == [27, 38]

    @pytest.mark.parametrize("p", [11, 13, 97, 1009])
    def test_primes_never_mrh(self, p):
        assert mrh_witnesses(p, 10) == []

    def test_144_base7_not_mrh(self):
        assert mrh_witnesses(81, 7) == []  # [144]_7

    def test_trivial_power_of_base(self):
        # 100 = 100 * 1 with s = 1; the classifier admits M = N.
        assert [w.m for w in mrh_witnesses(100, 10)] == [100]

    def test_above_word_size(self):
        # Trial division took 20.6 s on 17 nines (2-core VM) and refused
        # every value above 2^63 - 1.
        assert mrh_witnesses(10**17 - 1, 10) == []
        assert [w.x for w in mrh_witnesses(1729 * 10**40, 10)] == [19 * 10**40]


class TestMrhProducts:
    def test_a_window_from_zero_or_below(self):
        # Every product is at least 1: a window reaching below 1 ends its walk.
        assert mrh_products(10, 0, 10) == [(1, 1), (4, 2), (9, 3), (10, 10)]
        assert mrh_products(10, -5, 0) == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=16))
    def test_one_value_matches_trial_division(self, value, base):
        expected = [(value, x) for x in mrh_products_brute(value, base)]
        assert mrh_products(base, value, value) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=10**15),
        st.integers(min_value=0, max_value=3),
    )
    def test_constructed_products_up_to_1e30(self, base, y, t):
        # N = Y * Y^R * b^t is beyond trial division, so it is checked by
        # construction: X = Y * b^t is listed, and every listed X is exact.
        while y % base == 0:
            y //= base
        n = y * reverse_int(y, base) * base**t
        assume(n <= 10**30)
        listed = mrh_products(base, n, n)
        assert (n, y * base**t) in listed
        assert all(m == n and x * reverse_int(x, base) == n for m, x in listed)
        assert listed == sorted(set(listed))


    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([2**20, 10**5]),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.randoms(use_true_random=False),
    )
    def test_constructed_products_in_large_bases(self, base, k, t, rng):
        # Bisecting the high digit of every low digit took 11-22 s on a
        # random 3-digit Y in base 2^20 (2-core VM).  Y and Y^R are both
        # listed, though the outer pair is walked with a <= c only.
        y = rng.randrange(base ** (k - 1), base**k)
        while y % base == 0:
            y //= base
        yr = reverse_int(y, base)
        n = y * yr * base**t
        listed = mrh_products(base, n, n)
        assert (n, y * base**t) in listed and (n, yr * base**t) in listed
        assert all(m == n and x * reverse_int(x, base) == n for m, x in listed)
        assert listed == sorted(set(listed))

    @pytest.mark.parametrize(
        "base,y",
        [(2**20, 2**40 + 3), (2**20, 3 * 2**40 + 2**20 + 5), (10**5, 999 * 10**10 + 12345 * 10**5 + 7)],
    )
    def test_three_digit_roots_in_large_bases(self, base, y):
        n = y * reverse_int(y, base)
        listed = mrh_products(base, n, n)
        assert (n, y) in listed and (n, reverse_int(y, base)) in listed
        assert all(m == n and x * reverse_int(x, base) == n for m, x in listed)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([10**3, 2**63, 2**70]),
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=0, max_value=10**4),
        st.randoms(use_true_random=False),
    )
    def test_zero_free_products_are_those_of_x_without_trailing_zero(
        self, base, t, near, below, above, rng
    ):
        # N = Y*Y^R*b^t ends in t zeros, so a zero-free listing stops after
        # t = 0.  Each window is built around such an N near 10^3, 2^63 or
        # 2^70, so that most windows hold a product.
        y = rng.randrange(1, isqrt(near // base**t) + 2)
        while y % base == 0:
            y //= base
        n = y * reverse_int(y, base) * base**t
        lo, hi = max(n - below, 1), n + above
        every = mrh_products(base, lo, hi)
        assert mrh_products(base, lo, hi, zero_free=True) == [(v, x) for v, x in every if x % base]

    def test_trailing_zeros_in_a_large_base(self):
        # N = Y*Y^R*b^2 for a three-digit Y in base 2^20.  The four-digit Y
        # of N's own window have no solution, but walking every low digit a
        # at their innermost pair, and every a <= c at their outer pair,
        # took 13.6 s (2-core VM).
        base, y = 2**20, 623701524813656180
        yr = reverse_int(y, base)
        n = y * yr * base**2
        start = time.perf_counter()
        listed = mrh_products(base, n, n)
        assert time.perf_counter() - start < 1
        assert listed == sorted([(n, y * base**2), (n, yr * base**2)])

    @pytest.mark.parametrize(
        "base,y", [(2**20, 188486560736250566853493531919), (1126, 1560314965863155442390)]
    )
    def test_middle_pairs_in_large_bases(self, base, y):
        # Five- and seven-digit Y: walking every low digit a at the pairs
        # between the outer and the innermost one took 14-21 s in base 2^20
        # and 0.4-0.8 s in base 1126 (2-core VM).
        yr = reverse_int(y, base)
        n = y * yr
        start = time.perf_counter()
        listed = mrh_products(base, n, n)
        assert time.perf_counter() - start < 1
        assert listed == sorted([(n, y), (n, yr)])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.data())
    def test_narrow_windows_match_trial_division(self, k, data):
        # Windows of 2 to b values around N = Y*Y^R: at a two-digit pair
        # i >= 1 of a k-digit Y, k >= 4, a window narrower than b^i holds
        # one value the pair can reach.  N <= 10^9 keeps trial division
        # fast; a k-digit Y has N >= b^(2k-2), so the bases reach 300,
        # 177, 31 and 13 for k = 2 to 5.
        base = data.draw(st.integers(min_value=5, max_value=min(300, int(10 ** (9 / (2 * k - 2))))))
        digits = data.draw(st.lists(st.integers(min_value=0, max_value=base - 1), min_size=k, max_size=k))
        y = from_digits(digits, base)
        n = y * reverse_int(y, base)
        assume(digits[0] and digits[-1] and n <= 10**9)
        width = data.draw(st.integers(min_value=1, max_value=base - 1))
        lo = n - data.draw(st.integers(min_value=0, max_value=width))
        window = range(lo, lo + width + 1)
        expected = [(v, x) for v in window for x in mrh_products_brute(v, base)]
        assert mrh_products(base, lo, lo + width) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=10**6),
    )
    @example(3, 1, 2701)
    def test_exact_width_windows_match_trial_division(self, base, i, lo):
        # A window [lo, lo + b^i] is as wide as the residues mod b^i, where
        # a pair i's narrow solver (one window value left below b^i) no
        # longer applies.  In base 3, [2701, 2704] holds 2704 = 52 * 52^R,
        # 52 = [1221]_3, which a narrow solver at its pair 1 misses.
        window = range(lo, lo + base**i + 1)
        expected = [(v, x) for v in window for x in mrh_products_brute(v, base)]
        assert mrh_products(base, lo, lo + base**i) == expected

    def test_a_window_as_wide_as_its_pair_residues(self):
        assert mrh_products(3, 2701, 2704) == [(2704, 52)]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=17, max_value=300),
        st.lists(st.integers(min_value=1, max_value=299), min_size=2, max_size=4),
        st.integers(min_value=0, max_value=1),
    )
    def test_products_in_medium_bases_match_trial_division(self, base, digits, exact):
        # Two- to four-digit Y in bases where one digit pair is more than a
        # few steps: N = Y*Y^R, or the value after it, against trial division.
        y = from_digits([d % base for d in digits], base)
        n = y * reverse_int(y, base) + 1 - exact
        assume(y % base and n <= 10**11)
        assert mrh_products(base, n, n) == [(n, x) for x in mrh_products_brute(n, base)]

    def test_a_near_power_of_a_large_base(self):
        # 2^60 + 12285: four digits in base 2^20.  Its digit pairs took
        # 6.4 s to rule out (2-core VM).
        assert mrh_products(2**20, 2**60 + 12285, 2**60 + 12285) == []


class TestVerifyWitness:
    def test_121212(self):
        got = verify_witness(121212, 10, 6734, ARH)
        assert isinstance(got, Witness)
        assert got.x == 60606

    def test_2268(self):
        got = verify_witness(2268, 10, 2, MRH)
        assert isinstance(got, Witness)
        assert (got.x, got.xr) == (36, 63)

    def test_failure_names_sides(self):
        got = verify_witness(1729, 10, 2, MRH)
        assert isinstance(got, VerifyFailure)
        assert got.combined == 38 * 83
        assert got.expected == 1729

    @pytest.mark.parametrize("m, kind, message", [
        (0, ARH, "multiplier must be positive"),
        (1, NIVEN, "kind must be 'arh' or 'mrh'"),
    ])
    def test_refuses_bad_multiplier_and_kind(self, m, kind, message):
        with pytest.raises(ValueError, match=message):
            verify_witness(1729, 10, m, kind)

    def test_big_instance_digitvec_only(self):
        # 18-digit member verified without any enumeration.
        got = verify_witness(int("12" * 9), 10, 2244668911335578, ARH)
        assert isinstance(got, Witness)


class TestQuadraticNiven:
    def test_22_base3_strongly(self):
        assert is_quadratic_niven(8, 3)  # [22]_3
        assert is_strongly_quadratic_niven(8, 3)

    def test_one(self):
        assert is_quadratic_niven(1, 10)
        assert is_strongly_quadratic_niven(1, 10)

    def test_11_fails(self):
        assert not is_quadratic_niven(11, 10)


class TestClassify:
    def test_99(self):
        res = classify(99, 10)
        assert len(res.arh) == 5
        assert res.mrh == ()

    def test_7744(self):
        res = classify(7744, 10)
        assert [w.m for w in res.mrh] == [4]

    def test_2(self):
        res = classify(2, 10)
        assert not res.is_niven or res.is_niven  # 2 is Niven (s=2)
        assert res.arh == () and res.mrh == ()

    def test_json_schema(self):
        d = classify(1729, 10).to_json_dict()
        assert set(d) == {
            "n", "base", "niven", "arh", "mrh",
            "quadratic_niven", "strongly_quadratic_niven",
        }
        assert d["mrh"] == [{"m": 1, "x": 19, "xr": 91}]
        json.dumps(d)  # serializable

    def test_too_many_additive_witnesses_are_refused_by_count(self):
        # The 100-digit repunit has 2^48 ARH witnesses; solve_arh counts
        # them without listing any.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{2**48} ARH witnesses, over the listing limit"):
            classify(int("1" * 100), 10)
        assert time.perf_counter() - start < 1.0
        assert 2**17 <= MAX_LISTED_WITNESSES

    def test_arh_witnesses_refuses_what_classify_refuses(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{2**48} ARH witnesses, over the listing limit"):
            arh_witnesses(int("1" * 100), 10)
        assert time.perf_counter() - start < 1.0
        assert len(arh_witnesses(int("1" * 40), 10)) == 131_072

    def test_a_large_witness_list_below_the_limit(self):
        res = classify(int("1" * 40), 10)
        count, stream = solve_arh(int("1" * 40), 10)
        assert len(res.arh_products) == count == 131_072
        assert res.arh_products == tuple(stream)


# -- completeness against a naive double-loop oracle -------------------


def oracle_rev_table(limit, base):
    """String-reversal table, independent of the library's arithmetic path."""
    if base == 10:
        return [int(str(x)[::-1]) if x else 0 for x in range(limit + 1)]
    table = [0] * (limit + 1)
    for x in range(1, limit + 1):
        digits = []
        v = x
        while v:
            digits.append(v % base)
            v //= base
        r = 0
        for d in digits:  # digits already least-significant first
            r = r * base + d
        table[x] = r
    return table


@pytest.mark.parametrize("base,limit", [(10, 20000)] + [(b, 4096) for b in range(2, 17) if b != 10])
def test_witness_completeness_small_range(base, limit):
    """arh/mrh witnesses agree with trying every M with M*s <= N."""
    rev = oracle_rev_table(limit, base)
    for n in range(1, limit + 1):
        s = digit_sum(n, base)
        adds = [x // s for x in range(s, n + 1, s) if x + rev[x] == n]
        muls = [x // s for x in range(s, n + 1, s) if x * rev[x] == n]
        assert [w.m for w in arh_witnesses(n, base)] == adds, (base, n)
        assert [w.m for w in mrh_witnesses(n, base)] == muls, (base, n)


def test_every_emitted_witness_reverifies():
    for n in range(1, 3000):
        for w in arh_witnesses(n, 10):
            assert isinstance(verify_witness(n, 10, w.m, ARH), Witness)
        for w in mrh_witnesses(n, 10):
            assert isinstance(verify_witness(n, 10, w.m, MRH), Witness)


@pytest.mark.parametrize("base", [2, 3, 7, 10])
def test_mrh_implies_niven(base):
    for n in range(1, 4000):
        if mrh_witnesses(n, base):
            assert is_niven(n, base), (base, n)


def _solver_agrees(tables, k, p, s, everything):
    """pair_sum_masks and _ascending on (k, p) at s against the brute-force listing `everything`."""
    expected = [x for x in everything if x % s == 0]
    masks = pair_sum_masks(tables, k, p, s)
    assert (masks is not None) == bool(expected), (k, p, s)
    assert (_completions(tables, k, p, s) > 0) == bool(expected), (k, p, s)
    listed = [] if masks is None else list(_ascending(tables, k, p, s, masks))
    assert listed == expected, (k, p, s)


class TestPairSumSolver:
    # The scans only ever pass s = s_b(N); the residue DP must hold for every
    # s >= 1, including s = 1, weights that are 0 mod s, masks that fill up
    # and vectors of no pair (k = 1) or one pair (k = 2, 3).
    @pytest.mark.parametrize("base", range(2, 17))
    def test_every_vector_below_b5(self, base):
        # Over the vectors of each length k, every s in [1, 3*(b-1)*k] is met
        # and every vector meets some s.
        tables = PairTables(base)
        lengths: dict[int, list[list[int]]] = {}
        for _, k, p in pair_sum_vectors(base, 1, base**5 - 1):
            lengths.setdefault(k, []).append(p)
        for k, vectors in lengths.items():
            s_max = 3 * (base - 1) * k
            for i, p in enumerate(vectors):
                everything = pair_sum_products_brute(base, k, p)
                for s in range(1 + i % s_max, s_max + 1, len(vectors)):
                    _solver_agrees(tables, k, p, s, everything)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=10**7),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_vectors_of_random_x(self, base, x, s):
        # The pair sums of a random X, at a random s in [1, 3*(b-1)*k].
        digits = digits_int(x, base)
        k = len(digits)
        assume(k <= 7)
        p = [digits[j] + digits[k - 1 - j] for j in range(k)]
        s = 1 + s % (3 * (base - 1) * k)
        _solver_agrees(PairTables(base), k, p, s, pair_sum_products_brute(base, k, p))

    @pytest.mark.parametrize("base", range(2, 17))
    def test_every_step_is_a_multiple_of_the_cast_out_modulus(self, base):
        # The modulus pair_sum_masks casts out divides every step, as its
        # docstring proves, and no larger one does: it is their gcd.
        tables = PairTables(base)
        for k in range(2, 13):
            assert gcd(*tables.steps(k)) == (base * base - 1 if k % 2 else base - 1), k

    @pytest.mark.parametrize("base", range(2, 17))
    def test_cast_out_vectors_read_no_inner_mask(self, base):
        # A vector with gcd(s, q) not dividing x0, for q = b^2 - 1 (odd k)
        # or b - 1 (even k), is refused before the DP: its inner-mask table
        # stays empty.  The table is read only when half >= 2, so such
        # vectors must be met; odd lengths must also meet vectors that only
        # the factor b + 1 of b^2 - 1 casts out.
        rng, pruned, with_inner, by_b_plus_1 = random.Random(base), 0, 0, 0
        for _, k, p in pair_sum_vectors(base, base**3, min(base**6, 10**5)):
            half = k // 2
            x0 = sum(p[j] * base**j for j in range(half))  # X with every high digit 0
            if k % 2:
                x0 += p[half] // 2 * base**half
            s = rng.randrange(1, 3 * (base - 1) * k + 1)
            q = base * base - 1 if k % 2 else base - 1
            if x0 % gcd(s, q) == 0:
                continue
            tables = PairTables(base)
            assert pair_sum_masks(tables, k, p, s) is None, (k, p, s)
            assert tables.row(k, s)[1] == {}, (k, p, s)
            pruned += 1
            with_inner += half >= 2
            by_b_plus_1 += x0 % gcd(s, base - 1) == 0
        assert with_inner > 0 and (base == 2 or by_b_plus_1 > 0), (pruned, with_inner, by_b_plus_1)


@pytest.mark.parametrize("digits", [[1, 2, 3], [5, 7, 1, 3], [9, 0, 4, 11, 2]])
def test_large_base_arh_memory_does_not_grow_with_base(digits):
    # One call's pair tables hold what its vectors need: in base 2^20 a
    # table sized by the base would take 16 MB for each (k, s).
    base = 2**20
    x = from_digits(digits, base)
    value = x + reverse_int(x, base)
    tracemalloc.start()
    try:
        count, products = solve_arh(value, base)
        listed = list(products)
        witnesses = arh_witnesses(value, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == len(listed) == len(witnesses) > 0
    assert all(y + reverse_int(y, base) == value for y in listed)
    assert peak < 10**6, peak


class TestDigitPairSolver:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=2, max_value=16))
    def test_matches_brute_force(self, value, base):
        count, products = solve_arh(value, base)
        expected = arh_products_brute(value, base)
        assert list(products) == expected  # exact, ascending
        assert count == len(expected)
        assert bool(reversal_pair_sums(value, base)) == is_expressible_brute(value, base)

    def test_1234554321_has_360_witnesses(self):
        # The O(N/s) scan this replaced took 66.6 s on this value (2-core VM).
        result = classify(1234554321, 10)
        assert len(result.arh) == 360
        xs = [w.x for w in result.arh]
        assert xs == sorted(xs)
        for w in result.arh:
            assert isinstance(verify_witness(1234554321, 10, w.m, ARH), Witness)

    def test_all_ones_base2_count_matches_listing(self):
        count, products = solve_arh(2**32 - 1, 2)
        assert count == len(list(products)) == 2048

    def test_count_without_listing_is_exponential(self):
        # [1^64]_2: 2^((64-2*6)/2) = 2^26 multipliers by the all-ones
        # family's construction; the count alone is cheap.
        count, _ = solve_arh(2**64 - 1, 2)
        assert count == 2**26

    def test_arh_witnesses_above_word_size(self):
        n = 10**30 + 1  # X = 10^30, X^R = 1
        assert [w.x for w in arh_witnesses(n, 10)] == [10**30]
