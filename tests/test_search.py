import functools
import itertools
import random
import time
import tracemalloc

import pytest
from brute_force import (
    arh_map_sweep,
    arh_products_brute,
    count_not_sum_sieve,
    digit_sum,
    has_zero_digit,
    is_expressible_brute,
    mrh_map_sweep,
    mrh_products_brute,
    palindromic_square_brute,
    reverse,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhnumbers import search
from rhnumbers.bounds import digit_bound, digit_sum_cap
from rhnumbers.classify import (
    ARH,
    MRH,
    NIVEN,
    ClassifyResult,
    Witness,
    classify,
    is_niven,
    is_quadratic_niven,
    is_strongly_quadratic_niven,
    mrh_witnesses,
    reversal_pair_sums,
    solve_arh,
    verify_witness,
)
from rhnumbers.search import (
    ALLOW,
    FORBID,
    DigitSums,
    WORD_SIZE_CAP,
    SearchConfig,
    count_not_sum_of_reversal,
    formula_lower_bound,
    numbers_for_multiplier,
    pair_sum_vectors,
    palindromic_square_search,
    paper_bound_conflicts,
    scan_numbers,
    scan_range,
)


def _paper_capped_members(base: int, m: int, kind: str, policy: str) -> list[int]:
    """Brute force over every digit sum s <= (b-1)*k_max, k_max the paper's digit bound."""
    found = []
    for s in range(1, (base - 1) * digit_bound(base, m, kind).k_max + 1):
        x = m * s
        n = x + reverse(x, base) if kind == ARH else x * reverse(x, base)
        if digit_sum(n, base) == s and not (policy == FORBID and has_zero_digit(n, base)):
            found.append(n)
    return sorted(found)


@functools.lru_cache(maxsize=None)
def _brute_witnesses(n: int, base: int) -> tuple[int, list[int], list[int]]:
    """(s_b(N), ARH products, MRH products) of N = n, each X found by trial."""
    s = digit_sum(n, base)
    return s, arh_products_brute(n, base), [x for x in mrh_products_brute(n, base) if x % s == 0]


class TestSearchConfig:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            SearchConfig(base=10, lo=5, hi=4, kind=ARH)
        with pytest.raises(ValueError):
            SearchConfig(base=10, lo=0, hi=4, kind=ARH)

    def test_admits_any_range_end(self):
        start = time.perf_counter()
        cfg = SearchConfig(base=10, lo=1, hi=10**5000, kind=ARH)
        assert time.perf_counter() - start < 0.1
        assert cfg.hi == 10**5000

    def test_range_refusal_prints_no_value(self):
        # Either end may have too many digits to print.
        lo, hi = 10**30 + 1, 10**30
        with pytest.raises(ValueError, match="need 1 <= lo <= hi") as exc:
            SearchConfig(base=10, lo=lo, hi=hi, kind=ARH)
        assert str(lo) not in str(exc.value) and str(hi) not in str(exc.value)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            SearchConfig(base=10, lo=1, hi=10, kind="both")

    def test_rejects_multiplier_on_niven(self):
        with pytest.raises(ValueError):
            SearchConfig(base=10, lo=1, hi=10, kind=NIVEN, multiplier_filter=2)


class TestScanRange:
    def test_mrh_below_10000(self):
        hits = list(scan_range(SearchConfig(base=10, lo=1, hi=9999, kind=MRH)))
        assert len(hits) == 22  # literal definitions; printed count is 23, see tables
        assert [n for n, _ in hits][:4] == [1, 10, 40, 81]

    @pytest.mark.parametrize("base", [2, 3, 7, 10, 16])
    def test_mrh_scan_carries_the_arh_lists_of_a_sweep(self, base):
        # An MRH scan solves each hit's ARH list instead of sweeping.
        sweep = arh_map_sweep(base, 1, 10**5)
        records = list(scan_range(SearchConfig(base=base, lo=1, hi=10**5, kind=MRH)))
        assert any(res.arh for _, res in records)
        for n, res in records:
            assert [w.x for w in res.arh] == sweep.get(n, []), n

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=2 * 10**4),
        st.integers(min_value=1, max_value=2 * 10**4),
    )
    def test_arh_and_niven_scans_carry_the_arh_lists_of_a_sweep(self, base, a, b):
        lo, hi = min(a, b), max(a, b)
        sweep = arh_map_sweep(base, lo, hi)
        arh = {n: [w.x for w in res.arh]
               for n, res in scan_range(SearchConfig(base=base, lo=lo, hi=hi, kind=ARH))}
        assert arh == sweep
        niven = list(scan_range(SearchConfig(base=base, lo=lo, hi=hi, kind=NIVEN)))
        assert [n for n, _ in niven] == [
            n for n in range(lo, hi + 1) if n % digit_sum(n, base) == 0
        ]
        for n, res in niven:
            assert [w.x for w in res.arh] == sweep.get(n, []), n

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=2 * 10**5),
        st.integers(min_value=1, max_value=2 * 10**5),
        st.sampled_from([ARH, MRH, NIVEN]),
    )
    def test_mrh_lists_match_the_y_sweep(self, base, a, b, kind):
        lo, hi = min(a, b), max(a, b)
        sweep = mrh_map_sweep(base, lo, hi)
        records = list(scan_range(SearchConfig(base=base, lo=lo, hi=hi, kind=kind)))
        if kind == MRH:
            assert [n for n, _ in records] == sorted(sweep)
        for n, res in records:
            assert [w.x for w in res.mrh] == sweep.get(n, []), n

    def test_a_far_narrow_window(self):
        # A Y sweep visits every Y <= sqrt(hi*b) for any window: 45 s for
        # a window this wide at 10^14 (2-core VM).  1420407 * 7040241 = N / 10.
        lo = 10**14 + 75_975_000
        records = list(scan_range(SearchConfig(base=10, lo=lo, hi=lo + 10**4, kind=NIVEN)))
        mrh = {n: [w.x for w in res.mrh] for n, res in records if res.mrh}
        assert mrh == {100000075980870: [14204070, 70402410]}

    def test_arh_base10_below_one_million(self):
        hits = list(scan_range(SearchConfig(base=10, lo=1, hi=10**6, kind=ARH)))
        assert len(hits) == 5503
        assert sum(len(res.arh) for _, res in hits) == 56125

    def test_arh_below_10000(self):
        hits = list(scan_range(SearchConfig(base=10, lo=1, hi=9999, kind=ARH)))
        assert len(hits) == 264

    def test_single_digit_arh_empty(self):
        assert list(scan_range(SearchConfig(base=10, lo=1, hi=9, kind=ARH))) == []

    def test_results_ascending_and_witnesses_sorted(self):
        hits = list(scan_range(SearchConfig(base=10, lo=1, hi=50000, kind=ARH)))
        ns = [n for n, _ in hits]
        assert ns == sorted(ns)
        for _, res in hits:
            ms = [w.m for w in res.arh]
            assert ms == sorted(ms) and len(ms) == len(set(ms))

    def test_zero_digit_policy(self):
        allowed = {n for n, _ in scan_range(SearchConfig(base=10, lo=1, hi=999, kind=ARH))}
        zero_free = {
            n
            for n, _ in scan_range(
                SearchConfig(base=10, lo=1, hi=999, kind=ARH, zero_digit_policy=FORBID)
            )
        }
        assert zero_free == {n for n in allowed if "0" not in str(n)}
        assert 909 in allowed and 909 not in zero_free

    def test_multiplier_filter(self):
        hits = list(
            scan_range(
                SearchConfig(base=10, lo=1, hi=99999, kind=MRH, multiplier_filter=1)
            )
        )
        assert [n for n, _ in hits] == [1, 81, 1458, 1729]

    def test_niven_kind(self):
        hits = list(scan_range(SearchConfig(base=10, lo=1, hi=100, kind=NIVEN)))
        ns = [n for n, _ in hits]
        assert ns[:12] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 18]
        assert all(res.is_niven for _, res in hits)

    def test_emitted_witnesses_reverify(self):
        # Equal Witness values: the records' X^R (N - X, N // X) too.
        for kind in (ARH, MRH):
            for n, res in scan_range(SearchConfig(base=7, lo=1, hi=20000, kind=kind)):
                for w in res.arh:
                    assert verify_witness(n, res.base, w.m, ARH) == w
                for w in res.mrh:
                    assert verify_witness(n, res.base, w.m, MRH) == w

    @pytest.mark.parametrize("base", [2, 5, 10])
    def test_scanned_mrh_numbers_are_niven(self, base):
        for _, res in scan_range(SearchConfig(base=base, lo=1, hi=30000, kind=MRH)):
            assert res.is_niven

    @pytest.mark.parametrize("kind", [ARH, MRH, NIVEN])
    @pytest.mark.parametrize("base", [2, 9, 10])
    def test_scan_agrees_with_classifier(self, kind, base):
        from rhnumbers.classify import (
            classify,
            is_niven,
            is_quadratic_niven,
            is_strongly_quadratic_niven,
        )

        cfg = SearchConfig(base=base, lo=1, hi=3000, kind=kind)
        scanned = {n: res for n, res in scan_range(cfg)}
        for n in range(1, 3001):
            full = classify(n, base)
            assert (full.is_niven, full.quadratic_niven, full.strongly_quadratic_niven) == (
                is_niven(n, base),
                is_quadratic_niven(n, base),
                is_strongly_quadratic_niven(n, base),
            ), (base, n)
            hit = {ARH: full.arh, MRH: full.mrh, NIVEN: full.is_niven}[kind]
            if hit:
                assert scanned[n] == full, (base, kind, n)
            else:
                assert n not in scanned


class TestScanNumbers:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([ARH, MRH, NIVEN]),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=3000),
        st.sampled_from([ALLOW, FORBID]),
        st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    def test_numbers_are_the_records_numbers(self, kind, base, a, b, policy, m):
        # scan_numbers decides membership without listing witnesses
        # (masks only, no pair-sum vectors for Niven); scan_range lists
        # them, for a Niven scan only on the vectors whose N is Niven.
        m = None if kind == NIVEN else m
        cfg = SearchConfig(base=base, lo=min(a, b), hi=max(a, b), kind=kind,
                           zero_digit_policy=policy, multiplier_filter=m)
        records = list(scan_range(cfg))
        assert list(scan_numbers(cfg)) == [n for n, _ in records]
        for n, res in records:
            assert res == classify(n, base), (n, base)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([ARH, MRH, NIVEN]),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=4000),
        st.integers(min_value=1, max_value=4000),
        st.sampled_from([1, "base", 7]),
        st.sampled_from([ALLOW, FORBID]),
        st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    # B = 100 below 10^4 in base 10: lo at the start of a block, then inside one.
    @example(NIVEN, 10, 100, 4000, 7, FORBID, None)
    @example(MRH, 10, 1, 4000, 7, FORBID, None)
    @example(ARH, 10, 1, 4000, "base", FORBID, 2)
    @example(NIVEN, 10, 1357, 2468, 1, FORBID, None)
    # Zero-free MRH lists, for an MRH scan and for the records of the others.
    @example(MRH, 2, 1, 4000, "base", FORBID, None)
    @example(ARH, 10, 1, 4000, 7, FORBID, None)
    def test_scans_match_brute_force(self, kind, base, a, b, window, policy, m):
        # Zero-free and filtered scans, in windows of 1, b and 7 values
        # that mostly start inside a block of the digit-sum table, against
        # witnesses found by trial alone.
        m = None if kind == NIVEN else m
        cfg = SearchConfig(base=base, lo=min(a, b), hi=max(a, b), kind=kind,
                           zero_digit_policy=policy, multiplier_filter=m)
        wanted = []
        for n in range(cfg.lo, cfg.hi + 1):
            if policy == FORBID and has_zero_digit(n, base):
                continue
            s, arh, mrh = _brute_witnesses(n, base)
            if kind == NIVEN:
                hit = n % s == 0
            else:
                products = arh if kind == ARH else mrh
                hit = bool(products) if m is None else m * s in products
            if hit:
                wanted.append(n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_WINDOW", base if window == "base" else window)
            assert list(scan_numbers(cfg)) == wanted
            assert [n for n, _ in scan_range(cfg)] == wanted

    def test_arh_numbers_below_one_million(self):
        cfg = SearchConfig(base=10, lo=1, hi=10**6, kind=ARH)
        assert len(list(scan_numbers(cfg))) == 5503

    def test_zero_free_mrh_scans_list_no_product_that_ends_in_zero(self, monkeypatch):
        # N = Y*Y^R*b^t ends in t zeros, so a zero-free scan below 10^8
        # lists the 9,000 base-10 products with t = 0 of all 12,559.
        listed, mrh_products = [], search.mrh_products

        def counted(*args):
            found = mrh_products(*args)
            listed.append(len(found))
            return found

        monkeypatch.setattr(search, "mrh_products", counted)
        numbers = {}
        for policy, total in ((FORBID, 9000), (ALLOW, 12559)):
            listed.clear()
            cfg = SearchConfig(base=10, lo=1, hi=10**8 - 1, kind=MRH, zero_digit_policy=policy)
            numbers[policy] = list(scan_numbers(cfg))
            assert sum(listed) == total, policy
        assert numbers[FORBID] == [n for n in numbers[ALLOW] if not has_zero_digit(n, 10)]


# N = X + X^R in base 2, with 512 ARH witnesses: its 11-value window took
# the size-pruned walk 0.8-1.4 s (2-core VM).
_FAR_SUM = 8227499634859045266


def _window_vectors(base: int, lo: int, hi: int) -> list[tuple[int, int, list[int]]]:
    """(N, k, p) for each N in [lo, hi] and each vector reversal_pair_sums reads from N's digits."""
    return sorted((n, k, p) for n in range(lo, hi + 1) for k, p in reversal_pair_sums(n, base))


class TestNarrowWindows:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=2**62),
        st.sampled_from(["0", "1", "b-1", "b", "b^2", "1000"]),
    )
    @example(2, _FAR_SUM, "0")
    @example(2, _FAR_SUM - 5, "b^2")
    @example(10, 10**18 - 500, "1000")
    def test_walk_matches_the_digits(self, base, lo, width):
        # The low prune keeps a prefix only if its residue mod b^(i+1) is
        # one the window holds; the digits of each N give its vectors.
        width = {"0": 0, "1": 1, "b-1": base - 1, "b": base, "b^2": base**2, "1000": 1000}[width]
        hi = lo + width
        assert sorted(pair_sum_vectors(base, lo, hi)) == _window_vectors(base, lo, hi)

    def test_a_far_window_walks_its_residues(self):
        lo, hi = _FAR_SUM - 5, _FAR_SUM + 5
        start = time.perf_counter()
        vectors = list(pair_sum_vectors(2, lo, hi))
        assert time.perf_counter() - start < 0.1
        assert sorted(vectors) == _window_vectors(2, lo, hi)
        assert [k for n, k, _ in vectors if n == _FAR_SUM] == [62]

    def test_a_1000_digit_window_walks_only_the_lengths_that_reach_it(self):
        # X < b^k gives N < 2*b^k, so a k-digit X with k < D(lo) - 1 cannot
        # reach the window: walking those 998 lengths took 0.78 s (2-core VM).
        x = 10**999 + 2 * 10**500 + 7
        n = x + reverse(x, 10)
        start = time.perf_counter()
        vectors = list(pair_sum_vectors(10, n - 50, n + 50))
        assert time.perf_counter() - start < 0.1
        assert [k for m, k, _ in vectors if m == n] == [1000]

    @pytest.mark.parametrize("base, e, width, found", [
        (10, 2499, 200, [(1, 2500), (10, 2499), (109, 2499)]),
        (2, 6000, 100, [(1, 6001), (2, 6000), (5, 6000), (11, 6000), (23, 6000), (47, 6000), (95, 6000)]),
    ])
    def test_a_window_past_the_recursion_limit_is_walked(self, base, e, width, found):
        # Nesting a generator per digit pair raised RecursionError past about
        # 1,980 digits; the walk's stack holds one tuple per pair.
        lo = base**e
        vectors = list(pair_sum_vectors(base, lo, lo + width))
        assert sorted(vectors) == _window_vectors(base, lo, lo + width)
        assert sorted((n - lo, k) for n, k, _ in vectors) == found

    def test_an_arh_scan_past_2000_digits_finds_its_members(self):
        lo, hi = 10**2499, 10**2499 + 200
        hits = list(scan_numbers(SearchConfig(base=10, lo=lo, hi=hi, kind=ARH)))
        assert hits == [lo + 1, lo + 10]
        assert hits == [n for n in range(lo, hi + 1) if solve_arh(n, 10)[0] > 0]

    @pytest.mark.parametrize("kind", [ARH, MRH, NIVEN])
    @pytest.mark.parametrize("base, n", [(2, _FAR_SUM), (10, 2**61 + 1 + reverse(2**61 + 1, 10))])
    def test_the_digit_sum_table_is_sized_to_the_range(self, monkeypatch, kind, base, n):
        # A table sized to hi alone held 2^20 entries for these 11 values.
        lo, hi = n - 5, n + 5
        built = []

        def sized(*args):
            built.append(DigitSums(*args))
            return built[-1]

        monkeypatch.setattr(search, "DigitSums", sized)
        records = list(scan_range(SearchConfig(base=base, lo=lo, hi=hi, kind=kind)))
        assert built and max(sums.size for sums in built) <= base * 11
        member = {ARH: lambda res: res.arh, MRH: lambda res: res.mrh, NIVEN: lambda res: res.is_niven}
        wanted = [(m, res) for m in range(lo, hi + 1) if member[kind](res := classify(m, base))]
        assert records == wanted

    @pytest.mark.parametrize("kind", [ARH, MRH, NIVEN])
    @pytest.mark.parametrize("base, lo, hi", [
        (2, 2**64, 2**64 + 500),
        (7, 7**23, 7**23 + 1000),
        (10, 189999999999999999981 - 500, 189999999999999999981 + 500),  # niven-not-MRH, n = 19
    ])
    def test_scans_past_the_word_size_match_the_per_n_engines(self, kind, base, lo, hi):
        member = {
            ARH: lambda n: solve_arh(n, base)[0] > 0,
            MRH: lambda n: bool(mrh_witnesses(n, base)),
            NIVEN: lambda n: is_niven(n, base),
        }[kind]
        cfg = SearchConfig(base=base, lo=lo, hi=hi, kind=kind)
        assert list(scan_numbers(cfg)) == [n for n in range(lo, hi + 1) if member(n)]
        for n, res in scan_range(cfg):
            assert res == classify(n, base), n

    def test_niven_records_past_the_walk_limit_solve_only_arh_hits(self, monkeypatch):
        # Past 10^11 in base 10 a record's ARH list may pass the listing
        # limit, so it is solved with the count first: only for the N whose
        # vectors' masks admit an X, where every Niven hit was solved.
        solved = []

        def counted(n, base):
            solved.append(n)
            return listed_arh(n, base)

        listed_arh = search._listed_arh
        monkeypatch.setattr(search, "_listed_arh", counted)
        lo = 10**12
        records = list(scan_range(SearchConfig(base=10, lo=lo, hi=lo + 10**5, kind=NIVEN)))
        with_arh = [n for n, res in records if res.arh_products]
        assert (len(records), len(with_arh)) == (11213, 2)
        assert solved == with_arh
        rng = random.Random(25)
        for n, res in [r for r in records if r[1].arh_products] + rng.sample(records, 50):
            assert res == classify(n, 10), n


# Multipliers with a member in [10^15, 2^63 - 1]: M = X / s_b(N) for
# random X with N = X + X^R (or X * X^R) in that range and s_b(N) | X,
# kept when no member has over 2*10^5 ARH witnesses, so that classify
# lists them.  Past base 2 the second of each pair has a zero-free member.
_FAR_MULTIPLIERS = {
    (2, ARH): (57210841894920371, 148062804395088694),
    (2, MRH): (12427410, 34720007),
    (7, ARH): (27276621093585680, 18736509936491197),
    (7, MRH): (2703978, 25141855),
    (10, ARH): (38133278325696950, 14634456469250702),
    (10, MRH): (24380506, 2935762),
    (16, ARH): (89496386169425, 9366100166801934),
    (16, MRH): (5349137, 8117137),
}


class TestFilteredScans:
    @pytest.mark.parametrize("base, kind", list(_FAR_MULTIPLIERS))
    def test_far_filtered_scans_read_the_multiplier_sets(self, base, kind, monkeypatch):
        # A filtered scan visits only the members of its multiplier's set,
        # so a range of 9*10^18 values costs what the set costs, where a
        # walk over the range would visit about 9*10^11 windows.  It builds
        # no digit-sum table, pair tables or window, and its records are
        # classify's.
        def refuse(*args):
            raise AssertionError("a filtered scan built a range-scan table or window")

        for name in ("DigitSums", "PairTables", "_window_hits"):
            monkeypatch.setattr(search, name, refuse)
        lo, hi = 10**15, WORD_SIZE_CAP
        far = 0
        for m in (1, 7, *_FAR_MULTIPLIERS[base, kind]):
            for policy in (ALLOW, FORBID):
                cfg = SearchConfig(base=base, lo=lo, hi=hi, kind=kind,
                                   zero_digit_policy=policy, multiplier_filter=m)
                wanted = [n for n in numbers_for_multiplier(base, m, kind, policy) if lo <= n <= hi]
                assert wanted == [
                    n for n in numbers_for_multiplier(base, m, kind, policy, hi) if n >= lo
                ], (m, policy)
                start = time.perf_counter()
                numbers = list(scan_numbers(cfg))
                assert time.perf_counter() - start < 1, (m, policy)
                start = time.perf_counter()
                records = list(scan_range(cfg))
                assert time.perf_counter() - start < 1, (m, policy)
                assert numbers == [n for n, _ in records] == wanted, (m, policy)
                for n, res in records:
                    assert res == classify(n, base), (n, m)
                far += len(numbers)
        assert far >= 2 if base == 2 else far >= 3  # zero-free members count twice

    @pytest.mark.parametrize("kind", [ARH, MRH])
    def test_a_large_base_tries_only_the_window_digit_sums(self, kind):
        # digit_sum_cap is about 3*10^6 in base 10^6, where the members up
        # to 3000 have s <= 3000 // M: a filtered scan tries only those.
        base, hi = 10**6, 3000
        for m in (1, 2, 5):
            cfg = SearchConfig(base=base, lo=1, hi=hi, kind=kind, multiplier_filter=m)
            start = time.perf_counter()
            numbers = list(scan_numbers(cfg))
            assert time.perf_counter() - start < 1, m
            assert numbers == [n for n in range(1, hi + 1)
                               if isinstance(verify_witness(n, base, m, kind), Witness)], m


class TestRecords:
    @pytest.mark.parametrize("kind", [ARH, MRH, NIVEN])
    @pytest.mark.parametrize("base", [2, 7, 10])
    def test_scan_records_are_classify_records(self, base, kind):
        records = list(scan_range(SearchConfig(base=base, lo=1, hi=3000, kind=kind)))
        assert records
        for n, res in records:
            assert type(res) is ClassifyResult
            assert res._asdict() == classify(n, base)._asdict(), n
            assert (res.s, res.sq_sum) == (digit_sum(n, base), digit_sum(n * n, base))
            assert (res.is_niven, res.quadratic_niven, res.strongly_quadratic_niven) == (
                is_niven(n, base), is_quadratic_niven(n, base), is_strongly_quadratic_niven(n, base)
            )

    def test_records_are_hashable_and_immutable(self):
        [(_, scanned)] = scan_range(SearchConfig(base=10, lo=1729, hi=1729, kind=MRH))
        res = classify(1729, 10)
        assert hash(scanned) == hash(res) and len({scanned, res}) == 1
        for field in ("n", "s", "sq_sum", "mrh_products", "is_niven", "mrh"):
            with pytest.raises(AttributeError):
                setattr(scanned, field, 0)
        assert scanned.mrh_products == (19,)

    def test_empty_product_lists_are_empty_tuples(self):
        records = [res for _, res in scan_range(SearchConfig(base=10, lo=1, hi=2000, kind=NIVEN))]
        empty = [xs for res in records for xs in (res.arh_products, res.mrh_products) if not xs]
        assert len(empty) > len(records)
        assert all(type(xs) is tuple and xs == () for xs in empty)


class TestDigitSums:
    @pytest.mark.parametrize("base", [2, 3, 7, 10, 16])
    @pytest.mark.parametrize("hi", [1, 2, 99, 100, 3000, 10**6, 3 * 10**7])
    def test_sums_at_the_table_edges(self, base, hi):
        sums = DigitSums(base, hi)
        size = sums.size
        assert len(sums.table) == size and size * size > hi >= (size // base) ** 2
        # B^2 - 1 is the largest n the table splits, and its square
        # B^4 - 2B^2 + 1 the largest square: both halves sit at the top.
        edges = {0, 1, hi - 1, hi, size - 1, size, size * size - 2, size * size - 1}
        for n in edges:
            assert sums(n) == digit_sum(n, base), n
            assert sums(n * n) == digit_sum(n * n, base), n

    @pytest.mark.parametrize("base", [2, 10, 16])
    def test_a_capped_table_splits_again(self, base):
        # Far past the cap, B^2 <= hi: the high part splits again.
        hi = 10**30
        sums = DigitSums(base, hi)
        assert len(sums.table) <= search._TABLE_CAP < len(sums.table) * base
        for n in (hi, hi - 1, sums.size**2, sums.size**2 - 1, sums.size**5 + 3, 10**15 + 7):
            assert sums(n) == digit_sum(n, base), n
            assert sums(n * n) == digit_sum(n * n, base), n
        lo = 10**15
        assert list(sums.niven(lo, lo + 500)) == [
            (n, s) for n in range(lo, lo + 501) if n % (s := digit_sum(n, base)) == 0
        ]

    @pytest.mark.parametrize("kind", [ARH, MRH, NIVEN])
    @pytest.mark.parametrize("base", [2, 7, 10])
    @pytest.mark.parametrize("cap", ["base", 1])
    def test_scans_agree_at_any_cap(self, monkeypatch, kind, base, cap):
        # A cap of b entries splits every digit off on its own, and so
        # does a cap below b: the table always holds the one-digit sums.
        cfg = SearchConfig(base=base, lo=37, hi=5000, kind=kind)
        records = list(scan_range(cfg))
        monkeypatch.setattr(search, "_TABLE_CAP", base if cap == "base" else cap)
        assert DigitSums(base, 5000).size == base
        assert list(scan_range(cfg)) == records
        assert list(scan_numbers(cfg)) == [n for n, _ in records]

    @pytest.mark.parametrize("kind", [ARH, MRH, NIVEN])
    def test_a_base_past_the_cap(self, kind):
        base = 2 * search._TABLE_CAP + 1
        sums = DigitSums(base, 30)
        assert sums.size == base
        for n in (1, base - 1, base, base**2 - 1, base**2 + base, base**3 + 5):
            assert sums(n) == digit_sum(n, base), n
            assert sums(n * n) == digit_sum(n * n, base), n
        cfg = SearchConfig(base=base, lo=1, hi=30, kind=kind)
        full = [classify(n, base) for n in range(1, 31)]
        member = {ARH: lambda res: res.arh, MRH: lambda res: res.mrh, NIVEN: lambda res: res.is_niven}
        hits = [(res.n, res) for res in full if member[kind](res)]
        assert list(scan_range(cfg)) == hits
        assert list(scan_numbers(cfg)) == [n for n, _ in hits]
        lo, hi = base - 6, base + 6  # across the first power of b
        wanted = [n for n in range(lo, hi + 1) if member[kind](classify(n, base))]
        assert list(scan_numbers(SearchConfig(base=base, lo=lo, hi=hi, kind=kind))) == wanted


class TestWindows:
    @pytest.mark.parametrize("kind", [ARH, MRH, NIVEN])
    @pytest.mark.parametrize("base", [2, 7, 10])
    @pytest.mark.parametrize("window", [1, "base", 7, 1000])
    def test_scans_agree_at_any_window(self, kind, base, window):
        # Windows of one value, of b values and of sizes that cut across
        # every power of b give the hits of one window over the range, and
        # so do windows that grow from a first window of those sizes.
        window = base if window == "base" else window
        for lo, first, most in ((37, search._FIRST_WINDOW, window), (1, window, search._WINDOW)):
            cfg = SearchConfig(base=base, lo=lo, hi=5000, kind=kind)
            records = list(scan_range(cfg))  # one window: _FIRST_WINDOW > 5000
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(search, "_FIRST_WINDOW", first)
                patch.setattr(search, "_WINDOW", most)
                assert list(scan_range(cfg)) == records, (lo, first, most)
                assert list(scan_numbers(cfg)) == [n for n, _ in records], (lo, first, most)

    def test_a_far_scan_reads_only_the_windows_it_needs(self, monkeypatch):
        # The first 3 hits of a scan to 10^18 lie in its first window,
        # [1, 10^4]: it walks no other window and grows its digit-sum
        # table no further than that window needs.  A first window of 10^7
        # values took 2.8 s (2-core VM).
        windows, built, window_hits = [], [], search._window_hits

        def recording(cfg, sums, tables, records, lo, hi):
            windows.append((lo, hi))
            return window_hits(cfg, sums, tables, records, lo, hi)

        def sized(*args):
            built.append(DigitSums(*args))
            return built[-1]

        monkeypatch.setattr(search, "_window_hits", recording)
        monkeypatch.setattr(search, "DigitSums", sized)
        cfg = SearchConfig(base=2, lo=1, hi=10**18, kind=ARH)
        assert list(itertools.islice(scan_numbers(cfg), 3)) == [2, 3, 5]
        assert windows == [(1, 10**4)]
        assert [sums.size for sums in built] == [DigitSums(2, 10**4).size]

    @pytest.mark.parametrize("kind", [ARH, MRH])
    def test_memory_tracks_one_window(self, monkeypatch, kind):
        # Draining the scan over 20 windows peaks well below one pass
        # over the same range, which holds every hit until it ends.
        cfg = SearchConfig(base=10, lo=1, hi=2 * 10**5, kind=kind)

        def drained_peak(window):
            monkeypatch.setattr(search, "_FIRST_WINDOW", window)
            monkeypatch.setattr(search, "_WINDOW", window)
            tracemalloc.start()
            try:
                hits = sum(1 for _ in scan_numbers(cfg))
                return hits, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_hits, one_peak = drained_peak(cfg.hi)
        hits, peak = drained_peak(cfg.hi // 20)
        assert hits == one_hits > 0
        assert peak < one_peak / 2, (peak, one_peak)

    def test_niven_listing_holds_one_block(self):
        # The Niven listing yields each block of the digit-sum table's B
        # values once it is done, so a numbers-only scan holds one
        # block's hits, not its window's 806,095 (31 MiB as one list).
        cfg = SearchConfig(base=10, lo=1, hi=10**7, kind=NIVEN)
        tracemalloc.start()
        try:
            hits = sum(1 for _ in scan_numbers(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits == 806_095
        assert peak < 2**20, peak


def test_large_base_arh_scan_memory_tracks_its_vectors():
    # A scan's pair tables grow with the (k, s) and pair sums it meets, not
    # with the base: below 10^7 in base 10^5 nearly every two-digit vector
    # has its own s, and a row of 2b - 1 entries for each of them would
    # hold over 100 MB.
    cfg = SearchConfig(base=10**5, lo=1, hi=10**7, kind=ARH)
    tracemalloc.start()
    try:
        hits = sum(1 for _ in scan_numbers(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == 111
    assert peak < 2 * 10**6, peak


def test_interleaved_scans_match_each_alone():
    # Each scan keeps its own digit-sum and pair-residue tables, keyed by
    # (k, s) within one base: scans of several bases, lengths, kinds and
    # views, advanced one hit at a time in turn, give what each gives alone.
    lengths = {2: (2**9, 2**15), 7: (7**3, 7**5), 10: (10**3, 10**5), 16: (16**2, 16**4)}
    configs = [
        SearchConfig(base=base, lo=1, hi=hi, kind=kind)
        for base, his in lengths.items()
        for hi in his
        for kind in (ARH, NIVEN)
    ]
    scans = [(scan, cfg) for cfg in configs for scan in (scan_numbers, scan_range)]
    alone = [list(scan(cfg)) for scan, cfg in scans]
    streams = [scan(cfg) for scan, cfg in scans]
    together: list[list] = [[] for _ in streams]
    live = list(range(len(streams)))
    while live:
        for i in list(live):
            item = next(streams[i], None)
            if item is None:
                live.remove(i)
            else:
                together[i].append(item)
    assert together == alone
    assert all(alone)


@functools.lru_cache(maxsize=None)
def _unfiltered_hits(kind: str, hi: int) -> tuple[int, ...]:
    return tuple(n for n, _ in scan_range(SearchConfig(base=10, lo=1, hi=hi, kind=kind)))


class TestNumbersForMultiplier:
    def test_arh_7_zero_free(self):
        assert numbers_for_multiplier(10, 7, ARH, FORBID) == [747]

    def test_rejects_an_unknown_policy(self):
        with pytest.raises(ValueError, match="zero_digit_policy must be"):
            numbers_for_multiplier(10, 7, ARH, "never")

    def test_arh_6(self):
        assert numbers_for_multiplier(10, 6, ARH, FORBID) == []
        assert 909 in numbers_for_multiplier(10, 6, ARH, ALLOW)

    def test_arh_9_empty(self):
        assert numbers_for_multiplier(10, 9, ARH, ALLOW) == []

    def test_mrh_3_empty(self):
        assert numbers_for_multiplier(10, 3, MRH, ALLOW) == []

    def test_multiplicities(self):
        assert len(numbers_for_multiplier(10, 5, ARH, FORBID)) == 9
        assert len(numbers_for_multiplier(10, 1, MRH, ALLOW)) == 4
        assert len(numbers_for_multiplier(10, 9, ARH, ALLOW)) == 0

    @pytest.mark.parametrize("kind", [ARH, MRH])
    @pytest.mark.parametrize("m", list(range(1, 13)))
    def test_oracle_equivalence_with_scan(self, kind, m):
        """Complete per-multiplier sets agree with the unfiltered range scan.

        A filtered scan reads numbers_for_multiplier, so the reference is
        the unfiltered scan's hits kept where M*s_b(N) is a witness.
        """
        hi = 10**5
        reference = [n for n in _unfiltered_hits(kind, hi)
                     if isinstance(verify_witness(n, 10, m, kind), Witness)]
        bounded = [n for n in numbers_for_multiplier(10, m, kind, ALLOW) if n <= hi]
        assert bounded == reference, (kind, m)
        cfg = SearchConfig(base=10, lo=1, hi=hi, kind=kind, multiplier_filter=m)
        assert [n for n, _ in scan_range(cfg)] == reference, (kind, m)

    @pytest.mark.parametrize("kind", [ARH, MRH])
    @pytest.mark.parametrize("base", [3, 7, 10, 16])
    def test_tries_only_the_digit_sums_left_by_casting_out(self, base, kind, monkeypatch):
        # One reversal per digit sum tried: exactly the s up to the cap with
        # s = 2*M*s (ARH) or (M*s)^2 (MRH) mod b-1, less those with b | M*s
        # in a zero-free MRH listing.  Trying more lists the same set, so
        # only the count shows that the cast-out is made.
        calls = []
        monkeypatch.setattr(search, "reverse_int", lambda v, b: calls.append(v) or reverse(v, b))
        r = base - 1
        for m in (1, 2, 7, 12, 45, 1000):
            for policy in (ALLOW, FORBID):
                calls.clear()
                numbers_for_multiplier(base, m, kind, policy)
                left = [s for s in range(1, digit_sum_cap(base, m, kind) + 1)
                        if (s - (2 * m * s if kind == ARH else (m * s) ** 2)) % r == 0]
                if policy == FORBID and kind == MRH:
                    left = [s for s in left if m * s % base]
                assert sorted(calls) == [m * s for s in left], (m, policy)

    @pytest.mark.parametrize("kind", [ARH, MRH])
    @pytest.mark.parametrize("base", range(2, 17))
    def test_hi_keeps_the_members_up_to_hi(self, base, kind):
        # hi caps the digit sums tried at (b-1)*D(hi) and hi // M; every
        # member at or below hi is still listed, right up to hi itself.
        for m in range(1, 61):
            for policy in (ALLOW, FORBID):
                full = numbers_for_multiplier(base, m, kind, policy)
                for hi in {1, m, *full, *(n - 1 for n in full if n > 1)}:
                    got = numbers_for_multiplier(base, m, kind, policy, hi)
                    assert got == [n for n in full if n <= hi], (m, policy, hi)

    @pytest.mark.parametrize("kind", [ARH, MRH])
    @pytest.mark.parametrize("base", range(2, 41))
    def test_equals_paper_capped_brute_force(self, base, kind):
        # Base 2 MRH with M in {2..6, 8} is where the proven cap is looser
        # than the paper's; the sets agree there too.  Bases 17-40 give
        # b-1 = 16, 24, 30, 36, ... and so other residue sets to cast out.
        for m in range(1, 61):
            for policy in (ALLOW, FORBID):
                got = numbers_for_multiplier(base, m, kind, policy)
                assert got == _paper_capped_members(base, m, kind, policy), (base, m, policy)
                assert paper_bound_conflicts(base, m, kind, got) == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=10**4),
        st.sampled_from([ARH, MRH]),
    )
    def test_equals_paper_capped_brute_force_large_m(self, base, m, kind):
        assert numbers_for_multiplier(base, m, kind) == _paper_capped_members(base, m, kind, ALLOW)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from([ARH, MRH]),
        st.sampled_from([ALLOW, FORBID]),
        st.one_of(st.none(), st.integers(min_value=0, max_value=20).flatmap(
            lambda e: st.integers(min_value=1, max_value=10**e))),
    )
    @example(10, 9000, ARH, ALLOW, None)
    @example(10, 5, MRH, FORBID, None)
    @example(2, 5, MRH, FORBID, None)
    def test_equals_every_digit_sum_to_the_cap(self, base, m, kind, policy, hi):
        # Casting out b-1 skips the digit sums whose residue no member can
        # have, and a zero-free MRH listing those with b | M*s; trying every
        # s up to digit_sum_cap must list the same set.
        found = []
        for s in range(1, digit_sum_cap(base, m, kind) + 1):
            x = m * s
            n = x + reverse(x, base) if kind == ARH else x * reverse(x, base)
            if digit_sum(n, base) == s and (hi is None or n <= hi):
                if not (policy == FORBID and has_zero_digit(n, base)):
                    found.append(n)
        assert numbers_for_multiplier(base, m, kind, policy, hi) == sorted(found)

    @pytest.mark.parametrize(
        "base, m, kind, policy, tried, cap",
        [
            (10, 9000, ARH, ALLOW, 7, 63),  # 2*9000 - 1 is prime to 9: s = 0 (mod 9)
            (10, 5, MRH, ALLOW, 12, 54),  # s = 25*s^2 (mod 9): s = 0, 4 (mod 9)
            (10, 5, MRH, FORBID, 6, 54),  # and 10 | 5*s for every even s
            (10, 10, MRH, FORBID, 0, 54),  # X = 10*s always ends in 0
            (16, 100, ARH, ALLOW, 5, 75),  # gcd(199, 15) = 1: s = 0 (mod 15)
            (16, 7, MRH, ALLOW, 24, 90),  # s = 49*s^2 (mod 15): s = 0, 4, 9, 10 (mod 15)
            (31, 12, ARH, ALLOW, 4, 120),  # gcd(23, 30) = 1: s = 0 (mod 30)
            (2, 7, ARH, ALLOW, 7, 7),  # b - 1 = 1 casts out nothing
        ],
    )
    def test_tries_only_the_digit_sums_of_the_allowed_residues(
        self, monkeypatch, base, m, kind, policy, tried, cap
    ):
        # Every digit sum tried reverses X = M*s once.  Pinned counts catch
        # a prune that still lists the right set but tries every residue.
        calls, reverse_int = [], search.reverse_int

        def counted(x, b):
            calls.append(x)
            return reverse_int(x, b)

        monkeypatch.setattr(search, "reverse_int", counted)
        numbers = numbers_for_multiplier(base, m, kind, policy)
        assert digit_sum_cap(base, m, kind) == cap
        assert len(calls) == tried
        assert numbers == _paper_capped_members(base, m, kind, policy)

    def test_mrh_one_million(self):
        assert numbers_for_multiplier(10, 10**6, MRH) == [1000000, 81000000, 1458000000, 1729000000]

    def test_paper_bound_conflicts(self):
        numbers = numbers_for_multiplier(10, 1, MRH)
        assert paper_bound_conflicts(10, 1, MRH, numbers) == []
        # k <= M+4 = 5 digits for base-10 MRH with M = 1.
        assert paper_bound_conflicts(10, 1, MRH, [1, 99999, 100000]) == [100000]


class TestMultiplierCensus:
    """numbers_for_multiplier over every small M, against the paper's caps and the range scans.

    It is complete by digit_sum_cap, an argument independent of the
    range scans' pair-sum walk and mrh_products, so the two engines
    check each other on whole ranges.
    """

    @pytest.mark.parametrize("kind", [ARH, MRH])
    def test_no_member_passes_the_paper_cap(self, kind):
        for base in range(2, 17):
            for m in range(1, 301):
                numbers = numbers_for_multiplier(base, m, kind)
                assert paper_bound_conflicts(base, m, kind, numbers) == [], (base, m)

    @pytest.mark.parametrize("kind, hi", [(ARH, 10**5), (MRH, 10**6)])
    @pytest.mark.parametrize("base", [2, 7, 10, 16])
    def test_multiplier_sets_are_the_scan_hits_of_their_multipliers(self, base, kind, hi):
        census = set()
        for m in range(1, 1001):
            census.update(numbers_for_multiplier(base, m, kind, ALLOW, hi))
        scanned = [
            n for n, res in scan_range(SearchConfig(base=base, lo=1, hi=hi, kind=kind))
            if any(w.m <= 1000 for w in (res.arh if kind == ARH else res.mrh))
        ]
        assert sorted(census) == scanned
        assert len(scanned) >= 100


def _count_by_vector_sums(base: int, k: int) -> int:
    """The k-digit window less the set of distinct N its pair-sum vectors place there."""
    lo = base ** (k - 1) if k > 1 else 1
    sums = {n for n, _, _ in pair_sum_vectors(base, lo, base**k - 1)}
    return base**k - lo - len(sums)


class TestCountingExperiment:
    def test_10_3_sieve_vs_formula(self):
        count = count_not_sum_of_reversal(10, 3)
        assert formula_lower_bound(10, 3) == 360
        assert count == 807  # frozen sieve value
        assert count >= 360

    def test_3_2(self):
        assert formula_lower_bound(3, 2) == 1
        assert count_not_sum_of_reversal(3, 2) >= 1

    @pytest.mark.parametrize("base, k", [(2, 10**8), (10**7, 2)])
    def test_huge_k_is_refused_before_b_to_the_k(self, base, k):
        # Building 2^k first took 0.82 s at k = 10^8, and the message overran
        # the int-to-str digit limit; the work estimate reads (b, k) alone.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="would take about .* over the limit") as exc:
            count_not_sum_of_reversal(base, k)
        assert time.perf_counter() - start < 0.1
        assert "4300 digits" not in str(exc.value)

    def test_refuses_lengths_below_their_range(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            count_not_sum_of_reversal(10, 0)
        with pytest.raises(ValueError, match="formula needs k >= 2, got 1"):
            formula_lower_bound(10, 1)

    @pytest.mark.parametrize(
        "base,k",
        [(3, 3), (4, 3), (5, 2), (7, 2), (10, 2),
         (2, 63), (2, 200), (10, 18), (10, 19), (10, 100), (100, 9)],
    )
    def test_inequality_holds(self, base, k):
        # Past the word size the pair-sum vector sets held up to
        # (2b-1)^ceil(k/2) sums: about 3*10^11 at (10, 18) and (100, 9).
        start = time.perf_counter()
        count = count_not_sum_of_reversal(base, k)
        assert time.perf_counter() - start < 1
        assert formula_lower_bound(base, k) <= count < (base - 1) * base ** (k - 1)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(b, k) for b in range(2, 17) for k in range(1, 17) if b**k <= 10**5]))
    def test_matches_sieve(self, window):
        assert count_not_sum_of_reversal(*window) == count_not_sum_sieve(*window)

    def test_matches_sieve_on_every_small_window(self):
        windows = [(b, k) for b in range(2, 17) for k in range(1, 14) if b**k <= 10**4]
        for window in windows:
            assert count_not_sum_of_reversal(*window) == count_not_sum_sieve(*window), window
        assert len(windows) == 71

    @pytest.mark.parametrize("base, k", [(10, 7), (10, 8), (3, 14), (2, 24), (16, 4)])
    def test_matches_the_set_of_pair_sum_vector_sums(self, base, k):
        assert count_not_sum_of_reversal(base, k) == _count_by_vector_sums(base, k)

    def test_holds_no_set_of_sums(self):
        tracemalloc.start()
        try:
            count_not_sum_of_reversal(10, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_base2_formula_is_zero(self):
        assert formula_lower_bound(2, 5) == 0

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_all_ones_base2_not_expressible(self, k):
        assert not reversal_pair_sums(2**k - 1, 2)

    def test_expressible_example(self):
        assert reversal_pair_sums(99, 10)  # 18 + 81

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=2, max_value=16))
    def test_expressible_matches_brute_force(self, n, base):
        assert bool(reversal_pair_sums(n, base)) == is_expressible_brute(n, base)


class TestPalindromicSquareSearch:
    def test_limit_1000(self):
        hits = palindromic_square_search(1000)
        assert hits == [
            (1, 1, 1),
            (9, 81, 9),
            (88, 7744, 22),
            (434, 188356, 31),
            (484, 234256, 22),
            (828, 685584, 36),
        ]

    def test_limit_10(self):
        assert palindromic_square_search(10) == [(1, 1, 1), (9, 81, 9)]

    def test_limit_1(self):
        assert palindromic_square_search(1) == [(1, 1, 1)]

    def test_limit_below_1_is_refused(self):
        with pytest.raises(ValueError, match="limit must be >= 1, got 0"):
            palindromic_square_search(0)

    def test_limit_past_the_cap_is_refused(self):
        # 3037000499 = isqrt(2^63 - 1): one more squares past the cap.
        with pytest.raises(ValueError, match="limit\\^2 exceeds word-size cap"):
            palindromic_square_search(3037000500)

    def test_squares_are_zero_free_mrh(self):
        from rhnumbers.classify import mrh_witnesses

        for n, sq, s in palindromic_square_search(1000):
            assert n % s == 0
            assert "0" not in str(sq)
            assert n // s in [w.m for w in mrh_witnesses(sq, 10)]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=1, max_value=5000))
    def test_matches_the_reversal_loop(self, base, limit):
        assert palindromic_square_search(limit, base) == palindromic_square_brute(limit, base)
