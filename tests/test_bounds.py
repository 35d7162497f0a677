import pytest
from brute_force import digit_count
from hypothesis import given
from hypothesis import strategies as st

from rhnumbers.bounds import digit_bound, digit_sum_cap, floor_log
from rhnumbers.classify import ARH, MRH


class TestFloorLog:
    @pytest.mark.parametrize(
        "base,m,expected",
        [(10, 1, 0), (10, 9, 0), (10, 10, 1), (10, 10**6, 6), (2, 255, 7), (2, 256, 8)],
    )
    def test_values(self, base, m, expected):
        assert floor_log(base, m) == expected

    def test_refuses_m_below_1(self):
        with pytest.raises(ValueError, match="floor_log needs m >= 1"):
            floor_log(10, 0)

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=1, max_value=10**18))
    def test_exactness(self, base, m):
        e = floor_log(base, m)
        assert base**e <= m < base ** (e + 1)


class TestArhBound:
    def test_base10_m1(self):
        assert digit_bound(10, 1, ARH).k_max == 3

    def test_base2_m1(self):
        assert digit_bound(2, 1, ARH).k_max == 4

    def test_strong_clause_base10(self):
        spec = digit_bound(10, 10**6, ARH)
        assert spec.k_max == 12
        assert "strong" in spec.source

    def test_strong_threshold_is_literal(self):
        # One below the threshold keeps the base clause.
        below = digit_bound(10, 10**6 - 1, ARH)
        assert below.k_max == 10**6 + 1
        assert "strong" not in below.source

    @pytest.mark.parametrize("base", [2, 3, 4, 9, 10, 16])
    def test_monotone_in_m_base_clause(self, base):
        caps = [digit_bound(base, m, ARH).k_max for m in range(1, 60)]
        assert caps == sorted(caps)

    def test_source_names_one_clause(self):
        assert digit_bound(5, 3, ARH).source == "k <= M+2 (b >= 4)"
        assert digit_bound(3, 3, ARH).source == "k <= M+3 (b = 2 or 3)"


class TestMrhBound:
    def test_base10_m1(self):
        assert digit_bound(10, 1, MRH).k_max == 5

    def test_base5_m1(self):
        assert digit_bound(5, 1, MRH).k_max == 6

    def test_base2_m1(self):
        assert digit_bound(2, 1, MRH).k_max == 8

    def test_strong_clause_base10(self):
        spec = digit_bound(10, 10**9, MRH)
        assert spec.k_max == 27
        assert "strong" in spec.source

    @pytest.mark.parametrize(
        "base,threshold", [(10, 10**9), (9, 9**9), (8, 8**10), (4, 4**11), (3, 3**12), (2, 2**16)]
    )
    def test_strong_thresholds(self, base, threshold):
        assert "strong" in digit_bound(base, threshold, MRH).source
        assert "strong" not in digit_bound(base, threshold - 1, MRH).source

    @pytest.mark.parametrize("base", [2, 4, 5, 6, 10])
    def test_monotone_in_m_base_clause(self, base):
        caps = [digit_bound(base, m, MRH).k_max for m in range(1, 60)]
        assert caps == sorted(caps)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError, match="must be positive"):
        digit_bound(10, 0, ARH)
    with pytest.raises(ValueError, match="must be positive"):
        digit_bound(10, 0, MRH)
    with pytest.raises(ValueError, match="base must be"):
        digit_bound(1, 5, MRH)


def _paper_clause(base: int, m: int, kind: str) -> tuple[int, str]:
    """(k_max, source) of the paper's clauses for (b, M), spelled out one kind at a time."""
    if kind == ARH:
        if base >= 4:
            k_max, source = m + 2, "k <= M+2 (b >= 4)"
        else:
            k_max, source = m + 3, "k <= M+3 (b = 2 or 3)"
        factor = 2
        strong = (
            (base >= 10 and m >= base**6)
            or (3 <= base <= 9 and m >= base**7)
            or (base == 2 and m >= base**8)
        )
    else:
        if base >= 6:
            k_max, source = m + 4, "k <= M+4 (b >= 6)"
        elif base == 5:
            k_max, source = m + 5, "k <= M+5 (b = 5)"
        else:
            k_max, source = m + 7, "k <= M+7 (2 <= b <= 4)"
        factor = 3
        strong = (
            (base >= 9 and m >= base**9)
            or (5 <= base <= 8 and m >= base**10)
            or (base == 4 and m >= base**11)
            or (base == 3 and m >= base**12)
            or (base == 2 and m >= base**16)
        )
    if strong:
        e = 0
        while base ** (e + 1) <= m:
            e += 1
        if factor * e < k_max:
            k_max, source = factor * e, f"k <= {factor}*floor(log_b M) (strong hypothesis)"
    return k_max, source


@pytest.mark.parametrize("base", range(2, 41))
def test_digit_bounds_follow_the_paper_clauses(base):
    ms = [*range(1, 81), *(base**t + d for t in range(5, 18) for d in (-1, 0, 1))]
    for kind in (ARH, MRH):
        for m in ms:
            k_max, source = _paper_clause(base, m, kind)
            spec = digit_bound(base, m, kind)
            assert (spec.kind, spec.base, spec.multiplier) == (kind, base, m)
            assert (spec.k_max, spec.source) == (k_max, source), (base, m, kind)


@pytest.mark.parametrize("base", range(2, 41))
def test_floor_log_at_powers(base):
    for e in range(71):
        for m in (base**e - 1, base**e, base**e + 1):
            if m >= 1:
                f = floor_log(base, m)
                assert base**f <= m < base ** (f + 1), (base, m)


def _f(base: int, m: int, kind: str, s: int) -> int:
    """(b-1)*(c1*D(M*s) + c0): no member with multiplier m has digit sum s > _f(s)."""
    c1, c0 = (1, 1) if kind == ARH else (2, 0)
    return (base - 1) * (c1 * digit_count(m * s, base) + c0)


class TestDigitSumCap:
    @pytest.mark.parametrize(
        "base,m,kind,cap", [(10, 10**6, MRH, 162), (10, 100, ARH, 45), (16, 2 * 10**4, MRH, 180)]
    )
    def test_spot_values(self, base, m, kind, cap):
        assert digit_sum_cap(base, m, kind) == cap

    @pytest.mark.parametrize("kind", [ARH, MRH])
    @pytest.mark.parametrize("base", range(2, 17))
    def test_cap_is_fixed_point(self, base, kind):
        # The cap satisfies s <= f(s), and nothing just above it does.
        for m in range(1, 61):
            cap = digit_sum_cap(base, m, kind)
            assert cap <= _f(base, m, kind, cap), (base, m)
            above = [s for s in range(cap + 1, 4 * cap + 1) if s <= _f(base, m, kind, s)]
            assert not above, (base, m, above[:4])

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=10**30),
        st.sampled_from([ARH, MRH]),
    )
    def test_cap_is_fixed_point_at_large_m(self, base, m, kind):
        cap = digit_sum_cap(base, m, kind)
        assert cap <= _f(base, m, kind, cap)
        assert all(s > _f(base, m, kind, s) for s in range(cap + 1, 4 * cap + 1))

    def test_looser_than_paper_only_in_base2_mrh(self):
        looser = [
            (base, kind, m)
            for base in range(2, 17)
            for kind in (ARH, MRH)
            for m in range(1, 61)
            if digit_sum_cap(base, m, kind) > (base - 1) * digit_bound(base, m, kind).k_max
        ]
        assert looser == [(2, MRH, m) for m in (2, 3, 4, 5, 6, 8)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="must be positive"):
            digit_sum_cap(10, 0, ARH)
        with pytest.raises(ValueError, match="kind must be"):
            digit_sum_cap(10, 1, "niven")
        with pytest.raises(ValueError, match="base must be"):
            digit_sum_cap(1, 1, MRH)
