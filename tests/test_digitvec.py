import pytest
from hypothesis import given
from hypothesis import strategies as st

from rhnumbers.digitvec import (
    DigitVec,
    digit_count_int,
    digit_sum_int,
    has_zero_digit,
    reverse_int,
)


def value_oracle(digits, base):
    """Independent positional evaluation: sum d_i * b^i from the right."""
    return sum(d * base**i for i, d in enumerate(reversed(digits)))


class TestFromInt:
    def test_taxicab(self):
        assert DigitVec.from_int(1729, 10).digits == (1, 7, 2, 9)

    def test_zero_base2(self):
        assert DigitVec.from_int(0, 2).digits == (0,)

    def test_64_base3(self):
        assert DigitVec.from_int(64, 3).digits == (2, 1, 0, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DigitVec.from_int(-1, 10)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            DigitVec.from_int(5, 1)


class TestToInt:
    def test_base4_positional_oracle(self):
        digits = (1, 1, 0, 1, 0, 0, 1)
        assert value_oracle(digits, 4) == 5185
        assert DigitVec.from_digits(digits, 4).to_int() == 5185

    def test_zero(self):
        assert DigitVec.from_int(0, 7).to_int() == 0

    def test_44_base5(self):
        assert DigitVec.from_digits([4, 4], 5).to_int() == 24

    def test_ones_base2(self):
        assert DigitVec.from_digits([1] * 16, 2).to_int() == 2**16 - 1


class TestReversal:
    def test_19_to_91(self):
        assert reverse_int(19, 10) == 91

    def test_trailing_zero_drops(self):
        # 10 reverses to 1: the Table-1 row M=5 containing 11 forces this.
        assert reverse_int(10, 10) == 1

    @pytest.mark.parametrize("n", [1, 7, 33, 434, 65556])
    def test_palindrome_fixed(self, n):
        digits = DigitVec.from_int(n, 10).digits
        assert (reverse_int(n, 10) == n) == (digits == digits[::-1])


class TestDigitSum:
    def test_1729(self):
        assert DigitVec.from_int(1729, 10).digit_sum() == 19

    def test_ones_base2(self):
        assert DigitVec.from_digits([1] * 16, 2).digit_sum() == 16

    def test_zero(self):
        assert DigitVec.from_int(0, 10).digit_sum() == 0


class TestAddMul:
    """Sums and products are int arithmetic; the digit view renders them."""

    def test_add_base4_with_carries(self):
        a = DigitVec.parse("1020200", 4)
        c = DigitVec.parse("20201", 4)
        assert DigitVec.from_int(a.to_int() + c.to_int(), 4).render() == "1101001"

    def test_mul_19_91(self):
        assert DigitVec.from_int(19 * reverse_int(19, 10), 10).render() == "1729"

    def test_mul_identity(self):
        d = DigitVec.from_int(4821, 10)
        assert DigitVec.from_int(d.to_int() * 1, 10) == d

    def test_base_mismatch_rejected(self):
        # Digits of one base are refused in a smaller one.
        with pytest.raises(ValueError):
            DigitVec.parse("1020200", 2)
        with pytest.raises(ValueError):
            DigitVec.from_digits((16, 16, 15), 10)


class TestRendering:
    def test_small_base_juxtaposed(self):
        assert DigitVec.from_int(1729, 10).render() == "1729"

    def test_large_base_commas(self):
        d = DigitVec.from_digits([16, 16, 15], 17)
        assert d.render() == "16,16,15"

    @pytest.mark.parametrize("base", [2, 7, 10, 11, 17, 36])
    @pytest.mark.parametrize("n", [0, 1, 5184, 65535])
    def test_round_trip(self, base, n):
        d = DigitVec.from_int(n, base)
        assert DigitVec.parse(d.render(), base) == d


# -- property tests ----------------------------------------------------

values = st.integers(min_value=0, max_value=10**12)
bases = st.integers(min_value=2, max_value=16)


@given(values, bases)
def test_round_trip_int(n, base):
    assert DigitVec.from_int(n, base).to_int() == n


@given(st.integers(min_value=1, max_value=10**12), bases)
def test_reversal_involution_and_bound(n, base):
    digits = DigitVec.from_int(n, base).digits
    r = reverse_int(n, base)
    assert r == value_oracle(digits[::-1], base)
    assert r < base * n  # reversal grows by strictly less than b
    rr = reverse_int(r, base)
    if digits[-1] != 0:
        assert rr == n
    else:
        assert rr <= n


@given(values, bases)
def test_casting_out_base_minus_one(n, base):
    d = DigitVec.from_int(n, base)
    assert d.digit_sum() % (base - 1) == n % (base - 1)


@given(values, bases)
def test_int_helpers_match_digitvec(n, base):
    digits = DigitVec.from_int(n, base).digits
    assert value_oracle(digits, base) == n
    assert reverse_int(n, base) == value_oracle(digits[::-1], base)
    assert digit_sum_int(n, base) == sum(digits)
    assert digit_count_int(n, base) == len(digits)
    assert has_zero_digit(n, base) == (0 in digits)
