import ast
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhnumbers import digitvec
from rhnumbers.digitvec import (
    digit_count_int,
    digit_sum_int,
    digits_int,
    from_digits,
    has_zero_digit,
    parse_digits,
    render_digits,
    reverse_int,
)


def value_oracle(digits, base):
    """Independent positional evaluation: sum d_i * b^i from the right."""
    return sum(d * base**i for i, d in enumerate(reversed(digits)))


def digits_oracle(n, base):
    """Base-b digits of n >= 0, most significant first, by repeated divmod."""
    digits = []
    while True:
        n, d = divmod(n, base)
        digits.append(d)
        if not n:
            return digits[::-1]


class TestFromInt:
    """Digit text of an int (render_digits)."""

    def test_taxicab(self):
        assert render_digits(1729, 10) == "1729"

    def test_zero_base2(self):
        assert render_digits(0, 2) == "0"

    def test_64_base3(self):
        assert render_digits(64, 3) == "2101"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            render_digits(-1, 10)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError, match="base must be an integer >= 2"):
            render_digits(5, 1)

    def test_no_int_to_str_limit(self):
        # 5000 decimal digits, beyond CPython's default str(int) limit.
        assert render_digits(from_digits([1] * 5000, 10), 10) == "1" * 5000


class TestToInt:
    """Value of a digit sequence (from_digits)."""

    def test_base4_positional_oracle(self):
        digits = (1, 1, 0, 1, 0, 0, 1)
        assert value_oracle(digits, 4) == 5185
        assert from_digits(digits, 4) == 5185

    def test_zero(self):
        assert from_digits([0], 7) == 0
        assert from_digits([], 7) == 0

    def test_44_base5(self):
        assert from_digits([4, 4], 5) == 24

    def test_ones_base2(self):
        assert from_digits([1] * 16, 2) == 2**16 - 1

    def test_leading_zeros(self):
        assert from_digits([0, 0, 1, 2], 10) == 12

    def test_rejects_digit_out_of_range(self):
        with pytest.raises(ValueError, match="digit 10 out of range for base 10"):
            from_digits((1, 10), 10)
        with pytest.raises(ValueError, match="digit -1 out of range for base 10"):
            from_digits((1, -1), 10)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError, match="base must be an integer >= 2"):
            from_digits([1], 1)


class TestParse:
    def test_leading_zeros_read(self):
        assert parse_digits("0012", 10) == 12
        assert parse_digits("0,0,1,2", 16) == 18

    def test_comma_separated_above_base_10(self):
        assert parse_digits("1,2,3", 16) == 291
        assert parse_digits(" 16,16,15 ", 17) == 16 * 17**2 + 16 * 17 + 15

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_refused(self, text):
        with pytest.raises(ValueError, match="empty digit string"):
            parse_digits(text, 10)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError, match="base must be an integer >= 2"):
            parse_digits("1", 1)


class TestAddMul:
    """Sums and products are int arithmetic; the digit text shows them."""

    def test_add_base4_with_carries(self):
        a = parse_digits("1020200", 4)
        c = parse_digits("20201", 4)
        assert render_digits(a + c, 4) == "1101001"

    def test_mul_19_91(self):
        assert render_digits(19 * reverse_int(19, 10), 10) == "1729"

    def test_mul_identity(self):
        assert parse_digits(render_digits(4821 * 1, 10), 10) == 4821

    def test_base_mismatch_rejected(self):
        # Digits of one base are refused in a smaller one.
        with pytest.raises(ValueError, match="digit 2 out of range for base 2"):
            parse_digits("1020200", 2)
        with pytest.raises(ValueError, match="digit 16 out of range for base 10"):
            from_digits((16, 16, 15), 10)


class TestRendering:
    def test_small_base_juxtaposed(self):
        assert render_digits(1729, 10) == "1729"

    def test_large_base_commas(self):
        assert render_digits(from_digits([16, 16, 15], 17), 17) == "16,16,15"

    @pytest.mark.parametrize("base", range(2, 37))
    @pytest.mark.parametrize("n", [0, 1, 5184, 65535])
    def test_round_trip(self, base, n):
        assert parse_digits(render_digits(n, base), base) == n


class TestReversal:
    def test_19_to_91(self):
        assert reverse_int(19, 10) == 91

    def test_trailing_zero_drops(self):
        # 10 reverses to 1: the Table-1 row M=5 containing 11 forces this.
        assert reverse_int(10, 10) == 1

    @pytest.mark.parametrize("n", [1, 7, 33, 434, 65556])
    def test_palindrome_fixed(self, n):
        digits = digits_oracle(n, 10)
        assert (reverse_int(n, 10) == n) == (digits == digits[::-1])


class TestDigitSum:
    def test_1729(self):
        assert digit_sum_int(1729, 10) == 19

    def test_ones_base2(self):
        assert digit_sum_int(from_digits([1] * 16, 2), 2) == 16

    def test_zero(self):
        assert digit_sum_int(0, 10) == 0


# -- property tests ----------------------------------------------------

values = st.integers(min_value=0, max_value=10**12)
bases = st.integers(min_value=2, max_value=36)


@given(values, bases)
def test_round_trip_int(n, base):
    assert parse_digits(render_digits(n, base), base) == n
    assert from_digits(digits_oracle(n, base), base) == n


@given(st.integers(min_value=1, max_value=10**12), bases)
def test_reversal_involution_and_bound(n, base):
    digits = digits_oracle(n, base)
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
    assert digit_sum_int(n, base) % (base - 1) == n % (base - 1)


@given(values, bases)
def test_int_helpers_match_digitvec(n, base):
    digits = digits_oracle(n, base)
    assert value_oracle(digits, base) == n
    assert reverse_int(n, base) == value_oracle(digits[::-1], base)
    assert digit_sum_int(n, base) == sum(digits)
    assert digit_count_int(n, base) == len(digits)
    assert has_zero_digit(n, base) == (0 in digits)
    assert render_digits(n, base) == ("" if base <= 10 else ",").join(map(str, digits))


@given(st.integers(min_value=0, max_value=2**3000), bases)
def test_long_values_match_the_per_digit_loop(n, base):
    # Above 64 digits the helpers split by divmod(x, b**m) and join as
    # hi*b^m + lo; the oracle takes one digit at a time.
    digits = digits_oracle(n, base)
    assert digits_int(n, base) == (digits[::-1] if n else [])
    assert digit_sum_int(n, base) == sum(digits)
    assert from_digits(digits, base) == n
    assert render_digits(n, base) == ("" if base <= 10 else ",").join(map(str, digits))


def test_long_digit_list_reports_its_first_bad_digit():
    with pytest.raises(ValueError, match="digit 12 out of range for base 10"):
        from_digits([1] * 100 + [12, 11] + [1] * 100, 10)


def per_digit_text(n, base):
    """Digit text taken one divmod per digit: the reference for the chunked render_digits."""
    return ("" if base <= 10 else ",").join(map(str, digits_oracle(n, base)))


# Bases 2-300 cross the chunk table's cap (2^8): above it no table is built.
@given(st.integers(min_value=0, max_value=10**80), st.integers(min_value=2, max_value=300))
def test_chunked_rendering_matches_the_per_digit_text(n, base):
    assert render_digits(n, base) == per_digit_text(n, base)


@pytest.mark.parametrize("base", [2, 3, 7, 10, 11, 16, 17, 34, 255, 256, 257])
def test_chunk_boundaries(base):
    size = digitvec._chunk_texts(base)[0] if base <= digitvec._CHUNK_TABLE_CAP else base
    for n in (size - 1, size, size + 1, size**2 - 1, size**2, size**3 - 1, size**3):
        assert render_digits(n, base) == per_digit_text(n, base), (n, base)


@pytest.mark.parametrize("base", [2, 10, 16, 17, 300])
def test_5000_digit_rendering(base):
    n = from_digits([(7 * i + 3) % base for i in range(5000)], base)
    assert render_digits(n, base) == per_digit_text(n, base)


@pytest.mark.parametrize("limit", [None, 640])  # 640: the smallest int-to-str limit allowed
@pytest.mark.parametrize("base", [10, 2])
def test_builtin_rendering_matches_the_per_digit_text(base, limit):
    # Base 10 takes int.__repr__ up to 2048 bits and the chunk tables
    # above; base 2 takes format(value, "b") at any size.
    values = [v for bits in (2047, 2048, 2049) for v in (2 ** (bits - 1), 2**bits - 1)]
    values.append(from_digits([(7 * i + 3) % base for i in range(5000)], base))
    saved = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        for n in values:
            assert render_digits(n, base) == per_digit_text(n, base), n.bit_length()
    finally:
        sys.set_int_max_str_digits(saved)


def test_huge_base_builds_no_table():
    before = digitvec._chunk_texts.cache_info().currsize
    n = from_digits([1] * 5000, 10)
    start = time.perf_counter()
    text = render_digits(n, 2**21 + 1)
    assert time.perf_counter() - start < 0.1
    assert digitvec._chunk_texts.cache_info().currsize == before
    assert parse_digits(text, 2**21 + 1) == n


# Values up to 5000 digits, times b^z: the trailing zeros vanish.  The
# quadratic value_oracle takes about 0.3 s at the widest inputs.
@settings(deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=40),
    st.data(),
)
def test_reversal_matches_the_digit_list(base, width, zeros, data):
    n = data.draw(st.integers(min_value=1, max_value=base**width - 1)) * base**zeros
    assert reverse_int(n, base) == value_oracle(digits_oracle(n, base)[::-1], base)


def test_brute_force_imports_nothing_from_the_package():
    # Its digit loops are its own, so no comparison against it shares a
    # primitive with the code it checks.
    tree = ast.parse((Path(__file__).parent / "brute_force.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "rhnumbers"]
