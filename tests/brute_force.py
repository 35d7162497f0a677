"""Brute-force references for the digit-pair ARH solver.

Both try every candidate X below N, so they are fit for small N only:
the tests check classify.solve_arh and reversal_pair_sums against
them.
"""

from rhnumbers.digitvec import digit_sum_int, reverse_int


def arh_products_brute(value: int, base: int) -> list[int]:
    """Every X with X + X^R = value and s_b(value) | X, ascending.

    X + X^R = N forces s | X and X < N (X^R >= 1), so trying every
    multiple of s = s_b(N) below N is complete.
    """
    s = digit_sum_int(value, base)
    return [x for x in range(s, value, s) if x + reverse_int(x, base) == value]


def is_expressible_brute(n: int, base: int) -> bool:
    """Whether n = X + X^R for some positive X (X < n suffices)."""
    return any(x + reverse_int(x, base) == n for x in range(1, n))
