"""Constructive generators for the infinite families, with verifiers.

Each generator builds its family member as an int from the digit
pattern the paper defines it by, predicts (as ints) the multiplier set
the corresponding theorem describes, and attaches named claims.  The
all-ones and alternating sets are built by pair steps: each free digit
and its complement sit at mirrored positions, so a choice adds one
step b^hi - b^lo times the digit to a start value (_pair_steps), and
no member is built from its digits.  verify_family recomputes every
claim from those ints with exact arithmetic; a failing claim is data,
not a crash: construction guarantees that fail are IMPLEMENTATION-BUG,
printed-source assertions that recompute false are
CONFLICT-WITH-PAPER, and claims with no expected value are INFO.  One
listing of the digit-pair solver's multipliers for N serves both
claims about an additive multiplier set, and the not-MRH claim reads
the multiplicative digit-pair engine's witnesses, complete at any size,
so no claim is ever skipped.  The repunit12, alternating, square and
niven-not-mrh members share one size limit, MAX_MEMBER_DIGITS base-b
digits.  Every size limit is decided from the family's parameter, as
e <= bounds.floor_log(radix, limit), before any power is built.  Digit
text is rendered only for output.
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import floor_log
from .classify import (
    ARH,
    MRH,
    VerifyFailure,
    _listed_arh,
    mrh_witnesses,
    verify_witness,
)
from .digitvec import check_base, digit_sum_int, from_digits, render_digits, reverse_int

REPUNIT12 = "repunit12"
ALL_ONES = "all_ones"
ALTERNATING = "alternating"
SQUARE = "square"
NIVEN_NOT_MRH = "niven_not_mrh"

CONSTRUCTION = "construction"
PAPER = "paper"

PASS = "PASS"
IMPLEMENTATION_BUG = "IMPLEMENTATION-BUG"
CONFLICT_WITH_PAPER = "CONFLICT-WITH-PAPER"
INFO = "INFO"

# Materializing 2^((k-2p)/2) multipliers must stay sane.
MAX_MULTIPLIER_SET = 1 << 16
# Most base-b digits of a repunit12 (2*3^k: k <= 7), alternating (2*b^p - 2p + 1:
# p <= 12 in base 2), square (2^k: k <= 13) or niven-not-mrh member N.
# Building N from digits, and its digit sums and text, split it in halves,
# so each costs about one product of that size.
MAX_MEMBER_DIGITS = 1 << 13


class FamilyParameterError(ValueError):
    """A family side condition was violated; `condition` names which one."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class Claim(NamedTuple):
    name: str
    source: str  # CONSTRUCTION | PAPER
    expected: bool | None  # None: informational, reported but not judged

    def to_json_dict(self) -> dict:
        return self._asdict()


class FamilyInstance(NamedTuple):
    family: str
    base: int
    params: dict
    number: int
    predicted_multipliers: tuple[int, ...]
    claims: tuple[Claim, ...]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "base": self.base,
            "params": dict(self.params),
            "number": {"value": self.number, "digits": render_digits(self.number, self.base)},
            "predicted_multipliers": [
                {"value": m, "digits": render_digits(m, self.base)}
                for m in self.predicted_multipliers
            ],
            "claims": [c.to_json_dict() for c in self.claims],
        }


class ClaimResult(NamedTuple):
    name: str
    passed: bool | None  # None: informational
    verdict: str
    detail: str

    def to_json_dict(self) -> dict:
        return self._asdict()


class FamilyReport(NamedTuple):
    instance: FamilyInstance
    results: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.results)

    @property
    def conflicts(self) -> tuple[ClaimResult, ...]:
        return tuple(r for r in self.results if r.verdict == CONFLICT_WITH_PAPER)

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance.to_json_dict(),
            "results": [r.to_json_dict() for r in self.results],
            "passed": self.passed,
            "conflicts": [r.name for r in self.conflicts],
        }


def _require(ok: bool, condition: str, message: str) -> None:
    if not ok:
        raise FamilyParameterError(condition, message)


# -- generators --------------------------------------------------------


def gen_repunit12(k: int) -> FamilyInstance:
    """Base-10 numbers (12) repeated 3^k times; ARH and Niven for every k."""
    _require(k >= 0, "k >= 0", f"k must be a nonnegative integer, got {k}")
    _require(  # N has 2*3^k digits
        k <= floor_log(3, MAX_MEMBER_DIGITS // 2),
        "member materializable",
        f"(12) repeated 3^{k} times would have over {MAX_MEMBER_DIGITS} digits",
    )
    number = from_digits((1, 2) * 3**k, 10)
    s = 3 ** (k + 1)
    quot, rem = divmod(number, 2 * s)
    if rem:  # construction guarantee, must not occur
        raise ArithmeticError(f"2*s(N) does not divide N for k={k}")
    return FamilyInstance(
        family=REPUNIT12,
        base=10,
        params={"k": k},
        number=number,
        predicted_multipliers=(quot,),
        claims=(
            Claim("arh_witness", CONSTRUCTION, True),
            Claim("half_is_palindrome", CONSTRUCTION, True),
            Claim("niven", PAPER, True),
        ),
    )


def gen_all_ones(base: int, p: int) -> FamilyInstance:
    """(1) repeated k = b^p times in even base b; 2^((k-2p)/2) multipliers.

    The paper's k >= 2p always holds: b^p >= 2^p >= 2p.  The set's size
    is decided from p before b^p is built: 2^half <= MAX_MULTIPLIER_SET
    iff half <= bits = floor_log(2, MAX_MULTIPLIER_SET), iff
    b^p <= 2p + 2*bits + 1.
    """
    check_base(base)
    _require(base % 2 == 0, "b even", f"base must be even, got {base}")
    _require(p >= 1, "p >= 1", f"p must be >= 1, got {p}")
    _require(
        p <= floor_log(base, 2 * p + 2 * floor_log(2, MAX_MULTIPLIER_SET) + 1),
        "multiplier set materializable",
        f"multiplier set not materializable: 2^((b^p - 2p)/2) multipliers for b = {base}, "
        f"p = {p} exceed {MAX_MULTIPLIER_SET}",
    )
    k = base**p
    half = (k - 2 * p) // 2
    number = from_digits([1] * k, base)
    # M = [(1)^p c_0 .. c_{h-1} (1-c_{h-1}) .. (1-c_0)]_b: bit c_i sits at
    # b^(2h-1-i) and its complement at b^i.
    start = from_digits([1] * p + [0] * half + [1] * half, base)
    steps = [(range(2), base ** (2 * half - 1 - i) - base**i) for i in range(half)]
    claims = [
        Claim("multipliers_verify", CONSTRUCTION, True),
        Claim("multiplier_cardinality", PAPER, True),
        Claim("not_niven", PAPER, True),
    ]
    if base == 2:
        claims.append(Claim("multiplier_set_complete", PAPER, True))
    return FamilyInstance(
        family=ALL_ONES,
        base=base,
        params={"p": p, "k": k},
        number=number,
        predicted_multipliers=_pair_steps(start, steps),
        claims=tuple(claims),
    )


def gen_alternating(base: int, p: int) -> FamilyInstance:
    """[(1)^p (10)^(k-2p) 0 (1)^p]_b in even base b; (b-1)^((k-2p)/2) multipliers.

    Both limits are decided from p before b^p is built.  N has
    2k - 2p + 1 digits.  Base 2 has one multiplier at any p, so only N's
    size bounds p there: 2*2^p - 2p + 1 <= MAX_MEMBER_DIGITS.  Above
    base 2 the multiplier limit reads as in gen_all_ones, with b-1
    choices per free digit, and keeps N to at most 29 digits (b = 4, p = 2).
    """
    check_base(base)
    _require(base % 2 == 0, "b even", f"base must be even, got {base}")
    _require(p >= 1, "p >= 1", f"p must be >= 1, got {p}")
    if base == 2:
        _require(
            p <= floor_log(2, p + (MAX_MEMBER_DIGITS - 1) // 2),
            "member materializable",
            f"[(1)^p (10)^(k-2p) 0 (1)^p]_b for b = {base}, p = {p} would have over "
            f"{MAX_MEMBER_DIGITS} digits",
        )
    else:
        _require(
            p <= floor_log(base, 2 * p + 2 * floor_log(base - 1, MAX_MULTIPLIER_SET) + 1),
            "multiplier set materializable",
            f"multiplier set not materializable: (b-1)^((b^p - 2p)/2) multipliers for "
            f"b = {base}, p = {p} exceed {MAX_MULTIPLIER_SET}",
        )
    k = base**p
    _require(k > 2 * p, "k > 2p", f"k = b^p = {k} must be > 2p = {2 * p}")
    blocks = k - 2 * p
    half = blocks // 2
    number = from_digits([1] * p + [1, 0] * blocks + [0] + [1] * p, base)
    # M = [(1)^p 0 a_0 .. 0 a_{h-1} 0 (b-a_{h-1}) .. 0 (b-a_0) 0]_b: free
    # digit a_i sits at b^(2(blocks-i)-1) and its complement at b^(2i+1).
    # Start from every a_i = 1 and step a_i - 1.  Base 2 leaves no choice
    # (a_i = 1), and there only N's digit count bounds half.
    start = from_digits([1] * p + [0, 1] * half + [0, base - 1] * half + [0], base)
    steps = [
        (range(base - 1), base ** (2 * (blocks - i) - 1) - base ** (2 * i + 1))
        for i in range(half if base > 2 else 0)
    ]
    return FamilyInstance(
        family=ALTERNATING,
        base=base,
        params={"p": p, "k": k},
        number=number,
        predicted_multipliers=_pair_steps(start, steps),
        claims=(
            Claim("multipliers_verify", CONSTRUCTION, True),
            Claim("multiplier_cardinality", PAPER, True),
            Claim("not_niven", PAPER, True),
            Claim("multiplier_set_complete", PAPER, True),
        ),
    )


def _pair_steps(start: int, steps: list[tuple[range, int]]) -> tuple[int, ...]:
    """Every start + sum_i c_i*step_i with c_i in values_i, for steps = [(values_i, step_i)].

    A free digit c_i and its complement sit at mirrored positions, so
    choosing it adds c_i * (b^hi_i - b^lo_i) to the multiplier, as in
    classify.solve_arh.  The list grows by one free digit at a time, the
    first varying slowest: the order of itertools.product over the digits.
    """
    multipliers = [start]
    for values, step in steps:
        offsets = [c * step for c in values]
        multipliers = [m + d for m in multipliers for d in offsets]
    return tuple(multipliers)


# The printed example asserts the root is NOT Niven for this one instance.
SQUARE_PAPER_NOT_NIVEN = (17, 5)


def gen_square_family(base: int, k: int) -> FamilyInstance:
    """Perfect-square b-MRH numbers in odd base b with s_b(root) = s_b(N)."""
    check_base(base)
    _require(base % 2 == 1, "b odd", f"base must be odd, got {base}")
    _require(k >= 2, "k >= 2", f"k must be >= 2, got {k}")
    _require(  # N has 2^k digits
        k <= floor_log(2, MAX_MEMBER_DIGITS),
        "root materializable",
        f"root not materializable: 2^{k - 1} digits exceed {MAX_MEMBER_DIGITS // 2}",
    )
    half_len = 2 ** (k - 1)
    number = from_digits(
        [base - 1] * (half_len - 1) + [base - 2] + [0] * (half_len - 1) + [1], base
    )
    root = from_digits([base - 1] * half_len, base)
    s = half_len * (base - 1)
    predicted = (root // s,) if root % s == 0 else ()
    if base % 4 == 3:
        root_claim = Claim("root_niven", PAPER, True)
    elif (base, k) == SQUARE_PAPER_NOT_NIVEN:
        root_claim = Claim("root_niven", PAPER, False)
    else:
        root_claim = Claim("root_niven", PAPER, None)
    return FamilyInstance(
        family=SQUARE,
        base=base,
        params={"k": k},
        number=number,
        predicted_multipliers=predicted,
        claims=(
            Claim("square_is_number", CONSTRUCTION, True),
            Claim("digit_sum_match", PAPER, True),
            Claim("digit_sum_divides_root", PAPER, True),
            Claim("mrh_witness", PAPER, True),
            root_claim,
        ),
    )


def gen_niven_not_mrh(base: int, n: int) -> FamilyInstance:
    """(b-1)*n*R_n: a b-Niven number that is not b-MRH, for (b-1) not dividing n."""
    check_base(base)
    _require(n >= 1, "n >= 1", f"n must be >= 1, got {n}")
    _require(
        n % (base - 1) != 0,
        "(b-1) does not divide n",
        f"n = {n} is divisible by b-1 = {base - 1}",
    )
    # (b-1)*n*R_n = n*(b^n - 1) < b^L iff n - 1 < b^(L-n), for L = MAX_MEMBER_DIGITS;
    # floor_log of n - 1 (of 1 at n = 1) decides it without building b^n.
    _require(
        floor_log(base, max(n - 1, 1)) < MAX_MEMBER_DIGITS - n,
        "member materializable",
        f"(b-1)*n*R_n would have over {MAX_MEMBER_DIGITS} digits",
    )
    number = (base - 1) * n * from_digits([1] * n, base)
    return FamilyInstance(
        family=NIVEN_NOT_MRH,
        base=base,
        params={"n": n},
        number=number,
        predicted_multipliers=(),
        claims=(
            Claim("digit_sum_lemma", PAPER, True),
            Claim("niven", PAPER, True),
            Claim("not_mrh", PAPER, True),
        ),
    )


# -- verification ------------------------------------------------------


def _judge(claim: Claim, actual: bool, detail: str) -> ClaimResult:
    if claim.expected is None:
        return ClaimResult(claim.name, None, INFO, detail)
    if actual == claim.expected:
        return ClaimResult(claim.name, True, PASS, detail)
    verdict = IMPLEMENTATION_BUG if claim.source == CONSTRUCTION else CONFLICT_WITH_PAPER
    return ClaimResult(claim.name, False, verdict, detail)


def verify_family(inst: FamilyInstance) -> FamilyReport:
    """Recompute every claim of the instance with exact arithmetic.

    N's digit sum, for the square family the root and its digit sum,
    and for the additive multiplier sets the solver's listing are
    computed once, before the claims; each claim then only sets its
    outcome and detail, which one _judge records.  Constructive
    witnesses are used at any size.

    Both claims about an additive multiplier set read one listing,
    classify's: classify.solve_arh solves N = X + X^R from N's digits,
    and its X are exactly those with X + X^R = N and s_b(N) | X,
    complete at any size.  So a predicted M satisfies X + X^R = N for
    X = M*s_b(N) (multipliers_verify) iff M is listed, and the listing,
    against the predicted set, decides multiplier_set_complete.  Like
    classify, it refuses (ValueError) an N with more than
    MAX_LISTED_WITNESSES witnesses before listing any, above the
    MAX_MULTIPLIER_SET multipliers a generated set may hold.  The
    not-MRH claim reads classify.mrh_witnesses, complete at any size,
    so no claim is ever skipped.
    """
    base = inst.base
    value = inst.number
    s = digit_sum_int(value, base)
    multipliers = inst.predicted_multipliers
    if inst.family == SQUARE:
        root = from_digits([base - 1] * 2 ** (inst.params["k"] - 1), base)
        root_sum = digit_sum_int(root, base)
    if any(c.name in ("multipliers_verify", "multiplier_set_complete") for c in inst.claims):
        predicted = set(multipliers)
        listed = [x // s for x in _listed_arh(value, base)]
        solved = set(listed)
        failing = [m for m in multipliers if m not in solved]
    results = []
    for claim in inst.claims:
        name = claim.name
        if name == "arh_witness":
            ok = not isinstance(verify_witness(value, base, multipliers[0], ARH), VerifyFailure)
            detail = f"M={multipliers[0]}: X + X^R {'=' if ok else '!='} N"
        elif name == "half_is_palindrome":
            x = multipliers[0] * s
            ok = reverse_int(x, base) == x
            detail = f"X = M*s = {render_digits(x, base)}"
        elif name == "niven":
            ok = value % s == 0
            detail = f"s_b(N) = {s} {'|' if ok else 'does not divide'} N"
        elif name == "not_niven":
            ok = value % s != 0
            detail = f"s_b(N) = {s} {'does not divide' if ok else '|'} N"
        elif name == "multipliers_verify":
            ok = not failing
            detail = (
                f"{len(multipliers) - len(failing)}/{len(multipliers)}"
                " multipliers satisfy X + X^R = N"
                + (f"; failing: {failing[:4]}" if failing else "")
            )
        elif name == "multiplier_cardinality":
            half = (inst.params["k"] - 2 * inst.params["p"]) // 2
            expected_count = 1 << half if inst.family == ALL_ONES else (base - 1) ** half
            ok = len(multipliers) == expected_count
            detail = f"predicted {len(multipliers)}, formula {expected_count}"
        elif name == "multiplier_set_complete":
            extra = [m for m in listed if m not in predicted][:4]
            missing = sorted(set(failing))[:4]
            ok = not extra and not missing
            detail = f"brute force found {len(listed)} multipliers"
            if extra:
                detail += f"; unpredicted: {extra}"
            if missing:
                detail += f"; predicted but absent: {missing}"
        elif name == "square_is_number":
            ok = root * root == value
            detail = f"root^2 {'=' if ok else '!='} N"
        elif name == "digit_sum_match":
            expected_sum = 2 ** (inst.params["k"] - 1) * (base - 1)
            ok = root_sum == s == expected_sum
            detail = f"s_b(root) = {root_sum}, s_b(N) = {s}, formula {expected_sum}"
        elif name == "digit_sum_divides_root":
            rem = root % s
            ok = rem == 0
            detail = f"root mod s_b(N) = {rem}"
        elif name == "mrh_witness":
            if multipliers:
                ok = not isinstance(verify_witness(value, base, multipliers[0], MRH), VerifyFailure)
                detail = f"M={multipliers[0]}: X * X^R {'=' if ok else '!='} N"
            else:
                ok = False
                detail = "no integer multiplier: s_b(N) does not divide the root"
        elif name == "root_niven":
            ok = root % root_sum == 0
            detail = f"root is {'a' if ok else 'not a'} {base}-Niven number"
        elif name == "digit_sum_lemma":
            expected_sum = (base - 1) * inst.params["n"]
            ok = s == expected_sum
            detail = f"s_b(N) = {s}, (b-1)*n = {expected_sum}"
        elif name == "not_mrh":
            found = [w.m for w in mrh_witnesses(value, base)]
            ok = not found
            detail = (
                "exhaustive search found no multiplicative multiplier"
                if ok
                else f"multiplicative multipliers exist: {found[:4]}"
            )
        else:  # unknown claim name is a construction bug
            results.append(ClaimResult(name, False, IMPLEMENTATION_BUG, "unknown claim"))
            continue
        results.append(_judge(claim, ok, detail))
    return FamilyReport(instance=inst, results=tuple(results))
