import time

import pytest
from brute_force import all_ones_multipliers_brute, alternating_multipliers_brute

from rhnumbers.classify import (
    ARH,
    MAX_LISTED_WITNESSES,
    Witness,
    arh_witnesses,
    is_niven,
    solve_arh,
    verify_witness,
)
from rhnumbers.digitvec import digit_count_int, digit_sum_int, parse_digits, render_digits
from rhnumbers.families import (
    ALL_ONES,
    ALTERNATING,
    CONFLICT_WITH_PAPER,
    CONSTRUCTION,
    IMPLEMENTATION_BUG,
    MAX_MEMBER_DIGITS,
    MAX_MULTIPLIER_SET,
    NIVEN_NOT_MRH,
    PAPER,
    REPUNIT12,
    SQUARE,
    Claim,
    FamilyInstance,
    FamilyParameterError,
    gen_all_ones,
    gen_alternating,
    gen_niven_not_mrh,
    gen_repunit12,
    gen_square_family,
    verify_family,
)


class TestRepunit12:
    def test_k0(self):
        inst = gen_repunit12(0)
        assert inst.number == 12
        assert inst.predicted_multipliers == (2,)
        assert verify_family(inst).passed

    def test_k1(self):
        inst = gen_repunit12(1)
        assert inst.number == 121212
        assert inst.predicted_multipliers == (6734,)
        report = verify_family(inst)
        assert report.passed
        got = verify_witness(inst.number, inst.base, 6734, ARH)
        assert isinstance(got, Witness) and got.x == 60606

    def test_k2_eighteen_digits(self):
        inst = gen_repunit12(2)
        assert digit_count_int(inst.number, 10) == 18
        assert verify_family(inst).passed

    def test_k3_beyond_word_size(self):
        inst = gen_repunit12(3)
        assert digit_count_int(inst.number, 10) == 54
        assert inst.number > 2**63
        assert verify_family(inst).passed

    def test_negative_k_rejected(self):
        with pytest.raises(FamilyParameterError):
            gen_repunit12(-1)

    def test_member_digit_limit(self):
        # N has 2 * 3^k digits: k = 7 gives 4,374, and k = 8 would give 13,122.
        assert digit_count_int(gen_repunit12(7).number, 10) == 2 * 3**7
        for k in (8, 10**9):  # refused before 3^k is built
            with pytest.raises(FamilyParameterError) as exc:
                gen_repunit12(k)
            assert exc.value.condition == "member materializable"


# The sixteen multipliers printed for the b=2, p=4 example, verbatim.
# The 4th entry violates the theorem's symmetric-digit condition and is
# not a multiplier of 65535; the correct value is [111100110011]_2.
PRINTED_16 = [
    "111100001111", "111100010111", "111100101011", "111100111100",
    "111101001101", "111101010101", "111101101001", "111101110001",
    "111110001110", "111110010110", "111110101010", "111110110010",
    "111111001100", "111111010100", "111111101000", "111111110000",
]


class TestAllOnes:
    def test_b2_p4(self):
        inst = gen_all_ones(2, 4)
        assert inst.number == 65535
        assert len(inst.predicted_multipliers) == 16
        assert render_digits(inst.predicted_multipliers[0], 2) == "111100001111"
        assert render_digits(inst.predicted_multipliers[-1], 2) == "111111110000"
        report = verify_family(inst)
        assert report.passed
        assert {r.name for r in report.results} >= {
            "multipliers_verify", "multiplier_cardinality",
            "not_niven", "multiplier_set_complete",
        }

    def test_b2_p4_brute_force_equality(self):
        inst = gen_all_ones(2, 4)
        brute = {w.m for w in arh_witnesses(inst.number, inst.base)}
        assert set(inst.predicted_multipliers) == brute

    def test_b2_p4_against_printed_list(self):
        generated = {render_digits(m, 2) for m in gen_all_ones(2, 4).predicted_multipliers}
        printed = set(PRINTED_16)
        assert printed - generated == {"111100111100"}
        assert generated - printed == {"111100110011"}
        # the printed odd-one-out breaches the construction's own condition
        inner = "111100111100"[4:]
        assert any(inner[i] == inner[len(inner) - 1 - i] for i in range(len(inner) // 2))

    def test_b2_p1_single_multiplier(self):
        inst = gen_all_ones(2, 1)
        assert inst.number == 3
        assert inst.predicted_multipliers == (1,)
        assert verify_family(inst).passed

    def test_b4_p1_two_multipliers(self):
        inst = gen_all_ones(4, 1)
        assert len(inst.predicted_multipliers) == 2
        assert verify_family(inst).passed

    def test_odd_base_rejected(self):
        with pytest.raises(FamilyParameterError) as exc:
            gen_all_ones(3, 1)
        assert exc.value.condition == "b even"

    @pytest.mark.parametrize("base,p", [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (6, 1), (8, 1)])
    def test_cardinality_formula(self, base, p):
        inst = gen_all_ones(base, p)
        k = base**p
        assert len(inst.predicted_multipliers) == 2 ** ((k - 2 * p) // 2)
        assert not is_niven(inst.number, inst.base)


class TestAlternating:
    def test_b4_p1_exact_set(self):
        inst = gen_alternating(4, 1)
        assert inst.number == 5185
        assert {render_digits(m, inst.base) for m in inst.predicted_multipliers} == {
            "102020", "101030", "103010",
        }
        report = verify_family(inst)
        assert report.passed
        complete = next(r for r in report.results if r.name == "multiplier_set_complete")
        assert complete.verdict == "PASS"

    def test_b2_p1_violates_side_condition(self):
        with pytest.raises(FamilyParameterError) as exc:
            gen_alternating(2, 1)
        assert exc.value.condition == "k > 2p"

    def test_b6_p1_25_multipliers(self):
        inst = gen_alternating(6, 1)
        assert len(inst.predicted_multipliers) == 25
        report = verify_family(inst)
        verify = next(r for r in report.results if r.name == "multipliers_verify")
        assert verify.verdict == "PASS"

    @pytest.mark.parametrize("base,p", [(4, 1), (6, 1), (8, 1), (2, 3), (2, 4)])
    def test_cardinality_formula(self, base, p):
        inst = gen_alternating(base, p)
        k = base**p
        assert len(inst.predicted_multipliers) == (base - 1) ** ((k - 2 * p) // 2)
        values = inst.predicted_multipliers
        assert list(values) == sorted(values)
        assert not is_niven(inst.number, inst.base)


def _pair_step_cases():
    """Every (b, p) with b <= 34 whose multiplier set is materializable.

    Base 2 admits any p for the alternating family (one multiplier), so
    p stops at 6; a radix above 1 with half > 16 is over the limit.
    """
    for generate, brute, radix in (
        (gen_all_ones, all_ones_multipliers_brute, lambda b: 2),
        (gen_alternating, alternating_multipliers_brute, lambda b: b - 1),
    ):
        for base in range(2, 35, 2):
            for p in range(1, 7):
                half = (base**p - 2 * p) // 2
                if base**p <= 2 * p or (radix(base) > 1 and half > 16):
                    continue
                if radix(base) ** half <= MAX_MULTIPLIER_SET:
                    yield generate, brute, base, p


PAIR_STEP_CASES = list(_pair_step_cases())


@pytest.mark.parametrize(
    "generate,brute,base,p",
    PAIR_STEP_CASES,
    ids=[f"{g.__name__}-{b}-{p}" for g, _, b, p in PAIR_STEP_CASES],
)
def test_pair_step_multipliers_equal_the_digit_patterns(generate, brute, base, p):
    # The generators add one pair step per free digit; the references
    # build each member from its digits, in itertools.product order.
    assert list(generate(base, p).predicted_multipliers) == brute(base, p)


def test_every_multiplier_set_fits_the_listing_limit():
    # verify_family reads one listing under classify's limit for both set
    # claims, so no set a generator builds may pass that limit.
    assert MAX_MULTIPLIER_SET <= MAX_LISTED_WITNESSES


def test_generated_multiplier_sets_are_the_solver_sets():
    # Every all-ones and alternating instance the generators admit, small
    # enough to list, has exactly its predicted multipliers: the solver's
    # count equals the predicted size, and both set claims pass.
    checked = 0
    for generate in (gen_all_ones, gen_alternating):
        for base in range(2, 35, 2):
            for p in range(1, 8):
                try:
                    inst = generate(base, p)
                except FamilyParameterError:
                    continue
                predicted = inst.predicted_multipliers
                assert solve_arh(inst.number, base)[0] == len(predicted), (generate, base, p)
                results = {r.name: r for r in verify_family(inst).results}
                assert results["multipliers_verify"].passed, (generate, base, p)
                complete = results.get("multiplier_set_complete")
                if complete is not None:
                    assert (complete.passed, complete.detail) == (
                        True, f"brute force found {len(predicted)} multipliers"
                    ), (generate, base, p)
                checked += 1
    assert checked == 33


def test_base2_alternating_member_is_refused_before_it_is_built():
    # N has 2*2^p - 2p + 1 digits and one multiplier at every p; p = 20
    # took 9.6 s to build and print, only to exit 2 at the int-to-str limit.
    start = time.perf_counter()
    with pytest.raises(FamilyParameterError) as exc:
        gen_alternating(2, 20)
    assert time.perf_counter() - start < 0.1
    assert exc.value.condition == "member materializable"
    with pytest.raises(FamilyParameterError) as exc:
        gen_alternating(2, 13)  # 16,359 digits
    assert exc.value.condition == "member materializable"
    assert gen_alternating(2, 12).number.bit_length() == 8169 <= MAX_MEMBER_DIGITS


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_base2_alternating_members_below_the_limit(p):
    k = 2**p
    inst = gen_alternating(2, p)
    assert inst.number == int("1" * p + "10" * (k - 2 * p) + "0" + "1" * p, 2)
    assert list(inst.predicted_multipliers) == alternating_multipliers_brute(2, p)
    assert verify_family(inst).passed


def test_refusal_does_not_build_the_multiplier_count():
    # (b-1)^half at b = 34, p = 6 has about 3.9*10^9 bits.
    with pytest.raises(FamilyParameterError) as exc:
        gen_alternating(34, 6)
    assert exc.value.condition == "multiplier set materializable"
    with pytest.raises(FamilyParameterError) as exc:
        gen_all_ones(34, 6)
    assert exc.value.condition == "multiplier set materializable"


@pytest.mark.parametrize(
    "generate,base,p,condition",
    [
        (gen_all_ones, 2, 10**8, "multiplier set materializable"),
        (gen_alternating, 4, 3 * 10**7, "multiplier set materializable"),
        (gen_alternating, 2, 10**8, "member materializable"),
    ],
)
def test_refusal_does_not_build_b_to_the_p(generate, base, p, condition):
    # Building b^p alone took 0.6-0.8 s and 40-57 MB here, and its half
    # in the message overran the int-to-str digit limit.
    start = time.perf_counter()
    with pytest.raises(FamilyParameterError) as exc:
        generate(base, p)
    assert time.perf_counter() - start < 0.1
    assert exc.value.condition == condition
    assert f"b = {base}, p = {p}" in str(exc.value)


class TestSquareFamily:
    def test_b3_k2(self):
        inst = gen_square_family(3, 2)
        assert render_digits(inst.number, 3) == "2101"
        assert inst.number == 64
        assert inst.predicted_multipliers == (2,)
        assert verify_family(inst).passed

    def test_b7_k2(self):
        inst = gen_square_family(7, 2)
        assert render_digits(inst.number, 7) == "6501"
        assert inst.predicted_multipliers == (4,)
        assert parse_digits("66", 7) == 48  # the root
        assert verify_family(inst).passed

    def test_b17_k5_conflict_with_paper(self):
        inst = gen_square_family(17, 5)
        report = verify_family(inst)
        assert not report.passed
        (conflict,) = report.conflicts
        assert conflict.name == "root_niven"
        assert conflict.verdict == CONFLICT_WITH_PAPER
        # everything else holds, including the MRH witness at 32 digits
        others = [r for r in report.results if r.name != "root_niven"]
        assert all(r.passed for r in others)

    @pytest.mark.parametrize("base", [3, 5, 7, 9, 11, 13])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_root_square_and_digit_sums(self, base, k):
        inst = gen_square_family(base, k)
        report = verify_family(inst)
        by_name = {r.name: r for r in report.results}
        assert by_name["square_is_number"].passed
        assert by_name["digit_sum_match"].passed
        assert by_name["digit_sum_divides_root"].passed
        assert by_name["mrh_witness"].passed
        if base % 4 == 3:
            assert by_name["root_niven"].passed

    @pytest.mark.parametrize("base", [3, 7])
    def test_at_root_digit_cap(self, base):
        # k = 13 gives a 2^12-digit root, the largest the generator allows.
        inst = gen_square_family(base, 13)
        assert digit_count_int(inst.number, base) == MAX_MEMBER_DIGITS
        report = verify_family(inst)
        assert [r.passed for r in report.results] == [True] * 5
        with pytest.raises(FamilyParameterError) as exc:
            gen_square_family(base, 14)
        assert exc.value.condition == "root materializable"

    @pytest.mark.parametrize("k", [20000, 10**8])
    def test_huge_k_is_refused_before_the_root_is_built(self, k):
        # Building 2^(k-1) first took 0.44 s and 43 MB at k = 10^8, and
        # printing it overran the int-to-str digit limit.
        start = time.perf_counter()
        with pytest.raises(FamilyParameterError) as exc:
            gen_square_family(3, k)
        assert time.perf_counter() - start < 0.1
        assert exc.value.condition == "root materializable"
        assert "4300 digits" not in str(exc.value)

    def test_even_base_rejected(self):
        with pytest.raises(FamilyParameterError):
            gen_square_family(4, 2)

    def test_k1_rejected(self):
        with pytest.raises(FamilyParameterError):
            gen_square_family(3, 1)


class TestNivenNotMrh:
    def test_b10_n7(self):
        inst = gen_niven_not_mrh(10, 7)
        assert inst.number == 69999993
        assert digit_sum_int(inst.number, 10) == 63
        assert verify_family(inst).passed

    def test_b10_n9_rejected(self):
        with pytest.raises(FamilyParameterError) as exc:
            gen_niven_not_mrh(10, 9)
        assert exc.value.condition == "(b-1) does not divide n"

    def test_b3_n1(self):
        inst = gen_niven_not_mrh(3, 1)
        assert inst.number == 2
        assert verify_family(inst).passed

    def test_b10_n19_above_word_size(self):
        inst = gen_niven_not_mrh(10, 19)
        assert inst.number > 2**63
        report = verify_family(inst)
        assert [r.verdict for r in report.results] == ["PASS"] * 3

    def test_member_digit_limit(self):
        # n*(10^n - 1) has n + 4 digits for 1000 <= n < 10^4.
        assert digit_count_int(gen_niven_not_mrh(10, 8188).number, 10) == MAX_MEMBER_DIGITS
        for n in (8189, 10**12):  # refused before 10^n is built
            with pytest.raises(FamilyParameterError) as exc:
                gen_niven_not_mrh(10, n)
            assert exc.value.condition == "member materializable"

    @pytest.mark.parametrize("base", range(2, 13))
    def test_digit_sum_lemma(self, base):
        for n in range(1, 11):
            if n % (base - 1) == 0:
                continue
            inst = gen_niven_not_mrh(base, n)
            assert digit_sum_int(inst.number, base) == (base - 1) * n, (base, n)


# Two parameter sets per generator, with a base above 10 (comma-separated digits).
JSON_CASES = [
    (gen_repunit12, (0,)),
    (gen_repunit12, (2,)),
    (gen_all_ones, (2, 4)),
    (gen_all_ones, (16, 1)),
    (gen_alternating, (4, 1)),
    (gen_alternating, (8, 1)),
    (gen_square_family, (3, 3)),
    (gen_square_family, (17, 5)),
    (gen_niven_not_mrh, (10, 7)),
    (gen_niven_not_mrh, (16, 5)),
]


@pytest.mark.parametrize(
    "generate,args",
    JSON_CASES,
    ids=[f"{g.__name__}-" + "-".join(map(str, a)) for g, a in JSON_CASES],
)
def test_json_digits_spell_the_value(generate, args):
    inst = generate(*args)
    d = inst.to_json_dict()
    entries = [d["number"]] + d["predicted_multipliers"]
    assert [e["value"] for e in entries] == [inst.number, *inst.predicted_multipliers]
    for e in entries:
        assert parse_digits(e["digits"], inst.base) == e["value"]


# One forged instance per failing (or skipping) branch of verify_family:
# (family, base, params, N, predicted multipliers, claim name, source,
# expected, verdict, detail).
FORGED = [
    (REPUNIT12, 10, {"k": 0}, 12, (3,), "arh_witness", CONSTRUCTION, True,
     IMPLEMENTATION_BUG, "M=3: X + X^R != N"),
    (REPUNIT12, 10, {"k": 0}, 12, (4,), "half_is_palindrome", CONSTRUCTION, True,
     IMPLEMENTATION_BUG, "X = M*s = 12"),
    (REPUNIT12, 10, {"k": 0}, 13, (), "niven", PAPER, True,
     CONFLICT_WITH_PAPER, "s_b(N) = 4 does not divide N"),
    (ALL_ONES, 10, {"p": 1, "k": 10}, 12, (), "not_niven", PAPER, True,
     CONFLICT_WITH_PAPER, "s_b(N) = 3 | N"),
    (ALL_ONES, 2, {"p": 1, "k": 2}, 3, (1, 2, 3, 4, 5, 6), "multipliers_verify",
     CONSTRUCTION, True, IMPLEMENTATION_BUG,
     "1/6 multipliers satisfy X + X^R = N; failing: [2, 3, 4, 5]"),
    (ALL_ONES, 2, {"p": 1, "k": 4}, 15, (1, 2, 3), "multiplier_cardinality", PAPER, True,
     CONFLICT_WITH_PAPER, "predicted 3, formula 2"),
    (ALTERNATING, 4, {"p": 1, "k": 4}, 5185, (1,), "multiplier_cardinality", PAPER, True,
     CONFLICT_WITH_PAPER, "predicted 1, formula 3"),
    (ALL_ONES, 2, {"p": 1, "k": 2}, 3, (2,), "multiplier_set_complete", PAPER, True,
     CONFLICT_WITH_PAPER,
     "brute force found 1 multipliers; unpredicted: [1]; predicted but absent: [2]"),
    # 2^20 + 1 = X + X^R for X = 2^20 = 2^19 * s_2(N): one unpredicted multiplier.
    (ALL_ONES, 2, {"p": 1, "k": 2}, 2**20 + 1, (), "multiplier_set_complete", PAPER, True,
     CONFLICT_WITH_PAPER, "brute force found 1 multipliers; unpredicted: [524288]"),
    (SQUARE, 3, {"k": 2}, 65, (), "digit_sum_match", PAPER, True,
     CONFLICT_WITH_PAPER, "s_b(root) = 4, s_b(N) = 5, formula 4"),
    (SQUARE, 3, {"k": 2}, 65, (), "digit_sum_divides_root", PAPER, True,
     CONFLICT_WITH_PAPER, "root mod s_b(N) = 3"),
    (SQUARE, 3, {"k": 2}, 64, (), "mrh_witness", PAPER, True,
     CONFLICT_WITH_PAPER, "no integer multiplier: s_b(N) does not divide the root"),
    (SQUARE, 3, {"k": 2}, 64, (1,), "mrh_witness", PAPER, True,
     CONFLICT_WITH_PAPER, "M=1: X * X^R != N"),
    # [33]_4 = 15 has digit sum 6.
    (SQUARE, 4, {"k": 2}, 225, (), "root_niven", PAPER, True,
     CONFLICT_WITH_PAPER, "root is not a 4-Niven number"),
    (SQUARE, 3, {"k": 2}, 64, (), "root_niven", PAPER, False,
     CONFLICT_WITH_PAPER, "root is a 3-Niven number"),
    (NIVEN_NOT_MRH, 10, {"n": 7}, 12, (), "digit_sum_lemma", PAPER, True,
     CONFLICT_WITH_PAPER, "s_b(N) = 3, (b-1)*n = 63"),
    (NIVEN_NOT_MRH, 10, {"n": 1}, 1729, (), "not_mrh", PAPER, True,
     CONFLICT_WITH_PAPER, "multiplicative multipliers exist: [1]"),
    # Above 2^63: X = 19 * 10^16 and X^R = 91.
    (NIVEN_NOT_MRH, 10, {"n": 1}, 1729 * 10**16, (), "not_mrh", PAPER, True,
     CONFLICT_WITH_PAPER, "multiplicative multipliers exist: [10000000000000000]"),
    (REPUNIT12, 10, {"k": 0}, 12, (2,), "no_such_claim", CONSTRUCTION, True,
     IMPLEMENTATION_BUG, "unknown claim"),
    (ALL_ONES, 2, {"p": 1, "k": 2}, 3, (1, 2), "multiplier_set_complete", PAPER, True,
     CONFLICT_WITH_PAPER, "brute force found 1 multipliers; predicted but absent: [2]"),
]


def _forged_id(i, row):
    """Claim, verdict and row index; a number past 2^63 names its size instead."""
    tag = "over-2^63" if row[3] >= 2**63 else row[8]
    return f"{row[5]}-{tag}-{i}"


class TestVerdictTaxonomy:
    @pytest.mark.parametrize(
        "family,base,params,n,multipliers,name,source,expected,verdict,detail",
        FORGED,
        ids=[_forged_id(i, row) for i, row in enumerate(FORGED)],
    )
    def test_forged_branch_verdict_and_detail(
        self, family, base, params, n, multipliers, name, source, expected, verdict, detail
    ):
        inst = FamilyInstance(
            family=family,
            base=base,
            params=params,
            number=n,
            predicted_multipliers=tuple(multipliers),
            claims=(Claim(name, source, expected),),
        )
        (result,) = verify_family(inst).results
        assert (result.name, result.verdict, result.detail) == (name, verdict, detail)
        assert result.passed is False

    # One forged predicted set per listing length: [101030, 102030, 102020]_4
    # drops 103010 from the alternating set of 5185 and adds 102030, and
    # the all-ones one of 65535 holds two of its sixteen multipliers plus
    # 7, so the solver lists more than four unpredicted ones.
    @pytest.mark.parametrize(
        "family,base,params,n,multipliers,verify_detail,complete_detail",
        [
            (ALTERNATING, 4, {"p": 1, "k": 4}, 5185, (1100, 1164, 1160),
             "2/3 multipliers satisfy X + X^R = N; failing: [1164]",
             "brute force found 3 multipliers; unpredicted: [1220]; "
             "predicted but absent: [1164]"),
            (ALL_ONES, 2, {"p": 4, "k": 16}, 65535, (3925, 7, 3883),
             "2/3 multipliers satisfy X + X^R = N; failing: [7]",
             "brute force found 16 multipliers; unpredicted: [3855, 3863, 3891, 3917]; "
             "predicted but absent: [7]"),
        ],
        ids=["alternating", "all-ones"],
    )
    def test_one_listing_reports_both_set_claims(
        self, family, base, params, n, multipliers, verify_detail, complete_detail
    ):
        inst = FamilyInstance(
            family=family,
            base=base,
            params=params,
            number=n,
            predicted_multipliers=multipliers,
            claims=(
                Claim("multipliers_verify", CONSTRUCTION, True),
                Claim("multiplier_set_complete", PAPER, True),
            ),
        )
        verify, complete = verify_family(inst).results
        assert (verify.verdict, verify.detail) == (IMPLEMENTATION_BUG, verify_detail)
        assert (complete.verdict, complete.detail) == (CONFLICT_WITH_PAPER, complete_detail)

    def test_construction_failure_is_bug(self):
        # Forge an instance with a wrong multiplier to see the verdict side.
        bogus = FamilyInstance(
            family=REPUNIT12,
            base=10,
            params={"k": 0},
            number=12,
            predicted_multipliers=(3,),
            claims=(Claim("arh_witness", "construction", True),),
        )
        report = verify_family(bogus)
        assert not report.passed
        assert report.results[0].verdict == IMPLEMENTATION_BUG

    def test_square_not_equal_to_number_is_bug(self):
        # Forge a square-family instance whose root (22 in base 3, i.e. 8)
        # does not square to its number.
        bogus = FamilyInstance(
            family=SQUARE,
            base=3,
            params={"k": 2},
            number=65,
            predicted_multipliers=(),
            claims=(Claim("square_is_number", "construction", True),),
        )
        report = verify_family(bogus)
        assert not report.passed
        assert report.results[0].verdict == IMPLEMENTATION_BUG
        assert report.results[0].detail == "root^2 != N"

    def test_reports_are_json_serializable(self):
        import json

        report = verify_family(gen_square_family(17, 5))
        json.dumps(report.to_json_dict())



# -- size refusals decided from the exponent -----------------------------
# Each reference builds the powers the limits are stated in and compares
# them directly.  A radix r >= 2 has r^17 > MAX_MULTIPLIER_SET = 2^16, so a
# multiplier count is built only up to the exponent 17, which decides it.


def _refusal(generate, *args):
    """The condition the generator refuses, or None when it builds the member."""
    try:
        generate(*args)
    except FamilyParameterError as exc:
        return exc.condition
    return None


def _all_ones_reference(base, p):
    half = (base**p - 2 * p) // 2
    if 2 ** min(half, 17) > MAX_MULTIPLIER_SET:
        return "multiplier set materializable"
    return None


def _alternating_reference(base, p):
    k = base**p
    if k <= 2 * p:
        return "k > 2p"
    if (base - 1) ** min((k - 2 * p) // 2, 17) > MAX_MULTIPLIER_SET:
        return "multiplier set materializable"
    if 2 * k - 2 * p + 1 > MAX_MEMBER_DIGITS:
        return "member materializable"
    return None


def _square_reference(base, k):
    return "root materializable" if 2**k > MAX_MEMBER_DIGITS else None


def _repunit12_reference(k):
    return "member materializable" if 2 * 3**k > MAX_MEMBER_DIGITS else None


def _niven_not_mrh_reference(base, n):
    if n * (base**n - 1) >= base**MAX_MEMBER_DIGITS:
        return "member materializable"
    return None


def _size_cases():
    for base in range(2, 41, 2):
        for p in range(1, 16):
            yield gen_all_ones, _all_ones_reference, (base, p)
            yield gen_alternating, _alternating_reference, (base, p)
    for base in range(3, 40, 2):
        for k in range(2, 30):
            yield gen_square_family, _square_reference, (base, k)
    for k in range(20):
        yield gen_repunit12, _repunit12_reference, (k,)
    # n = b^(L-n) at b = 8191 is the one exact fit next to the limit.
    for base, n in [(8191, 8191), (8191, 8192)] + [
        (b, n) for b in (2, 3, 10, 40) for n in [*range(1, 8), *range(8176, 8194)]
    ]:
        if n % (base - 1):
            yield gen_niven_not_mrh, _niven_not_mrh_reference, (base, n)


def test_size_refusals_match_the_built_powers():
    # Every generator decides its size limits from the exponent with
    # bounds.floor_log; over this grid it accepts and refuses exactly as a
    # comparison of the built powers does, with the same condition.
    mismatches = [
        (generate.__name__, args, got, expected)
        for generate, reference, args in _size_cases()
        if (got := _refusal(generate, *args)) != (expected := reference(*args))
    ]
    assert mismatches == []
