import csv
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhnumbers
from rhnumbers import cli, families, search
from rhnumbers.bounds import BoundSpec, digit_bound
from rhnumbers.classify import ARH, MRH, NIVEN, classify
from rhnumbers.cli import run_cli
from rhnumbers.digitvec import parse_digits, render_digits
from rhnumbers.search import (
    ALLOW,
    FORBID,
    SearchConfig,
    numbers_for_multiplier,
    palindromic_square_search,
    scan_range,
)
from rhnumbers.tables import reproduce_all_tables, reproduce_table, section1_counts

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def dumps_line(obj) -> str:
    """The exact stdout of a small JSON document: json.dumps(obj, indent=2) and a newline."""
    return json.dumps(obj, indent=2) + "\n"


class TestClassify:
    def test_1729(self):
        code, out, _ = run(["classify", "1729"])
        assert code == 0
        d = json.loads(out)
        assert d["niven"] is True
        assert d["mrh"] == [{"m": 1, "x": 19, "xr": 91}]

    def test_digit_string_input(self):
        code, out, _ = run(["classify", "144", "--base", "7", "--digits"])
        assert code == 0
        d = json.loads(out)
        assert d["n"] == 81 and d["niven"] is True and d["mrh"] == []
        # Leading zeros are read, not refused.
        assert run(["classify", "--digits", "0012"]) == run(["classify", "12"])

    def test_csv(self):
        code, out, _ = run(["classify", "99", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,base,niven")
        assert lines[1].split(",")[3] == "1;2;3;4;5"

    def test_zero_is_usage_error(self):
        for n in ("0", "-5"):
            code, out, _ = run(["classify", "--", n])
            assert code == 2 and out == "", n

    def test_comma_separated_digits(self):
        # Above base 10 digits are comma-separated: [1,2,3]_16 = 291.
        assert run(["classify", "--base", "16", "--digits", "1,2,3"]) == run(
            ["classify", "--base", "16", "291"]
        )
        code, out, err = run(["classify", "--base", "7", "--digits", "18"])
        assert code == 2 and out == "" and "out of range" in err

    def test_too_many_witnesses_is_a_usage_error(self):
        code, out, err = run(["classify", "1" * 100])
        assert (code, out) == (2, "")
        assert err == (
            "error: N has 281474976710656 ARH witnesses, over the listing limit of 1048576\n"
        )


class TestSearch:
    def test_counts(self):
        code, out, _ = run(["search", "--max", "9999", "--kind", "arh"])
        assert code == 0
        assert json.loads(out)["count"] == 264

    def test_bfile_format(self):
        code, out, _ = run(["search", "--max", "100", "--kind", "mrh", "--format", "bfile"])
        assert code == 0
        assert out == "1 1\n2 10\n3 40\n4 81\n5 100\n"

    def test_usage_error_on_bad_kind(self):
        code, _, _ = run(["search", "--max", "100", "--kind", "weird"])
        assert code == 2


# The base-10 members of M = 17207540799049233 and their ARH witness
# counts, both over MAX_LISTED_WITNESSES = 2^20.
_MANY_WITNESS_M = 17207540799049233
_MANY_WITNESS_MEMBERS = {1215064044451361511: 4_374_000, 7869479794879749687: 12_096_000}


class TestListingLimit:
    """A scan record obeys classify's one listing limit, with classify's message."""

    @staticmethod
    def _windows(n):
        """One-value, eleven-value and filtered scans whose first ARH member is n."""
        return {
            "one": ["--min", str(n), "--max", str(n)],
            "eleven": ["--min", str(n - 5), "--max", str(n + 5)],
            "multiplier": ["--min", str(n), "--max", str(search.WORD_SIZE_CAP),
                           "--multiplier", str(_MANY_WITNESS_M)],
        }

    @pytest.mark.parametrize("window", ["one", "eleven", "multiplier"])
    @pytest.mark.parametrize("n", sorted(_MANY_WITNESS_MEMBERS))
    def test_many_witness_members_are_refused(self, n, window):
        count = _MANY_WITNESS_MEMBERS[n]
        refusal = f"error: N has {count} ARH witnesses, over the listing limit of 1048576\n"
        assert run(["classify", str(n)]) == (2, "", refusal)
        argv = ["search", "--kind", "arh", *self._windows(n)[window]]
        for fmt in ("json", "csv"):
            start = time.perf_counter()
            assert run(argv + ["--format", fmt]) == (2, "", refusal), fmt
            assert time.perf_counter() - start < 1, fmt
        # A b-file lists no witness, so it is not refused.
        members = [m for m in sorted(_MANY_WITNESS_MEMBERS) if m >= n]
        listed = members if window == "multiplier" else [n]
        bfile = "".join(f"{i} {m}\n" for i, m in enumerate(listed, start=1))
        assert run(argv + ["--format", "bfile"]) == (0, bfile, "")

    def test_an_empty_csv_scan_prints_the_header(self):
        # The header is written with the first row, so a scan refused at its
        # first hit prints nothing; a scan with no hit still prints it.
        argv = ["search", "--kind", "arh", "--max", "9", "--format", "csv"]
        assert run(argv) == (0, _reference_csv([]), "")

    @pytest.mark.parametrize("kind", [ARH, MRH, NIVEN])
    @pytest.mark.parametrize("base", [3, 7])
    def test_scans_refuse_at_the_first_n_classify_refuses(self, base, kind, monkeypatch):
        # With the limit at 3, every window of [1, 10^4] may hold an N past
        # it, so each record's ARH list goes through classify's check.
        classify_module = importlib.import_module("rhnumbers.classify")
        monkeypatch.setattr(classify_module, "MAX_LISTED_WITNESSES", 3)
        monkeypatch.setattr(search, "MAX_LISTED_WITNESSES", 3)

        def refusal(n):
            try:
                classify(n, base)
            except ValueError as exc:
                return f"error: {exc}\n"
            return None

        hits = search.scan_numbers(SearchConfig(base=base, lo=1, hi=10**4, kind=kind))
        first = next(n for n in hits if refusal(n))
        argv = ["search", "--kind", kind, "--base", str(base), "--format", "json"]
        assert run(argv + ["--max", str(10**4)]) == (2, "", refusal(first))
        assert run(argv + ["--max", str(first)]) == (2, "", refusal(first))
        assert run(argv + ["--max", str(first - 1)])[0] == 0


def _reference_csv(records) -> str:
    """The classify/search CSV as csv.writer wrote it from ClassifyResult fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "base", "niven", "arh_multipliers", "mrh_multipliers",
                     "quadratic_niven", "strongly_quadratic_niven"])
    for res in records:
        writer.writerow([res.n, res.base, res.is_niven, ";".join(str(w.m) for w in res.arh),
                         ";".join(str(w.m) for w in res.mrh), res.quadratic_niven,
                         res.strongly_quadratic_niven])
    return buf.getvalue()


def _reference_search(cfg: SearchConfig) -> dict[str, str]:
    """search's stdout in each format, rendered from scan_range's records and their dicts."""
    records = [res for _, res in scan_range(cfg)]
    document = {
        "config": cfg._asdict(),
        "count": len(records),
        "results": [res.to_json_dict() for res in records],
    }
    return {
        "json": json.dumps(document, indent=2) + "\n",
        "csv": _reference_csv(records),
        "bfile": "".join(f"{i} {res.n}\n" for i, res in enumerate(records, start=1)),
    }


def _search_argv(cfg: SearchConfig, fmt: str) -> list[str]:
    argv = ["search", "--kind", cfg.kind, "--base", str(cfg.base), "--min", str(cfg.lo),
            "--max", str(cfg.hi), "--format", fmt]
    if cfg.zero_digit_policy == FORBID:
        argv.append("--no-zero-digits")
    if cfg.multiplier_filter is not None:
        argv += ["--multiplier", str(cfg.multiplier_filter)]
    return argv


class TestRecordText:
    """search and classify print the text the records' dicts and csv.writer gave."""

    @pytest.mark.parametrize("window", [None, 1, "base", 7, 1000])
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([ARH, MRH, NIVEN]),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=3000),
        st.sampled_from([ALLOW, FORBID]),
        st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    def test_search_in_every_format(self, window, kind, base, a, b, policy, m):
        # The reference scans in one window; the CLI walks windows of
        # 1, b, 7 or 1000 values when _WINDOW is patched down.
        cfg = SearchConfig(base=base, lo=min(a, b), hi=max(a, b), kind=kind,
                           zero_digit_policy=policy,
                           multiplier_filter=None if kind == NIVEN else m)
        wanted = _reference_search(cfg)
        with pytest.MonkeyPatch.context() as patch:
            if window is not None:
                patch.setattr(search, "_WINDOW", base if window == "base" else window)
            for fmt, text in wanted.items():
                assert run(_search_argv(cfg, fmt)) == (0, text, ""), fmt

    @pytest.mark.parametrize("kind", [ARH, MRH, NIVEN])
    def test_empty_and_wide_scans(self, kind):
        for lo, hi in ((1, 1), (1, 9), (10**5, 10**5 + 300), (1, 2 * 10**4)):
            cfg = SearchConfig(base=10, lo=lo, hi=hi, kind=kind)
            for fmt, text in _reference_search(cfg).items():
                assert run(_search_argv(cfg, fmt)) == (0, text, ""), (lo, hi, fmt)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.integers(min_value=1, max_value=10**6),
                  st.integers(min_value=1, max_value=10**15)),
        st.integers(min_value=2, max_value=16),
    )
    def test_classify_in_both_formats(self, n, base):
        res = classify(n, base)
        argv = ["classify", "--base", str(base), str(n)]
        assert run(argv) == (0, json.dumps(res.to_json_dict(), indent=2) + "\n", "")
        assert run(argv + ["--format", "csv"]) == (0, _reference_csv([res]), "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("zeros", [4305, 4310])
    def test_classify_past_the_int_digit_limit(self, fmt, zeros):
        # N = 10^(zeros+1) + 1 has the ARH witness X = 10^(zeros+1), whose
        # multiplier X/2 has zeros+1 digits: past 4300 digits every int
        # here refuses str(), and the error is the one the records gave.
        digits = "1" + "0" * zeros + "1"
        res = classify(parse_digits(digits, 10), 10)
        with pytest.raises(ValueError) as reference:
            if fmt == "json":
                json.dumps(res.to_json_dict(), indent=2)
            else:
                _reference_csv([res])
        code, out, err = run(["classify", "--digits", digits, "--format", fmt])
        assert (code, out, err) == (2, "", f"error: {reference.value}\n")


def test_record_views_go_through_scan_range_and_classify(monkeypatch):
    # The CLI renders the library's records: search json/csv read
    # scan_range and classify json/csv call classify, once per command.
    calls = {}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "scan_range", counting("scan_range", cli.scan_range))
    monkeypatch.setattr(cli, "classify", counting("classify", cli.classify))
    for fmt in ("json", "csv"):
        assert run(["search", "--kind", "arh", "--max", "1000", "--format", fmt])[0] == 0
        assert run(["classify", "1729", "--format", fmt])[0] == 0
    assert calls == {"scan_range": 2, "classify": 2}


class TestMultiplier:
    @pytest.mark.parametrize(
        "kind,m,csv_text,bfile_text",
        [
            (ARH, 1, "n\n18\n99\n", "1 18\n2 99\n"),
            (MRH, 4, "n\n1944\n7744\n86508\n", "1 1944\n2 7744\n3 86508\n"),
            (MRH, 3, "n\n", ""),
        ],
    )
    def test_csv_and_bfile(self, kind, m, csv_text, bfile_text):
        argv = ["multiplier", "--kind", kind, "--multiplier", str(m), "--format"]
        assert run(argv + ["csv"]) == (0, csv_text, "")
        assert run(argv + ["bfile"]) == (0, bfile_text, "")

    def test_table1_row5(self):
        code, out, _ = run(
            ["multiplier", "--multiplier", "5", "--kind", "arh", "--no-zero-digits"]
        )
        assert code == 0
        d = json.loads(out)
        assert d["numbers"] == [11, 22, 33, 44, 55, 66, 77, 88, 99]
        assert d["multiplicity"] == 9

    @pytest.mark.parametrize(
        "kind,base,m,policy",
        [
            (ARH, 10, 6, FORBID),  # empty set
            (MRH, 10, 4, ALLOW),
            (ARH, 7, 2, ALLOW),
            (MRH, 16, 1, FORBID),
        ],
    )
    def test_json_text(self, kind, base, m, policy):
        argv = ["multiplier", "--kind", kind, "--base", str(base), "--multiplier", str(m)]
        if policy == FORBID:
            argv.append("--no-zero-digits")
        numbers = numbers_for_multiplier(base, m, kind, policy)
        expected = {
            "base": base,
            "multiplier": m,
            "kind": kind,
            "zero_digit_policy": policy,
            "multiplicity": len(numbers),
            "numbers": numbers,
        }
        assert run(argv) == (0, dumps_line(expected), "")

    def test_conflict_with_paper_bound(self, monkeypatch):
        # A member above the paper's digit bound is reported, not dropped.
        argv = ["multiplier", "--kind", "mrh", "--multiplier", "1"]
        code, expected_out, err = run(argv)
        assert (code, err) == (0, "")

        def two_digits(base, multiplier, kind):
            return BoundSpec(kind, base, multiplier, 2, "k <= 2 (test)")

        monkeypatch.setattr(search, "digit_bound", two_digits)
        monkeypatch.setattr(cli, "digit_bound", two_digits)
        code, out, err = run(argv)
        assert code == 1
        assert out == expected_out
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("CONFLICT-WITH-PAPER: 1458 ")
        assert lines[1].startswith("CONFLICT-WITH-PAPER: 1729 ")


class TestFamily:
    def test_verified_instance(self):
        code, out, _ = run(["family", "repunit12", "--k", "1", "--verify"])
        assert code == 0
        d = json.loads(out)
        assert d["passed"] is True
        assert d["instance"]["number"]["value"] == 121212

    def test_conflict_sets_exit_code(self):
        code, out, _ = run(["family", "square", "--base", "17", "--k", "5", "--verify"])
        assert code == 1
        d = json.loads(out)
        assert d["conflicts"] == ["root_niven"]

    def test_parameter_violation_is_usage_error(self):
        code, _, err = run(["family", "alternating", "--base", "2", "--p", "1"])
        assert code == 2
        assert "2p" in err

    def test_missing_parameter(self):
        code, _, _ = run(["family", "square"])
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["square", "--base", "3", "--k", "-1"], "expected a nonnegative integer"),
        (["repunit12", "--base", "7", "--k", "1"], "repunit12 is a base-10 family"),
    ])
    def test_refused_parameters_are_usage_errors(self, argv, message):
        code, out, err = run(["family", *argv])
        assert (code, out) == (2, "")
        assert message in err

    def test_unverified_emits_instance(self):
        code, out, _ = run(["family", "all-ones", "--base", "2", "--p", "4"])
        assert code == 0
        d = json.loads(out)
        assert len(d["predicted_multipliers"]) == 16

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_instance_json_built_once(self, monkeypatch, verify):
        # Each value's digit text is rendered once: the instance text is
        # not built a second time through to_json_dict.
        calls = []

        def counted(value, base):
            calls.append(value)
            return render_digits(value, base)

        monkeypatch.setattr(cli, "render_digits", counted)
        monkeypatch.setattr(families, "render_digits", counted)
        inst = families.gen_all_ones(2, 4)
        code, _, _ = run(["family", "all-ones", "--base", "2", "--p", "4", *verify])
        assert code == 0
        assert sorted(calls) == sorted([inst.number, *inst.predicted_multipliers])

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize(
        "name,base,param,value",
        [
            ("repunit12", 10, "k", 2),
            ("all-ones", 2, "p", 3),
            ("all-ones", 4, "p", 2),
            ("all-ones", 16, "p", 1),
            ("all-ones", 34, "p", 1),  # 65,536 multipliers
            ("alternating", 2, "p", 5),
            ("alternating", 4, "p", 1),
            ("alternating", 10, "p", 1),
            ("square", 3, "k", 5),
            ("square", 17, "k", 5),  # CONFLICT-WITH-PAPER, exit 1
            ("niven-not-mrh", 10, "n", 19),  # no multipliers
            ("niven-not-mrh", 16, "n", 7),
            ("niven-not-mrh", 34, "n", 5),
        ],
    )
    def test_text_is_json_dumps_of_the_dict(self, name, base, param, value, verify):
        generate = cli.FAMILIES[name][1]
        inst = generate(base, value)
        argv = ["family", name, "--base", str(base), f"--{param}", str(value)]
        if verify:
            report = families.verify_family(inst)
            expected = (0 if report.passed else 1, report.to_json_dict())
            argv.append("--verify")
        else:
            expected = (0, inst.to_json_dict())
        code, out, err = run(argv)
        assert (code, out, err) == (expected[0], json.dumps(expected[1], indent=2) + "\n", "")

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    @pytest.mark.parametrize(
        "argv",
        [
            ["repunit12", "--k", "7"],  # N past the int-to-str digit limit
            ["square", "--base", "17", "--k", "12"],  # the same
            ["alternating", "--base", "2", "--p", "13"],  # N over MAX_MEMBER_DIGITS
        ],
    )
    def test_usage_error_writes_nothing_to_stdout(self, argv, verify):
        code, out, err = run(["family", *argv, *verify])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["all-ones", "--base", "2", "--p", "100000000"],
            ["alternating", "--base", "4", "--p", "30000000"],
        ],
    )
    def test_huge_p_is_refused_by_size(self, argv):
        code, out, err = run(["family", *argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: multiplier set not materializable: ")


class TestTables:
    def test_t2_exit_zero(self):
        code, out, _ = run(["tables", "--which", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["table"] == "T2"
        verdicts = {r["verdict"] for r in report["rows"]}
        assert "TOOLKIT_MISMATCH" not in verdicts

    def test_all_tables(self):
        code, out, _ = run(["tables"])
        assert code == 0
        assert len(json.loads(out)) == 3

    def test_counts(self):
        code, out, _ = run(["tables", "--which", "counts"])
        assert code == 0
        d = json.loads(out)
        assert d["arh"]["count"] == 264 and d["mrh"]["count"] == 22

    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_table_text(self, which):
        expected = reproduce_table(f"T{which}").to_json_dict()
        assert run(["tables", "--which", which]) == (0, dumps_line(expected), "")

    def test_all_and_counts_text(self):
        expected = [r.to_json_dict() for r in reproduce_all_tables()]
        assert run(["tables", "--which", "all"]) == (0, dumps_line(expected), "")
        expected = section1_counts().to_json_dict()
        assert run(["tables", "--which", "counts"]) == (0, dumps_line(expected), "")


class TestOeis:
    def test_bfile_and_note(self):
        code, out, err = run(["oeis", "--seq", "A305131", "--count", "4"])
        assert code == 0
        assert out == "1 1\n2 10\n3 40\n4 81\n"
        assert "deviate" in err

    def test_count_zero_usage_error(self):
        code, _, _ = run(["oeis", "--seq", "A305131", "--count", "0"])
        assert code == 2


class TestBounds:
    def test_json(self):
        code, out, _ = run(["bounds", "--multiplier", "1", "--kind", "mrh"])
        assert code == 0
        d = json.loads(out)
        assert d["k_max"] == 5

    def test_base_flag(self):
        code, out, _ = run(["bounds", "--base", "5", "--multiplier", "1", "--kind", "mrh"])
        assert code == 0
        assert json.loads(out)["k_max"] == 6

    @pytest.mark.parametrize("base", [5, 10])
    @pytest.mark.parametrize("kind", [ARH, MRH])
    @pytest.mark.parametrize("m", [1, 10**9])  # 10^9 takes the strong clause
    def test_json_text(self, base, kind, m):
        argv = ["bounds", "--base", str(base), "--multiplier", str(m), "--kind", kind]
        assert run(argv) == (0, dumps_line(digit_bound(base, m, kind).to_json_dict()), "")


class TestPalsquare:
    def test_json(self):
        code, out, _ = run(["palsquare", "--limit", "1000"])
        assert code == 0
        hits = json.loads(out)
        assert {h["n"] for h in hits} == {1, 9, 88, 434, 484, 828}

    @pytest.mark.parametrize("base,limit", [(2, 10**5), (10, 10**4)])
    def test_json_text(self, base, limit):
        hits = palindromic_square_search(limit, base=base)
        expected = [{"n": n, "square": sq, "square_digit_sum": s} for n, sq, s in hits]
        assert run(["palsquare", "--base", str(base), "--limit", str(limit)]) == (
            0,
            dumps_line(expected),
            "",
        )

    def test_csv(self):
        code, out, _ = run(["palsquare", "--limit", "10", "--format", "csv"])
        assert code == 0
        assert out == "n,square,square_digit_sum\n1,1,1\n9,81,9\n"


def test_no_command_is_usage_error():
    code, _, _ = run([])
    assert code == 2


def test_usage_errors_go_to_the_given_stream(capsys):
    code, out, err = run(["search", "--kind", "arh"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and "the following arguments are required: --max" in err
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_stream(capsys):
    code, out, err = run(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: ") and "palsquare" in out
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "1729", "--format", "bfile"],
        ["palsquare", "--limit", "10", "--format", "bfile"],
        ["bounds", "--multiplier", "1", "--kind", "mrh", "--format", "csv"],
        ["family", "repunit12", "--k", "1", "--format", "csv"],
        ["tables", "--which", "counts", "--format", "csv"],
        ["oeis", "--seq", "A305131", "--count", "4", "--format", "json"],
        ["oeis", "--seq", "A305131", "--count", "4", "--base", "7"],
        ["tables", "--which", "1", "--base", "7"],
        ["tables", "--base", "7"],
        ["tables", "--which", "counts", "--base", "2"],
        ["family", "repunit12", "--k", "1", "--p", "9", "--n", "4"],
        ["family", "all-ones", "--base", "2", "--p", "1", "--k", "7"],
        ["family", "square", "--base", "3", "--k", "2", "--n", "1"],
    ],
    ids=" ".join,
)
def test_unhonoured_option_is_usage_error(argv):
    code, out, _ = run(argv)
    assert code == 2 and out == ""


# Pinned stdout bytes and exit codes of the record and family outputs.
# 3024 has both ARH and MRH witnesses in base 7.
@pytest.mark.parametrize(
    "argv,golden,expect",
    [
        (["classify", "--base", "7", "3024"], "classify_base7_3024.json", 0),
        (["classify", "--base", "7", "3024", "--format", "csv"], "classify_base7_3024.csv", 0),
        (
            ["family", "square", "--base", "17", "--k", "5", "--verify"],
            "family_square_base17_k5.json",
            1,
        ),
        (["family", "repunit12", "--k", "1", "--verify"], "family_repunit12_k1.json", 0),
        (
            ["family", "alternating", "--base", "4", "--p", "1", "--verify"],
            "family_alternating_base4_p1.json",
            0,
        ),
        # multiplier_set_complete PASS
        (
            ["family", "all-ones", "--base", "2", "--p", "4", "--verify"],
            "family_all_ones_base2_p4.json",
            0,
        ),
        # multiplier_set_complete PASS on a value of 70,831,801 (25 multipliers)
        (
            ["family", "alternating", "--base", "6", "--p", "1", "--verify"],
            "family_alternating_base6_p1.json",
            0,
        ),
        (
            ["family", "niven-not-mrh", "--base", "10", "--n", "7", "--verify"],
            "family_niven_not_mrh_base10_n7.json",
            0,
        ),
        # root_niven INFO (base 5 is 1 mod 4)
        (["family", "square", "--base", "5", "--k", "3", "--verify"], "family_square_base5_k3.json", 0),
    ],
)
def test_golden_output(argv, golden, expect):
    code, out, err = run(argv)
    assert (code, err) == (expect, "")
    assert out == (GOLDEN / golden).read_text()


def test_closed_stdout_ends_quietly():
    # The JSON is larger than a pipe buffer, so the process is still
    # writing when the reader goes away.
    path = [str(Path(rhnumbers.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rhnumbers.cli", "search", "--max", "100000", "--kind", "arh"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert err == b""
    assert code != 1


# Pieces that stress the line breaks and escapes: raw line breaks of
# every kind, a lone surrogate and non-ASCII text.
_TEXT_PIECES = st.sampled_from(
    ["\n", "\r\n", "\r", "\u2028", "\ud800", "\u00e9", "\U0001f600", '"', "\\"]
)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)  # past 2^64
    | st.lists(_TEXT_PIECES | st.characters(exclude_categories=()), max_size=8).map("".join)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=40,
)


def _nested(depth: int, leaf):
    for i in range(depth):
        leaf = [leaf] if i % 2 else {"k": leaf}
    return leaf


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES, st.integers(min_value=0, max_value=3))
def test_json_part_sits_at_its_depth(value, depth):
    # A part under the key "part" of a parent nested `depth` levels deep
    # has the indent of level depth + 1; spliced into the parent's text
    # in place of a null, it gives the parent's json.dumps text.
    prefix, suffix = json.dumps(_nested(depth, {"part": None}), indent=2).split("null")
    part = cli._json_part(value, "\n" + "  " * (depth + 1))
    assert prefix + part + suffix == json.dumps(_nested(depth, {"part": value}), indent=2)
