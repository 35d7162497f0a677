import json

import pytest

from rhnumbers.classify import ARH
from rhnumbers.tables import (
    MATCH,
    PAPER_TYPO_SUSPECTED,
    T1_ROWS,
    T2_ROWS,
    T3_ROWS,
    TOOLKIT_MISMATCH,
    _adjudicate,
    reproduce_all_tables,
    reproduce_table,
    section1_counts,
)


class TestTable1:
    def test_all_rows_match(self):
        report = reproduce_table("T1")
        assert [r.verdict for r in report.rows] == [MATCH] * 7
        assert not report.has_toolkit_mismatch

    def test_row_contents(self):
        report = reproduce_table("T1")
        by_m = {r.multiplier: r.recomputed for r in report.rows}
        assert by_m[1] == (18, 99)
        assert by_m[2] == (12, 33, 66, 99)
        assert by_m[5] == (11, 22, 33, 44, 55, 66, 77, 88, 99)
        assert by_m[6] == ()
        assert by_m[7] == (747,)


class TestTable2:
    def test_the_18_row_is_a_suspected_typo(self):
        report = reproduce_table("T2")
        row = next(r for r in report.rows if r.multiplier == 1)
        assert row.verdict == PAPER_TYPO_SUSPECTED
        assert row.paper_numbers == (1, 18, 1458, 1729)
        assert row.recomputed == (1, 81, 1458, 1729)
        assert "18" in row.detail and "81" in row.detail

    def test_other_rows_match(self):
        report = reproduce_table("T2")
        others = [r for r in report.rows if r.multiplier != 1]
        assert all(r.verdict == MATCH for r in others)
        by_m = {r.multiplier: set(r.recomputed) for r in report.rows}
        assert by_m[2] == {736, 2268}
        assert by_m[3] == set()
        assert by_m[4] == {1944, 7744}
        assert by_m[5] == {71685}

    def test_no_toolkit_mismatch(self):
        assert not reproduce_table("T2").has_toolkit_mismatch


@pytest.fixture(scope="module")
def t3_report():
    return reproduce_table("T3")


@pytest.fixture(scope="module")
def counts_report():
    return section1_counts()


class TestTable3:
    @pytest.fixture()
    def report(self, t3_report):
        return t3_report

    def test_every_fixture_row_reported_once(self, report):
        assert len(report.rows) == len(T3_ROWS)

    def test_spot_rows(self, report):
        def row(k, m, printed):
            return next(
                r
                for r in report.rows
                if r.digit_count == k and r.multiplier == m and r.paper_numbers == printed
            )

        assert row(5, 7, (23632,)).verdict == MATCH
        assert row(7, 72, (7651584,)).verdict == MATCH
        assert row(7, 82, (7651584,)).verdict == MATCH  # the 72/82 pair is genuine
        assert row(4, 1, (1458, 1729)).verdict == MATCH

    def test_duplicate_row_both_match(self, report):
        dupes = [
            r
            for r in report.rows
            if r.digit_count == 8 and r.multiplier == 66 and r.paper_numbers == (15995232,)
        ]
        assert len(dupes) == 2
        assert all(r.verdict == MATCH for r in dupes)

    def test_paper_omissions_flagged(self, report):
        row58 = next(r for r in report.rows if (r.digit_count, r.multiplier) == (5, 8))
        assert row58.verdict == PAPER_TYPO_SUSPECTED
        assert 38152 in row58.recomputed
        row729 = next(r for r in report.rows if (r.digit_count, r.multiplier) == (7, 29))
        assert row729.verdict == PAPER_TYPO_SUSPECTED
        assert 4594644 in row729.recomputed

    def test_misplaced_7331464(self, report):
        # printed under k=8 but the number has 7 digits
        rows89 = [r for r in report.rows if (r.digit_count, r.multiplier) == (8, 89)]
        misplaced = next(r for r in rows89 if r.paper_numbers == (7331464,))
        assert misplaced.verdict == PAPER_TYPO_SUSPECTED
        assert "misplaced" in misplaced.detail
        proper = next(r for r in rows89 if r.paper_numbers == (12918439,))
        assert proper.verdict == MATCH
        assert any(u[:2] == (7, 89) for u in report.unlisted)

    def test_no_toolkit_mismatch(self, report):
        assert not report.has_toolkit_mismatch

    def test_unlisted_surfaced(self, report):
        assert (7, 99, (5116122,)) in report.unlisted
        digit_counts = {k for k, _, _ in report.unlisted}
        assert digit_counts <= {1, 2, 3, 4, 5, 6, 7, 8}


class TestReportMechanics:
    def test_fixtures_are_immutable_tuples(self):
        for fixture in (T1_ROWS, T2_ROWS, T3_ROWS):
            assert isinstance(fixture, tuple)
            for row in fixture:
                assert isinstance(row[-1], tuple)

    def test_reproduction_does_not_mutate_fixtures(self):
        before = (T1_ROWS, T2_ROWS, T3_ROWS)
        reproduce_all_tables()
        assert (T1_ROWS, T2_ROWS, T3_ROWS) == before

    def test_json_round_trip(self):
        for report in reproduce_all_tables():
            blob = json.dumps(report.to_json_dict())
            assert json.loads(blob)["table"] == report.table

    def test_bad_table_id(self):
        with pytest.raises(ValueError):
            reproduce_table("T4")

    def test_an_unsound_recomputed_member_is_a_toolkit_mismatch(self):
        row = _adjudicate("T1", None, 1, (), [12], ARH)
        assert (row.verdict, row.detail) == (
            TOOLKIT_MISMATCH, "recomputed members fail re-verification: [12]")

    def test_an_unexplained_printed_member_is_a_toolkit_mismatch(self):
        row = _adjudicate("T1", None, 6, (12,), [], ARH)
        assert row.verdict == TOOLKIT_MISMATCH
        assert row.detail.startswith("printed-only [12] neither re-verifies")


class TestSection1Counts:
    @pytest.fixture()
    def report(self, counts_report):
        return counts_report

    def test_arh_count_matches(self, report):
        assert report.arh_count == 264
        assert report.arh_matches

    def test_mrh_literal_count_and_attribution(self, report):
        # Literal scan gives 22; the printed 23 matches [1, 10000] inclusive.
        assert report.mrh_count == 22
        assert not report.mrh_matches
        assert report.notes and "10000" in report.notes[0]

    def test_composition_fields(self, report):
        assert report.mrh_self_multiplier_only == (1, 10, 100, 1000)
        assert set(report.mrh_with_zero_digit) >= {10, 40, 100, 640, 810}
        assert len(report.mrh_numbers) == report.mrh_count
        assert report.mrh_numbers[:4] == (1, 10, 40, 81)

    def test_json(self, report):
        d = report.to_json_dict()
        assert d["arh"]["count"] == 264
        assert d["mrh"]["count"] == 22
        json.dumps(d)
