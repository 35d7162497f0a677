import hashlib

import pytest

from rhnumbers import oeis, search
from rhnumbers.oeis import (
    SEQ_ARH,
    SEQ_MRH,
    bfile_deviation_note,
    bfile_text,
    first_terms,
)
from rhnumbers.classify import ARH
from rhnumbers.search import SearchConfig, scan_numbers


class TestFirstTerms:
    def test_mrh_leading_terms(self):
        assert first_terms(SEQ_MRH, 4) == [1, 10, 40, 81]

    def test_arh_leading_terms(self):
        assert first_terms(SEQ_ARH, 5) == [10, 11, 12, 18, 22]

    def test_terms_ascending_and_count(self):
        terms = first_terms(SEQ_ARH, 300)
        assert len(terms) == 300
        assert terms == sorted(terms)
        assert len(set(terms)) == 300

    def test_bad_sequence(self):
        with pytest.raises(ValueError):
            first_terms("A000001", 3)

    def test_zero_count(self):
        with pytest.raises(ValueError):
            first_terms(SEQ_ARH, 0)

    def test_one_scan_stops_at_the_last_term(self, monkeypatch):
        # One scan, read up to the window that holds the last term asked
        # for: [1, 10^4] alone for 4 terms, and no window past 10^5 for
        # the 1000th ARH term.
        windows = []
        window_hits = search._window_hits

        def recording(cfg, sums, tables, records, lo, hi):
            windows.append((lo, hi))
            return window_hits(cfg, sums, tables, records, lo, hi)

        monkeypatch.setattr(search, "_window_hits", recording)
        assert first_terms(SEQ_MRH, 4) == [1, 10, 40, 81]
        assert windows == [(1, 10**4)]
        windows.clear()
        terms = first_terms(SEQ_ARH, 1000)  # 264 terms lie below 10^4, 1581 below 10^5
        assert windows == [(1, 10**4), (10**4 + 1, 10**5 + 9)]
        assert terms == list(scan_numbers(SearchConfig(base=10, lo=1, hi=10**5, kind=ARH)))[:1000]

    def test_count_out_of_reach(self, monkeypatch):
        monkeypatch.setattr(oeis, "_SCAN_LIMIT", 10**5)
        with pytest.raises(ValueError) as error:
            first_terms(SEQ_MRH, 54)
        assert str(error.value) == "A305131 has only 53 terms up to 100000; count 54 is out of reach"
        assert len(first_terms(SEQ_MRH, 53)) == 53

    def test_first_hundred_thousand_arh_terms_are_pinned(self):
        # The b-file of the first 10^5 terms of A305130 (the last one is
        # 85,789,748): any change of scan engine must print these bytes.
        text = bfile_text(first_terms(SEQ_ARH, 10**5))
        assert text.endswith("\n100000 85789748\n")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "59300fcead2337caa7f85a71c6763b3e80ea7ee762968bdd97de6231953afeca"
        )


class TestBfileFormat:
    def test_exact_bytes(self):
        assert bfile_text(first_terms(SEQ_MRH, 4)) == "1 1\n2 10\n3 40\n4 81\n"

    def test_one_based_single_term(self):
        assert bfile_text(first_terms(SEQ_ARH, 1)) == "1 10\n"

    def test_newline_terminated_no_trailing_spaces(self):
        text = bfile_text(first_terms(SEQ_ARH, 50))
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line == line.rstrip()
            idx, val = line.split(" ")
            assert int(idx) >= 1 and int(val) >= 1

    def test_bit_stable_across_runs(self):
        assert bfile_text(first_terms(SEQ_MRH, 30)) == bfile_text(first_terms(SEQ_MRH, 30))


class TestDeviationNote:
    def test_mrh_deviation_flagged(self):
        terms = first_terms(SEQ_MRH, 4)
        note = bfile_deviation_note(SEQ_MRH, terms)
        assert note is not None
        assert "1458" in note  # quotes the text set it deviates from

    def test_no_note_when_matching(self):
        assert bfile_deviation_note(SEQ_MRH, [1, 81, 1458, 1729]) is None

    def test_arh_never_flagged(self):
        assert bfile_deviation_note(SEQ_ARH, first_terms(SEQ_ARH, 4)) is None
