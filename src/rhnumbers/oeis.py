"""OEIS b-file emission for the two base-10 sequences.

A305130: base-10 ARH numbers ascending; A305131: base-10 MRH numbers
ascending.  Terms come from the literal definitions with zero digits
allowed; where that disagrees with the values quoted in the source
text, the deviation is reported alongside, never silently edited in.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .classify import ARH, MRH
from .search import SearchConfig, scan_numbers

SEQ_ARH = "A305130"
SEQ_MRH = "A305131"

# The multiplier-1 MRH set quoted in the introductory text; used only
# to flag deviations of A305131's leading terms.
SECTION1_MRH_TEXT_SET = (1, 81, 1458, 1729)

# first_terms scans [1, 10^4] and then one decade at a time up to here.
_SCAN_LIMIT = 10**9


def _kind_for(seq: str) -> str:
    if seq == SEQ_ARH:
        return ARH
    if seq == SEQ_MRH:
        return MRH
    raise ValueError(f"sequence must be {SEQ_ARH} or {SEQ_MRH}, got {seq!r}")


def first_terms(seq: str, count: int) -> list[int]:
    """First `count` terms, ascending, from one stream over [1, 10^4] and each decade after it.

    Each decade is its own scan, with a digit-sum table for its own
    end, and the stream stops once it has `count` terms.
    """
    kind = _kind_for(seq)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    ends = [10**4]
    while ends[-1] < _SCAN_LIMIT:
        ends.append(ends[-1] * 10)
    stream = itertools.chain.from_iterable(
        scan_numbers(SearchConfig(base=10, lo=lo + 1, hi=hi, kind=kind))
        for lo, hi in zip([0] + ends, ends)
    )
    terms = list(itertools.islice(stream, count))
    if len(terms) < count:
        raise ValueError(
            f"{seq} has only {len(terms)} terms up to {_SCAN_LIMIT}; count {count} is out of reach"
        )
    return terms


def bfile_lines(terms: Iterable[int]) -> Iterator[str]:
    """OEIS b-file lines: 'index value', 1-based, newline-terminated."""
    return (f"{i} {v}\n" for i, v in enumerate(terms, start=1))


def bfile_text(terms: Iterable[int]) -> str:
    """OEIS b-file text: the lines of bfile_lines, joined."""
    return "".join(bfile_lines(terms))


def emit_bfile(seq: str, count: int) -> str:
    """The b-file of the first `count` terms of `seq`."""
    return bfile_text(first_terms(seq, count))


def bfile_deviation_note(seq: str, terms: list[int]) -> str | None:
    """A note when A305131's leading terms deviate from the quoted text set."""
    if seq != SEQ_MRH:
        return None
    quoted = SECTION1_MRH_TEXT_SET[: len(terms)]
    head = tuple(terms[: len(quoted)])
    if head == quoted:
        return None
    return (
        f"note: leading terms {list(head)} deviate from the quoted multiplier-1 set "
        f"{list(quoted)}; the b-file follows the literal definition (every multiplier, "
        "zero digits allowed)"
    )
