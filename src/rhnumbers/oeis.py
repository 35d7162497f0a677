"""OEIS b-file emission for the two base-10 sequences.

A305130: base-10 ARH numbers ascending; A305131: base-10 MRH numbers
ascending.  Terms come from the literal definitions with zero digits
allowed; where that disagrees with the values quoted in the source
text, the deviation is reported alongside, never silently edited in.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from .classify import ARH, MRH
from .search import SearchConfig, scan_numbers

SEQ_ARH = "A305130"
SEQ_MRH = "A305131"

# The multiplier-1 MRH set quoted in the introductory text; used only
# to flag deviations of A305131's leading terms.
SECTION1_MRH_TEXT_SET = (1, 81, 1458, 1729)

# The end of first_terms' one scan: a count with fewer terms below it is refused.
_SCAN_LIMIT = 10**9


def _kind_for(seq: str) -> str:
    if seq == SEQ_ARH:
        return ARH
    if seq == SEQ_MRH:
        return MRH
    raise ValueError(f"sequence must be {SEQ_ARH} or {SEQ_MRH}, got {seq!r}")


def first_terms(seq: str, count: int) -> list[int]:
    """First `count` terms, ascending: the head of one scan of [1, _SCAN_LIMIT].

    The scan's windows grow from its start, so reading stops within the
    window that holds the last term asked for.
    """
    cfg = SearchConfig(base=10, lo=1, hi=_SCAN_LIMIT, kind=_kind_for(seq))
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    terms = list(islice(scan_numbers(cfg), count))
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
