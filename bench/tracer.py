"""Per-layer tracing of `rhnumbers` from the outside.

The package itself is never edited.  `Tracer.install()` replaces each
traced function with a wrapper in every `rhnumbers` module that holds a
reference to it (helpers are imported by name into several modules),
and `Tracer.restore()` puts the originals back.  A target that a later
version of the package no longer has is recorded as absent.

Spanned targets record a Span each call, kept in memory; hot helpers
that run millions of times are only counted.  Self time is a span's
duration minus its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

# (module, attribute path) -> metric prefix.  Spans:
SPANNED = (
    ("cli", "run_cli"),
    ("search", "scan_range"),
    ("search", "arh_pairs_chunk"),
    ("search", "mrh_pairs_chunk"),
    ("search", "count_not_sum_of_reversal"),
    ("search", "palindromic_square_search"),
    ("search", "numbers_for_multiplier"),
    ("oeis", "first_terms"),
    ("bounds", "digit_bound"),
    ("tables", "reproduce_table"),
    ("tables", "section1_counts"),
    ("classify", "classify"),
    ("classify", "arh_witnesses"),
    ("classify", "mrh_witnesses"),
    ("classify", "verify_witness"),
    ("families", "verify_family"),
    ("digitvec", "DigitVec.__mul__"),
)
# Counts only (millions of calls would swamp a span list).
COUNTED = (
    ("digitvec", "DigitVec.from_int"),
    ("digitvec", "reverse_int"),
    ("digitvec", "digit_sum_int"),
)


def metric_prefix(module: str, path: str) -> str:
    return f"{module}.{path.replace('__mul__', 'mul')}"


def _size(prefix: str, args: tuple, kwargs: dict, sig) -> int:
    """Work a call was asked to do, read from its arguments (0 if unknown)."""
    if sig is None:
        return 0
    try:
        bound = sig.bind(*args, **kwargs).arguments
    except TypeError:
        return 0
    if prefix == "search.arh_pairs_chunk" and {"x_lo", "x_hi"} <= bound.keys():
        return max(0, bound["x_hi"] - max(bound["x_lo"], 1) + 1)
    if prefix == "digitvec.DigitVec.mul":
        a, b = bound.get("self"), bound.get("other")
        if hasattr(a, "digits") and hasattr(b, "digits"):
            return len(a.digits) * len(b.digits)
    return 0


def _items(result) -> int:
    return len(result) if isinstance(result, (list, tuple)) else 0


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int
    active: float | None  # generators: time spent running, not suspended
    size: int  # work asked for, from the arguments (see _size)
    items: int  # length of the result, or values a generator yielded

    @property
    def duration(self) -> float:
        return self.active if self.active is not None else self.end - self.start


class Tracer:
    """Wraps rhnumbers functions; collects spans and counts in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.claims: Counter = Counter()
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore --

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "rhnumbers" or name.startswith("rhnumbers."))]
        for module_name, path in SPANNED + COUNTED:
            prefix = metric_prefix(module_name, path)
            owner = sys.modules.get(f"rhnumbers.{module_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(prefix)
                continue
            spanned = (module_name, path) in SPANNED
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, prefix, spanned))
            else:
                wrapped = self._wrap(raw, prefix, spanned)
            self._rebind(owner, attr, raw, wrapped)
            if not cls_path:  # a function: also every module that imported it by name
                for m in modules:
                    if m is not owner and m.__dict__.get(attr) is raw:
                        self._rebind(m, attr, raw, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers --

    def _wrap(self, func, prefix: str, spanned: bool):
        calls = self.calls
        if not spanned:
            def counted(*args, **kwargs):
                calls[prefix] += 1
                return func(*args, **kwargs)
            counted.__wrapped__ = func
            return counted
        try:
            sig = inspect.signature(func)
        except (TypeError, ValueError):
            sig = None
        if inspect.isgeneratorfunction(func):
            def gen_wrapper(*args, **kwargs):
                calls[prefix] += 1
                span = self._open(prefix, _size(prefix, args, kwargs, sig))
                span.active = 0.0
                inner = func(*args, **kwargs)
                try:
                    while True:
                        self._stack.append(span.id)
                        t0 = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span.active += time.perf_counter() - t0
                            self._stack.pop()
                        span.items += 1
                        yield item
                finally:
                    span.end = time.perf_counter()
            gen_wrapper.__wrapped__ = func
            return gen_wrapper

        def wrapper(*args, **kwargs):
            calls[prefix] += 1
            span = self._open(prefix, _size(prefix, args, kwargs, sig))
            self._stack.append(span.id)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            span.items = _items(result)
            if prefix == "families.verify_family":
                for r in getattr(result, "results", ()):
                    skipped = getattr(r, "verdict", None) == "SKIPPED"
                    self.claims["skipped" if skipped else "checked"] += 1
            return result
        wrapper.__wrapped__ = func
        return wrapper

    def _open(self, name: str, size: int) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), None, parent, self.op,
                    None, size, 0)
        self.spans.append(span)
        return span

    # -- results --

    def self_times(self, op_scale: dict[int, float]) -> dict[str, float]:
        """Summed self time per name, each span scaled by its op's clock factor."""
        child: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += (span.duration - child[span.id]) * op_scale.get(span.op, 1.0)
        return out

    def totals(self, field: str) -> dict[str, int]:
        """Sum of a Span field ("size" or "items") per name."""
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += getattr(span, field)
        return out

    def items_under(self, ancestor: str, name: str) -> int:
        """Items of `name` spans nested anywhere below an `ancestor` span."""
        total = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name != ancestor:
                parent = self.spans[parent].parent
            if parent is not None:
                total += span.items
        return total

    def dump(self) -> dict:
        return {
            "spans": [asdict(span) for span in self.spans],
            "calls": dict(self.calls),
            "claims": dict(self.claims),
            "absent": self.absent,
        }
