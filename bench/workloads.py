"""Seeded operation streams for the three benchmark workloads.

Each workload is an endless, deterministic stream of `Op`s: the argv of
one `rhnumbers` CLI invocation plus the exit code it must return.  The
one operation without a command, `count_not_sum_of_reversal`, gets a
pseudo-argv that the worker dispatches to the library function.

The stream is a sequence of blocks, each holding the whole of a fixed
design: every combination of the parameters that change an op's cost
by a large factor (kind, base, family), each at its own size stratum,
so that the strata together span the size range.  Only output formats,
flags and the cheap count_not_sum_of_reversal cases rotate from block
to block.  Ops are so uneven (a base-2 scan costs several times a
base-16 one, a k = 11 square 4x a k = 10 one) that blocks of different
composition would make a run's figures depend on how many blocks fit
into it.  The seed moves each size by up to JITTER around its
stratum's centre (for classify it shuffles the low digits of N
instead), picks the inputs that do not move the cost (a square's base,
a niven-not-mrh case, a bounds base) and orders the ops inside a block.
Two seeds therefore run different inputs with nearly the same cost
profile, so that a run's medians, tails and peak memory repeat across
seeds.

Nothing here uses `--partitions` or any library name that the roadmap
plans to remove, so later changes can run the stream unedited.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

RANGE_SCAN = "range-scan"
PER_MULTIPLIER = "per-multiplier"
CLASSIFY_VERIFY = "classify-verify"
WORKLOADS = (RANGE_SCAN, PER_MULTIPLIER, CLASSIFY_VERIFY)

CNSR = "count_not_sum_of_reversal"  # pseudo-command: direct library call

SCAN_BASES = (2, 3, 7, 10, 16)
ALL_BASES = tuple(range(2, 17))
FORMATS = ("json", "csv", "bfile")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: int = 0  # exit code the op must return


JITTER = 0.05


def _stratum(slot: int, strata: int) -> float:
    """Centre, in [0, 1), of the size stratum of `slot` (7 spreads neighbours apart)."""
    return ((7 * slot) % strata + 0.5) / strata


def _cycle(j: int, slot: int, values):
    """Design choice that rotates with the block number j."""
    return values[(slot + j) % len(values)]


class _Sizes:
    """Stratum centres moved by a seeded factor in [1 - JITTER, 1 + JITTER]."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def jitter(self, value: float, lo: int, hi: int) -> int:
        return max(lo, min(hi, round(value * (1 + JITTER * (2 * self.rng.random() - 1)))))

    def log_uniform(self, q: float, lo: int, hi: int) -> int:
        return self.jitter(lo * (hi / lo) ** q, lo, hi)

    def uniform(self, q: float, lo: int, hi: int) -> int:
        return self.jitter(lo + q * (hi - lo), lo, hi)

    def shuffled_low_digits(self, q: float, lo: int, hi: int, base: int) -> int:
        """The log-scale stratum centre with its low half of base-b digits shuffled.

        For classify the cost follows N / s_b(N); shuffling low digits keeps
        both the size and the digit sum, where a jitter would redraw s_b(N).
        """
        n = round(lo * (hi / lo) ** q)
        digits = []  # least significant first
        while n:
            n, d = divmod(n, base)
            digits.append(d)
        low = digits[: len(digits) // 2]
        self.rng.shuffle(low)
        return _from_lsd(low + digits[len(low):], base)


def _from_lsd(digits: list[int], base: int) -> int:
    n = 0
    for d in reversed(digits):
        n = n * base + d
    return n


def _digits_text(n: int, base: int) -> str:
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    sep = "" if base <= 10 else ","
    return sep.join(str(d) for d in reversed(digits))


# -- range-scan ---------------------------------------------------------

# 10^3 <= b^k <= 10^4: sieves of similar cost, well below a mid-size scan.
CNSR_CASES = tuple(
    (b, k) for b in SCAN_BASES for k in range(1, 17) if 10**3 <= b**k <= 10**4)
# Term counts reachable by a scan to 10^5: 1581 ARH, 53 MRH numbers.
OEIS_MAX_COUNT = {"A305130": 1581, "A305131": 53}


def _range_scan(size: _Sizes, j: int) -> list[Op]:
    ops = []
    combos = [(kind, base) for kind in ("arh", "mrh", "niven") for base in SCAN_BASES]
    for slot, (kind, base) in enumerate(combos):
        hi = size.log_uniform(_stratum(slot, len(combos)), 10**3, 3 * 10**5)
        argv = ("search", "--kind", kind, "--base", str(base), "--max", str(hi),
                "--format", _cycle(j, slot, FORMATS))
        if _cycle(j, slot, (True, False, False, False)):
            argv += ("--no-zero-digits",)
        ops.append(Op(argv))
    for slot, seq in enumerate(("A305130", "A305130", "A305131", "A305131")):
        count = size.uniform(_stratum(slot, 4), 1, OEIS_MAX_COUNT[seq])
        ops.append(Op(("oeis", "--seq", seq, "--count", str(count))))
    for slot, base in enumerate(SCAN_BASES):
        limit = size.log_uniform(_stratum(slot, len(SCAN_BASES)), 10**2, 10**5)
        ops.append(Op(("palsquare", "--base", str(base), "--limit", str(limit),
                       "--format", _cycle(j, slot, ("json", "csv")))))
    for slot in range(2):
        base, k = _cycle(j, 7 * slot, CNSR_CASES)
        ops.append(Op((CNSR, "--base", str(base), "--k", str(k))))
    return ops


# -- per-multiplier -------------------------------------------------------

MULTIPLIER_MAX = {"mrh": 2 * 10**4, "arh": 10**4}


def _per_multiplier(size: _Sizes, j: int) -> list[Op]:
    ops = []
    # Two sizes per (kind, base), so that neighbouring op costs lie close
    # together and the tail percentile does not jump between them.
    combos = [(kind, base) for kind in ("arh", "mrh") for base in ALL_BASES] * 2
    for slot, (kind, base) in enumerate(combos):
        m = size.log_uniform(_stratum(slot, len(combos)), 1, MULTIPLIER_MAX[kind])
        argv = ("multiplier", "--kind", kind, "--base", str(base), "--multiplier", str(m),
                "--format", _cycle(j, slot, FORMATS))
        if _cycle(j, slot, (True, False)):
            argv += ("--no-zero-digits",)
        ops.append(Op(argv))
    # Up to 10^12 so the strong-hypothesis clauses (M >= b^6 .. b^16) are hit.
    for slot, kind in enumerate(("arh", "arh", "mrh", "mrh")):
        m = size.log_uniform(_stratum(slot, 4), 1, 10**12)
        ops.append(Op(("bounds", "--kind", kind, "--base", str(size.rng.choice(ALL_BASES)),
                       "--multiplier", str(m))))
    # The known verdicts hold no TOOLKIT_MISMATCH, so both exit 0.
    ops += [Op(("tables", "--which", "all")), Op(("tables", "--which", "counts"))]
    return ops


# -- classify-verify ------------------------------------------------------

ALTERNATING_CASES = ((2, 3), (2, 4), (2, 5), (2, 6), (4, 1), (4, 2), (6, 1), (8, 1), (10, 1))
SQUARE_BASES = tuple(range(3, 18, 2))
SQUARE_CONFLICT = (17, 5)  # the printed source says this root is not Niven


def _niven_not_mrh_cases(value_cap: int = 10**10) -> tuple[tuple[int, int], ...]:
    """(b, n) with (b-1) not dividing n and (b-1)*n*R_n small enough to factor."""
    cases = []
    for b in range(3, 17):
        n = 1
        while (b - 1) * n * ((b**n - 1) // (b - 1)) <= value_cap:
            if n % (b - 1):
                cases.append((b, n))
            n += 1
    return tuple(cases)


NIVEN_NOT_MRH_CASES = _niven_not_mrh_cases()


def _square(base: int, k: int) -> Op:
    argv = ("family", "square", "--base", str(base), "--k", str(k), "--verify")
    return Op(argv, 1 if (base, k) == SQUARE_CONFLICT else 0)


def _classify_verify(size: _Sizes, j: int) -> list[Op]:
    ops = []
    slots = ALL_BASES * 2
    for slot, base in enumerate(slots):
        n = size.shuffled_low_digits(_stratum(slot, len(slots)), 10**2, 3 * 10**6, base)
        if _cycle(j, slot, (True, False, False, False)):
            argv = ("classify", "--base", str(base), "--digits", _digits_text(n, base))
        else:
            argv = ("classify", "--base", str(base), str(n))
        ops.append(Op(argv + ("--format", _cycle(j, slot, ("json", "csv")))))
    for k in range(2, 12):  # the root has 2^(k-1) digits
        ops.append(_square(size.rng.choice(SQUARE_BASES), k))
    ops.append(_square(*SQUARE_CONFLICT))
    for p in range(1, 6):
        ops.append(Op(("family", "all-ones", "--base", "2", "--p", str(p), "--verify")))
    for b, p in ALTERNATING_CASES:
        ops.append(Op(("family", "alternating", "--base", str(b), "--p", str(p), "--verify")))
    for k in range(8):  # k = 7 is a known defect (exit 2), kept and counted as failed
        ops.append(Op(("family", "repunit12", "--k", str(k), "--verify")))
    for _ in range(2):
        b, n = size.rng.choice(NIVEN_NOT_MRH_CASES)
        ops.append(Op(("family", "niven-not-mrh", "--base", str(b), "--n", str(n), "--verify")))
    return ops


# One small op per traced layer.  A traced run starts with it, so every
# per-layer metric is measured on every workload; a layer the workload
# itself never calls shows only this tour's small share.
TOUR = (
    Op(("search", "--kind", "arh", "--max", "200")),
    Op(("search", "--kind", "mrh", "--max", "200")),
    Op(("oeis", "--seq", "A305130", "--count", "5")),
    Op(("palsquare", "--limit", "100")),
    Op((CNSR, "--base", "10", "--k", "2")),
    Op(("multiplier", "--kind", "arh", "--multiplier", "2")),
    Op(("bounds", "--kind", "mrh", "--multiplier", "2")),
    Op(("tables", "--which", "1")),
    Op(("tables", "--which", "counts")),
    Op(("classify", "1729")),
    Op(("family", "all-ones", "--base", "2", "--p", "2", "--verify")),
)

BLOCKS = {
    RANGE_SCAN: _range_scan,
    PER_MULTIPLIER: _per_multiplier,
    CLASSIFY_VERIFY: _classify_verify,
}


def iter_blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless deterministic block sequence for (workload, seed)."""
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    size = _Sizes(rng)
    j = 0
    while True:
        block = BLOCKS[workload](size, j)
        rng.shuffle(block)
        yield block
        j += 1
