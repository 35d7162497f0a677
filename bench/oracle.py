"""Independent checks of every benchmark op's output.

Nothing here imports `rhnumbers`: digit reversal, digit sums and every
reference set are computed from the definitions with plain ints, so a
bug in the package's own digit helpers cannot vouch for itself.

`Oracle.check(op, code, out, err)` returns None when the output is
right and a one-line reason when it is not.  Reference tables (the
complete witness maps of a base up to some bound, the cap-limited
per-multiplier sets) are built lazily and cached across ops.
"""

from __future__ import annotations

import csv
import io
import json
import random
from math import isqrt, log

from workloads import Op

# -- plain-int digit primitives ----------------------------------------


def digits_of(x: int, base: int) -> list[int]:
    """Base-b digits of x >= 1, least significant first."""
    out = []
    while x:
        x, d = divmod(x, base)
        out.append(d)
    return out


def rev(x: int, base: int) -> int:
    r = 0
    for d in digits_of(x, base):
        r = r * base + d
    return r


def dsum(x: int, base: int) -> int:
    return sum(digits_of(x, base))


def dcount(x: int, base: int) -> int:
    return max(1, len(digits_of(x, base)))


def has_zero(x: int, base: int) -> bool:
    return x == 0 or 0 in digits_of(x, base)


def from_digits(msd_first, base: int) -> int:
    v = 0
    for d in msd_first:
        v = v * base + d
    return v


# -- per-N brute force (the definitions, nothing more) -------------------


def arh_multipliers(n: int, base: int) -> list[int]:
    """Every M with X = M*s_b(n) and X + X^R = n; X < n since X^R >= 1.

    All multiples X of s below n at once, reversed digit by digit in
    int64 arrays (n stays far below 2^62 in every workload).  numpy is
    imported here, not at module level, so that it stays out of the
    measured process's set-up time and peak memory.
    """
    import numpy as np

    if n >= 2**62:
        raise ValueError(f"{n} is too large for the int64 brute force")
    s = dsum(n, base)
    xs = np.arange(s, n, s, dtype=np.int64)
    rx = np.zeros_like(xs)
    rest = xs.copy()
    while (live := rest > 0).any():
        rx = np.where(live, rx * base + rest % base, rx)
        rest //= base
    return (xs[xs + rx == n] // s).tolist()


def mrh_multipliers(n: int, base: int) -> list[int]:
    """Every M with X = M*s_b(n) and X * X^R = n, by trial division."""
    s = dsum(n, base)
    found = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            for x in (d, n // d):
                if x % s == 0 and x * rev(x, base) == n:
                    found.add(x // s)
    return sorted(found)


def is_niven(n: int, base: int) -> bool:
    return n % dsum(n, base) == 0


def quadratic_flags(n: int, base: int) -> tuple[bool, bool]:
    sq = n * n
    quad = is_niven(n, base) and is_niven(sq, base)
    return quad, quad and dsum(n, base) == dsum(sq, base)


def multiplier_members(base: int, m: int, kind: str) -> list[int]:
    """All N with multiplier m, from a cap proven here rather than the paper's.

    With X = m*s and D(v) the digit count, N = X + X^R has at most
    D(X)+1 digits and N = X * X^R at most 2*D(X), so s = s_b(N) obeys
    s <= (b-1)*(c1*D(m*s) + c0).  D(m*s) <= D(m) + log_b(s) + 1 turns that
    into s <= A + B*ln(s), and s - A - B*ln(s) increases for s >= B, so
    the first s >= B that breaks it (with one unit of slack for rounding)
    ends the search.
    """
    c1, c0 = (1, 1) if kind == "arh" else (2, 0)
    a = (base - 1) * (c1 * (dcount(m, base) + 1) + c0)
    b = (base - 1) * c1 / log(base)
    found = []
    s = 1
    while not (s >= b and s > a + b * log(s) + 1):
        x = m * s
        xr = rev(x, base)
        n = x + xr if kind == "arh" else x * xr
        if dsum(n, base) == s:
            found.append(n)
        s += 1
    return sorted(found)


# -- cached references -----------------------------------------------------


class _Sweep:
    """Complete ARH/MRH witness maps and Niven flags of one base up to hi."""

    def __init__(self, base: int, hi: int):
        self.base, self.hi = base, hi
        # Digit tables by recurrence on x // b: sum, count and reversal.
        ds = [0] * (hi + 1)
        rv = [0] * (hi + 1)
        pw = [0] * (hi + 1)  # b^(D(x)-1)
        for x in range(1, hi + 1):
            q, d = divmod(x, base)
            ds[x] = ds[q] + d
            pw[x] = pw[q] * base if q else 1
            rv[x] = d * pw[x] + rv[q]
        self.arh: dict[int, list[int]] = {}
        self.mrh: dict[int, list[int]] = {}
        for x in range(1, hi + 1):
            r = rv[x]
            a = x + r
            if a <= hi and x % ds[a] == 0:
                self.arh.setdefault(a, []).append(x // ds[a])
            p = x * r
            if p <= hi and x % ds[p] == 0:
                self.mrh.setdefault(p, []).append(x // ds[p])
        for table in (self.arh, self.mrh):
            for ms in table.values():
                ms.sort()
        self.niven = [x for x in range(1, hi + 1) if x % ds[x] == 0]

    def members(self, kind: str, hi: int) -> list[int]:
        if kind == "niven":
            return [n for n in self.niven if n <= hi]
        table = self.arh if kind == "arh" else self.mrh
        return sorted(n for n in table if n <= hi)


def _zero_free_mrh_groups(max_digits: int) -> dict[tuple[int, int], list[int]]:
    """(digit count, M) -> zero-free base-10 MRH numbers below 10^max_digits.

    A zero-free N = X * X^R cannot come from an X with trailing zeros
    (N would end in zeros), and X^R >= 10^(D(X)-1) gives X <= sqrt(10*N).
    """
    hi = 10**max_digits - 1
    groups: dict[tuple[int, int], list[int]] = {}
    for x in range(1, isqrt(10 * hi) + 1):
        if x % 10 == 0:
            continue
        n = x * rev(x, 10)
        if n > hi or has_zero(n, 10):
            continue
        s = dsum(n, 10)
        if x % s == 0:
            groups.setdefault((dcount(n, 10), x // s), []).append(n)
    for ns in groups.values():
        ns.sort()
    return groups


def _count_not_sum_of_reversal(base: int, k: int) -> int:
    lo = base ** (k - 1) if k > 1 else 1
    hi = base**k
    hit = set()
    for x in range(1, hi):
        t = x + rev(x, base)
        if lo <= t < hi:
            hit.add(t)
    return (hi - lo) - len(hit)


def _palindromic_squares(limit: int, base: int) -> list[list[int]]:
    """Palindromes n <= limit built from their first half, filtered by the definition."""
    out = []
    length = 1
    while base ** (length - 1) <= limit:
        half = (length + 1) // 2
        for h in range(base ** (half - 1), base**half):
            digits = digits_of(h, base)[::-1]  # most significant first
            mirror = digits[: length // 2][::-1]
            n = from_digits(digits + mirror, base)
            if n > limit:
                continue
            sq = n * n
            if has_zero(sq, base):
                continue
            s = dsum(sq, base)
            if n % s == 0:
                out.append([n, sq, s])
        length += 1
    return sorted(out)


# -- output parsing --------------------------------------------------------


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _bfile_values(text: str) -> list[int]:
    values = []
    for i, line in enumerate(text.splitlines(), start=1):
        idx, value = line.split(" ")
        if int(idx) != i:
            raise ValueError(f"b-file index {idx} on line {i}")
        values.append(int(value))
    return values


def _opts(argv) -> dict[str, str | bool]:
    """--name value / --flag pairs of an argv (with the CLI's defaults), positional under ''."""
    opts: dict[str, str | bool] = {"base": "10", "format": "json"}
    i = 1
    while i < len(argv):
        a = argv[i]
        if a in ("--no-zero-digits", "--digits", "--verify"):
            opts[a[2:]] = True
            i += 1
        elif a.startswith("--"):
            opts[a[2:]] = argv[i + 1]
            i += 2
        else:
            opts.setdefault("", a)
            i += 1
    return opts


def _flag(text: str) -> str:
    return "True" if text else "False"


class Reject(Exception):
    """The output breaks the oracle; the message says how."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Reject(message)


# Claims each family must keep reporting, in order.
FAMILY_CLAIMS = {
    "repunit12": ["arh_witness", "half_is_palindrome", "niven"],
    "all_ones": ["multipliers_verify", "multiplier_cardinality", "not_niven"],
    "alternating": ["multipliers_verify", "multiplier_cardinality", "not_niven",
                    "multiplier_set_complete"],
    "square": ["square_is_number", "digit_sum_match", "digit_sum_divides_root",
               "mrh_witness", "root_niven"],
    "niven_not_mrh": ["digit_sum_lemma", "niven", "not_mrh"],
}
EXHAUSTIVE_CAP = 1 << 20  # the verifier skips set-completeness above this value
BRUTE_SAMPLES = 2  # random N per search op re-derived from the definitions


class Oracle:
    """Checks op outputs against independently computed answers."""

    def __init__(self):
        self._sweeps: dict[int, _Sweep] = {}
        self._members: dict[tuple[int, int, str], list[int]] = {}
        self._cnsr: dict[tuple[int, int], int] = {}
        self._t3: dict[tuple[int, int], list[int]] | None = None
        self.unverified_claims = 0  # claims accepted without a brute-force check

    # -- caches --

    def sweep(self, base: int, hi: int) -> _Sweep:
        cached = self._sweeps.get(base)
        if cached is None or cached.hi < hi:
            grown = max(hi, 4 * cached.hi) if cached else hi
            cached = self._sweeps[base] = _Sweep(base, grown)
        return cached

    def members(self, base: int, m: int, kind: str) -> list[int]:
        key = (base, m, kind)
        if key not in self._members:
            self._members[key] = multiplier_members(base, m, kind)
        return self._members[key]

    # -- entry point --

    def check(self, op: Op, code: int, out: str, err: str) -> str | None:
        if code != op.expect:
            return f"exit code {code}, expected {op.expect}"
        try:
            getattr(self, "_check_" + op.argv[0].replace("-", "_"))(op.argv, out, err)
        except Reject as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"
        return None

    # -- range scans --

    def _check_search(self, argv, out, err) -> None:
        o = _opts(argv)
        base, hi, kind = int(o["base"]), int(o["max"]), o["kind"]
        fmt, no_zero = o["format"], bool(o.get("no-zero-digits"))
        sw = self.sweep(base, hi)
        expected = [n for n in sw.members(kind, hi) if not (no_zero and has_zero(n, base))]
        self._sample_brute(argv, sw, hi, expected)
        if fmt == "bfile":
            _expect(_bfile_values(out) == expected, "b-file hits differ from the reference")
            return
        records = [self._record(n, base, sw) for n in expected]
        if fmt == "csv":
            rows = _csv_rows(out)
            _expect(rows[0] == ["n", "base", "niven", "arh_multipliers", "mrh_multipliers",
                                "quadratic_niven", "strongly_quadratic_niven"], "csv header")
            got = rows[1:]
            want = [
                [str(r["n"]), str(base), _flag(r["niven"]),
                 ";".join(str(w["m"]) for w in r["arh"]),
                 ";".join(str(w["m"]) for w in r["mrh"]),
                 _flag(r["quadratic_niven"]), _flag(r["strongly_quadratic_niven"])]
                for r in records
            ]
            self._compare_lists(got, want, lambda row: row[0])
            return
        doc = json.loads(out)
        _expect(doc["count"] == len(expected), f"count {doc['count']}, reference {len(expected)}")
        _expect(doc["config"]["hi"] == hi and doc["config"]["base"] == base, "config echo")
        self._compare_lists(doc["results"], records, lambda r: r["n"])

    @staticmethod
    def _compare_lists(got, want, key) -> None:
        if got == want:
            return
        got_keys, want_keys = [key(g) for g in got], [key(w) for w in want]
        if got_keys != want_keys:
            missing = sorted(set(want_keys) - set(got_keys), key=str)[:3]
            extra = sorted(set(got_keys) - set(want_keys), key=str)[:3]
            raise Reject(f"hit list differs: missing {missing}, unexpected {extra}")
        bad = next(g for g, w in zip(got, want) if g != w)
        raise Reject(f"record for {key(bad)} differs from the reference")

    def _record(self, n: int, base: int, sw: _Sweep) -> dict:
        s = dsum(n, base)
        quad, strong = quadratic_flags(n, base)

        def witnesses(ms):
            return [{"m": m, "x": m * s, "xr": rev(m * s, base)} for m in ms]

        return {
            "n": n, "base": base, "niven": n % s == 0,
            "arh": witnesses(sw.arh.get(n, [])), "mrh": witnesses(sw.mrh.get(n, [])),
            "quadratic_niven": quad, "strongly_quadratic_niven": strong,
        }

    def _sample_brute(self, argv, sw: _Sweep, hi: int, hits: list[int]) -> None:
        """Re-derive a seeded sample of N from the definitions (checks the sweep too)."""
        rng = random.Random(" ".join(argv))
        sample = [rng.randint(1, hi) for _ in range(BRUTE_SAMPLES)]
        if hits:
            sample.append(rng.choice(hits))
        for n in sample:
            _expect(arh_multipliers(n, sw.base) == sw.arh.get(n, []), f"ARH brute force at {n}")
            _expect(mrh_multipliers(n, sw.base) == sw.mrh.get(n, []), f"MRH brute force at {n}")

    def _check_oeis(self, argv, out, err) -> None:
        o = _opts(argv)
        seq, count = o["seq"], int(o["count"])
        kind = "arh" if seq == "A305130" else "mrh"
        hi = 10**4
        while len(terms := self.sweep(10, hi).members(kind, hi)) < count:
            hi *= 10
        terms = terms[:count]
        _expect(_bfile_values(out) == terms, f"{seq} terms differ from the reference")
        # The quoted multiplier-1 set disagrees with the literal definition;
        # that disagreement must stay reported on stderr.
        quoted = [1, 81, 1458, 1729][:count]
        deviates = seq == "A305131" and terms[: len(quoted)] != quoted
        _expect(("deviate" in err) == deviates, "deviation note missing or spurious")

    def _check_palsquare(self, argv, out, err) -> None:
        o = _opts(argv)
        want = _palindromic_squares(int(o["limit"]), int(o["base"]))
        if o["format"] == "csv":
            rows = _csv_rows(out)
            _expect(rows[0] == ["n", "square", "square_digit_sum"], "csv header")
            got = [[int(v) for v in row] for row in rows[1:]]
        else:
            got = [[d["n"], d["square"], d["square_digit_sum"]] for d in json.loads(out)]
        self._compare_lists(got, want, lambda r: r[0])

    def _check_count_not_sum_of_reversal(self, argv, out, err) -> None:
        o = _opts(argv)
        key = (int(o["base"]), int(o["k"]))
        if key not in self._cnsr:
            self._cnsr[key] = _count_not_sum_of_reversal(*key)
        _expect(int(out) == self._cnsr[key], f"count {out.strip()}, reference {self._cnsr[key]}")

    # -- per-multiplier --

    def _check_multiplier(self, argv, out, err) -> None:
        o = _opts(argv)
        base, m, kind = int(o["base"]), int(o["multiplier"]), o["kind"]
        want = self.members(base, m, kind)
        if o.get("no-zero-digits"):
            want = [n for n in want if not has_zero(n, base)]
        fmt = o["format"]
        if fmt == "bfile":
            got = _bfile_values(out)
        elif fmt == "csv":
            rows = _csv_rows(out)
            _expect(rows[0] == ["n"], "csv header")
            got = [int(r[0]) for r in rows[1:]]
        else:
            doc = json.loads(out)
            got = doc["numbers"]
            _expect(doc["multiplicity"] == len(got), "multiplicity is not the set size")
            _expect((doc["base"], doc["multiplier"], doc["kind"]) == (base, m, kind), "echo")
        for n in got:
            x = m * dsum(n, base)
            combined = x + rev(x, base) if kind == "arh" else x * rev(x, base)
            _expect(combined == n, f"{n} fails the defining equation with M={m}")
        _expect(got == want, f"member set {got[:4]} differs from the reference {want[:4]}")

    def _check_bounds(self, argv, out, err) -> None:
        o = _opts(argv)
        base, m, kind = int(o["base"]), int(o["multiplier"]), o["kind"]
        doc = json.loads(out)
        _expect((doc["base"], doc["multiplier"], doc["kind"]) == (base, m, kind), "echo")
        _expect(isinstance(doc["k_max"], int) and doc["k_max"] >= 1, "k_max not a positive int")
        _expect(bool(doc["source"]), "bound source missing")
        longest = max((dcount(n, base) for n in self.members(base, m, kind)), default=0)
        _expect(longest <= doc["k_max"], f"a member has {longest} digits > k_max {doc['k_max']}")

    def _check_tables(self, argv, out, err) -> None:
        which = _opts(argv)["which"]
        doc = json.loads(out)
        if which == "counts":
            self._check_counts(doc)
            return
        reports = doc if which == "all" else [doc]
        ids = ["T1", "T2", "T3"] if which == "all" else ["T" + which]
        _expect([r["table"] for r in reports] == ids, "table ids")
        for report in reports:
            _expect(not report["has_toolkit_mismatch"], f"{report['table']} reports a mismatch")
            for row in report["rows"]:
                self._check_row(report["table"], row)
            if report["table"] == "T2":
                first = next(r for r in report["rows"] if r["multiplier"] == 1)
                _expect(
                    first["verdict"] == "PAPER_TYPO_SUSPECTED"
                    and "18" in first["detail"] and "81" in first["detail"],
                    "Table 2's printed 18 (for 81) is no longer reported",
                )
            if report["table"] == "T3":
                listed = {(r["digit_count"], r["multiplier"]) for r in report["rows"]}
                unlisted = [[k, m, ns] for (k, m), ns in sorted(self.t3_groups().items())
                            if (k, m) not in listed]
                got = [[u["digit_count"], u["multiplier"], u["numbers"]]
                       for u in report["unlisted"]]
                _expect(got == unlisted, "Table 3 unlisted groups differ from the reference")

    def t3_groups(self) -> dict[tuple[int, int], list[int]]:
        if self._t3 is None:
            self._t3 = _zero_free_mrh_groups(8)
        return self._t3

    def _check_row(self, table: str, row: dict) -> None:
        m = row["multiplier"]
        if table == "T3":
            want = self.t3_groups().get((row["digit_count"], m), [])
        else:
            kind = "arh" if table == "T1" else "mrh"
            want = [n for n in self.members(10, m, kind) if not has_zero(n, 10)]
        _expect(row["recomputed"] == want, f"{table} M={m}: recomputed {row['recomputed']}")
        same = set(row["paper"]) == set(want)
        allowed = {"MATCH"} if same else {"PAPER_TYPO_SUSPECTED"}
        _expect(row["verdict"] in allowed, f"{table} M={m}: verdict {row['verdict']}")

    def _check_counts(self, doc: dict) -> None:
        sw = self.sweep(10, 10**4)
        arh, mrh = sw.members("arh", 9999), sw.members("mrh", 9999)
        _expect(doc["arh"]["numbers"] == arh and doc["arh"]["count"] == 264, "ARH count")
        _expect(doc["arh"]["matches"] is True, "ARH 264 verdict")
        _expect(doc["mrh"]["numbers"] == mrh and doc["mrh"]["count"] == 22, "MRH count")
        _expect(doc["mrh"]["expected"] == 23 and doc["mrh"]["matches"] is False, "MRH 22 vs 23")
        _expect(any("inclusive finds 23" in note for note in doc["notes"]),
                "the inclusive-range note for the printed 23 is missing")
        self_only = [n for n in mrh if all(m * dsum(n, 10) == n for m in sw.mrh[n])]
        _expect(doc["mrh"]["self_multiplier_only"] == self_only, "self-multiplier list")
        for kind, ns in (("arh", arh), ("mrh", mrh)):
            zero = [n for n in ns if has_zero(n, 10)]
            _expect(doc[kind]["with_zero_digit"] == zero, f"{kind} zero-digit list")

    # -- classify and families --

    def _check_classify(self, argv, out, err) -> None:
        o = _opts(argv)
        base = int(o["base"])
        if o.get("digits"):
            parts = o[""] if base <= 10 else o[""].split(",")
            n = from_digits([int(p) for p in parts], base)
        else:
            n = int(o[""])
        s = dsum(n, base)
        arh, mrh = arh_multipliers(n, base), mrh_multipliers(n, base)
        quad, strong = quadratic_flags(n, base)
        if o["format"] == "csv":
            rows = _csv_rows(out)
            want = [str(n), str(base), _flag(n % s == 0), ";".join(map(str, arh)),
                    ";".join(map(str, mrh)), _flag(quad), _flag(strong)]
            _expect(len(rows) == 2 and rows[1] == want, f"classify {n}: csv row differs")
            return
        doc = json.loads(out)
        got = (doc["n"], doc["base"], doc["niven"], doc["quadratic_niven"],
               doc["strongly_quadratic_niven"])
        _expect(got == (n, base, n % s == 0, quad, strong), f"classify {n}: flags differ")
        for key, kind_ms, op in (("arh", arh, "arh"), ("mrh", mrh, "mrh")):
            for w in doc[key]:
                combined = w["x"] + w["xr"] if op == "arh" else w["x"] * w["xr"]
                _expect(w["x"] == w["m"] * s and w["xr"] == rev(w["x"], base) and combined == n,
                        f"classify {n}: {key} witness M={w['m']} fails the definition")
            _expect([w["m"] for w in doc[key]] == kind_ms,
                    f"classify {n}: {key} multipliers differ from brute force")

    def _check_family(self, argv, out, err) -> None:
        o = _opts(argv)
        doc = json.loads(out)
        inst = doc["instance"]
        family = inst["family"]
        n, truths = self._family_truths(family, o, inst)
        _expect(inst["number"]["value"] == n, f"{family}: number differs from its construction")
        _expect([c["name"] for c in inst["claims"]] == [r["name"] for r in doc["results"]]
                and [c["name"] for c in inst["claims"]][: len(FAMILY_CLAIMS[family])]
                == FAMILY_CLAIMS[family], f"{family}: claim list changed")
        conflicts = []
        for claim, result in zip(inst["claims"], doc["results"]):
            name, expected = claim["name"], claim["expected"]
            truth = truths.get(name)
            if result["verdict"] == "SKIPPED":
                _expect(name == "multiplier_set_complete" and n > EXHAUSTIVE_CAP,
                        f"{family}: {name} skipped")
                continue
            if truth is None:  # above the brute-force cap: the verdict stands unverified
                self.unverified_claims += 1
                if result["verdict"] == "CONFLICT-WITH-PAPER":
                    conflicts.append(name)
                continue
            if expected is None:
                want = ("INFO", None)
            elif truth == expected:
                want = ("PASS", True)
            elif claim["source"] == "construction":
                want = ("IMPLEMENTATION-BUG", False)
            else:
                want = ("CONFLICT-WITH-PAPER", False)
            _expect((result["verdict"], result["passed"]) == want,
                    f"{family}: {name} is {result['verdict']}, expected {want[0]}")
            if want[0] == "CONFLICT-WITH-PAPER":
                conflicts.append(name)
        _expect(doc["conflicts"] == conflicts, f"{family}: conflict list")
        _expect(doc["passed"] == (not any(r["passed"] is False for r in doc["results"])),
                f"{family}: report verdict")
        if family == "square" and (int(o["base"]), int(o["k"])) == (17, 5):
            _expect(conflicts == ["root_niven"], "the b=17, k=5 root conflict is no longer reported")

    def _family_truths(self, family: str, o: dict, inst: dict) -> tuple[int, dict]:
        """The family number from its definition, and every claim's true value."""
        base = int(o.get("base", 10))
        predicted = [p["value"] for p in inst["predicted_multipliers"]]
        if family == "repunit12":
            n = 0
            for _ in range(3 ** int(o["k"])):
                n = n * 100 + 12
        elif family in ("all_ones", "alternating"):
            p = int(o["p"])
            k = base**p
            digits = [1] * k if family == "all_ones" else (
                [1] * p + [1, 0] * (k - 2 * p) + [0] + [1] * p)
            n = from_digits(digits, base)
        elif family == "square":
            root = base ** (2 ** (int(o["k"]) - 1)) - 1
            n = root * root
        else:
            count = int(o["n"])
            n = (base - 1) * count * ((base**count - 1) // (base - 1))
        s = dsum(n, base)

        def arh_ok(m):
            return m * s + rev(m * s, base) == n

        truths: dict[str, bool | None] = {"niven": n % s == 0, "not_niven": n % s != 0}
        if family == "repunit12":
            truths["arh_witness"] = len(predicted) == 1 and arh_ok(predicted[0])
            x = predicted[0] * s
            truths["half_is_palindrome"] = rev(x, base) == x
        elif family in ("all_ones", "alternating"):
            half = (base**p - 2 * p) // 2
            truths["multipliers_verify"] = all(arh_ok(m) for m in predicted)
            formula = 2**half if family == "all_ones" else (base - 1) ** half
            truths["multiplier_cardinality"] = len(predicted) == formula
            truths["multiplier_set_complete"] = (
                set(arh_multipliers(n, base)) == set(predicted) if n <= EXHAUSTIVE_CAP else None
            )
        elif family == "square":
            h = 2 ** (int(o["k"]) - 1)
            truths["square_is_number"] = True
            truths["digit_sum_match"] = dsum(root, base) == s == h * (base - 1)
            truths["digit_sum_divides_root"] = root % s == 0
            truths["mrh_witness"] = bool(predicted) and (
                predicted[0] * s * rev(predicted[0] * s, base) == n)
            truths["root_niven"] = root % dsum(root, base) == 0
        else:
            truths["digit_sum_lemma"] = s == (base - 1) * int(o["n"])
            truths["not_mrh"] = not mrh_multipliers(n, base)
        return n, truths
