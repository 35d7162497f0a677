"""The package's record types: construction, JSON dicts, immutability, hashing.

Every record is built by keyword and by position, is read-only, and
equal records hash equally; SearchConfig refuses bad ranges, kinds and
policies when it is built.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rhnumbers
from rhnumbers.bounds import BoundSpec
from rhnumbers.classify import VerifyFailure, Witness
from rhnumbers.families import Claim, ClaimResult, FamilyInstance, FamilyReport
from rhnumbers.search import SearchConfig
from rhnumbers.tables import CountsReport, DiscrepancyReport, RowReport

_ROW = dict(
    table="T2",
    digit_count=None,
    multiplier=18,
    paper_numbers=(1729, 2961),
    recomputed=(1729,),
    verdict="PAPER_TYPO_SUSPECTED",
    detail="printed 2961 ...",
)
_CLAIM = dict(name="niven", source="paper", expected=None)
_INSTANCE = dict(
    family="repunit12",
    base=10,
    params={"k": 0},
    number=12,
    predicted_multipliers=(2,),
    claims=(Claim(**_CLAIM),),
)
_RESULT = dict(name="niven", passed=None, verdict="INFO", detail="s_b(N) = 3 | N")

# (record type, its fields in declaration order)
CASES = [
    (Witness, dict(m=19, x=361, xr=1368)),
    (VerifyFailure, dict(kind="mrh", m=18, x=342, xr=243, combined=83106, expected=1729)),
    (BoundSpec, dict(kind="arh", base=10, multiplier=3, k_max=5, source="k <= M+2 (b >= 4)")),
    (Claim, _CLAIM),
    (FamilyInstance, _INSTANCE),
    (ClaimResult, _RESULT),
    (FamilyReport, dict(instance=FamilyInstance(**_INSTANCE), results=(ClaimResult(**_RESULT),))),
    (SearchConfig, dict(base=7, lo=2, hi=500, kind="mrh", zero_digit_policy="forbid",
                        multiplier_filter=3)),
    (RowReport, _ROW),
    (DiscrepancyReport, dict(table="T3", rows=(RowReport(**_ROW),), unlisted=((8, 5, (11, 22)),))),
    (CountsReport, dict(arh_count=2, mrh_count=1, arh_expected=264, mrh_expected=23,
                        arh_numbers=(10, 20), mrh_numbers=(1,), arh_with_zero_digit=(10, 20),
                        mrh_with_zero_digit=(), mrh_self_multiplier_only=(1,),
                        notes=("a note",))),
]
IDS = [cls.__name__ for cls, _ in CASES]
# FamilyInstance holds a dict of parameters, so neither it nor a report on it hashes.
UNHASHABLE = (FamilyInstance, FamilyReport)


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_built_by_keyword_and_by_position(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        assert getattr(by_position, name) == value
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_keyword) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_read_only(cls, fields):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_equal_records_hash_equally(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a == b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_defaults():
    assert SearchConfig(10, 1, 5, "arh") == SearchConfig(10, 1, 5, "arh", "allow", None)
    assert DiscrepancyReport("T1", ()).unlisted == ()
    counts = dict(CASES[-1][1])
    del counts["notes"]
    assert CountsReport(**counts).notes == ()


JSON_DICTS = [
    (Witness, {"m": 19, "x": 361, "xr": 1368}),
    (BoundSpec, {"kind": "arh", "base": 10, "multiplier": 3, "k_max": 5,
                 "source": "k <= M+2 (b >= 4)"}),
    (Claim, {"name": "niven", "source": "paper", "expected": None}),
    (FamilyInstance, {
        "family": "repunit12",
        "base": 10,
        "params": {"k": 0},
        "number": {"value": 12, "digits": "12"},
        "predicted_multipliers": [{"value": 2, "digits": "2"}],
        "claims": [{"name": "niven", "source": "paper", "expected": None}],
    }),
    (ClaimResult, {"name": "niven", "passed": None, "verdict": "INFO",
                   "detail": "s_b(N) = 3 | N"}),
    (FamilyReport, {
        "instance": {
            "family": "repunit12",
            "base": 10,
            "params": {"k": 0},
            "number": {"value": 12, "digits": "12"},
            "predicted_multipliers": [{"value": 2, "digits": "2"}],
            "claims": [{"name": "niven", "source": "paper", "expected": None}],
        },
        "results": [{"name": "niven", "passed": None, "verdict": "INFO",
                     "detail": "s_b(N) = 3 | N"}],
        "passed": True,
        "conflicts": [],
    }),
    (RowReport, {"table": "T2", "digit_count": None, "multiplier": 18,
                 "paper": [1729, 2961], "recomputed": [1729],
                 "verdict": "PAPER_TYPO_SUSPECTED", "detail": "printed 2961 ..."}),
    (DiscrepancyReport, {
        "table": "T3",
        "rows": [{"table": "T2", "digit_count": None, "multiplier": 18,
                  "paper": [1729, 2961], "recomputed": [1729],
                  "verdict": "PAPER_TYPO_SUSPECTED", "detail": "printed 2961 ..."}],
        "unlisted": [{"digit_count": 8, "multiplier": 5, "numbers": [11, 22]}],
        "has_toolkit_mismatch": False,
    }),
    (CountsReport, {
        "base": 10,
        "range": [1, 9999],
        "arh": {"count": 2, "expected": 264, "matches": False, "numbers": [10, 20],
                "with_zero_digit": [10, 20]},
        "mrh": {"count": 1, "expected": 23, "matches": False, "numbers": [1],
                "with_zero_digit": [], "self_multiplier_only": [1]},
        "notes": ["a note"],
    }),
]


@pytest.mark.parametrize("cls, expected", JSON_DICTS, ids=[c.__name__ for c, _ in JSON_DICTS])
def test_json_dict(cls, expected):
    record = cls(**dict(CASES)[cls])
    got = record.to_json_dict()
    assert got == expected
    assert list(got) == list(expected)  # key order is the JSON text's order


SEARCH_CONFIG_REFUSALS = [
    (dict(base=1, lo=1, hi=5, kind="arh"), "base must be an integer >= 2"),
    (dict(base=10, lo=0, hi=5, kind="arh"), "need 1 <= lo <= hi"),
    (dict(base=10, lo=6, hi=5, kind="arh"), "need 1 <= lo <= hi"),
    (dict(base=10, lo=2**64, hi=2**64 - 1, kind="arh"), "need 1 <= lo <= hi"),
    (dict(base=10, lo=1, hi=5, kind="sum"), "kind must be one of"),
    (dict(base=10, lo=1, hi=5, kind="arh", zero_digit_policy="maybe"),
     "zero_digit_policy must be"),
    (dict(base=10, lo=1, hi=5, kind="arh", multiplier_filter=0),
     "multiplier_filter must be a positive integer"),
    (dict(base=10, lo=1, hi=5, kind="niven", multiplier_filter=2),
     "multiplier_filter makes no sense for a Niven scan"),
    (dict(base=10, lo=10**5000, hi=1, kind="arh"), "need 1 <= lo <= hi"),
    (dict(base=10, lo=-10**5000, hi=5, kind="arh"), "need 1 <= lo <= hi"),
]


@pytest.mark.parametrize("fields, message", SEARCH_CONFIG_REFUSALS)
def test_search_config_refuses(fields, message):
    # Quickly, and printing no value of the range, which may have too
    # many digits to print.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message) as exc:
        SearchConfig(**fields)
    assert time.perf_counter() - start < 0.1
    assert "4300 digits" not in str(exc.value)


@pytest.mark.parametrize("fields, message", SEARCH_CONFIG_REFUSALS)
def test_search_config_replace_and_make_refuse_alike(fields, message):
    valid = SearchConfig(base=10, lo=1, hi=5, kind="arh")
    with pytest.raises(ValueError, match=message):
        valid._replace(**fields)
    with pytest.raises(ValueError, match=message):
        SearchConfig._make(fields.get(name, getattr(valid, name)) for name in valid._fields)
    assert valid._replace(hi=7) == SearchConfig(10, 1, 7, "arh")
    assert type(SearchConfig._make(valid)) is SearchConfig


def test_import_loads_neither_dataclasses_nor_inspect():
    # Measured against the modules loaded before the import, so what
    # site loads at start-up does not count.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import rhnumbers.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    path = [str(Path(rhnumbers.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "\n"
