import random
import re
from itertools import product

import pytest

from xsgowl.datatypes import (
    BOOLEAN,
    DECIMAL,
    INTEGER,
    LATTICE_TYPES,
    NCNAME,
    STRING,
    infer_datatype,
    is_ncname,
    all_lexically_valid,
    join_datatype,
    join_inferred,
    lexical_check,
)
from xsgowl.owlmodel import sanitize_fragment
from randgen import VALUES


@pytest.mark.parametrize("value,expected", [
    ("1977", INTEGER),
    ("Godfrey", NCNAME),
    ("Cornell University Press", STRING),
    # checked against the NCName production by hand: leading letter, then
    # letters/digits/hyphen only
    ("FHIW13C-1234", NCNAME),
    ("true", BOOLEAN),
    ("false", BOOLEAN),
    ("0", INTEGER),  # numeric, not boolean: classification is restricted
    ("1", INTEGER),
    ("-42", INTEGER),
    ("+7", INTEGER),
    ("3.14", DECIMAL),
    ("-0.5", DECIMAL),
    (".5", DECIMAL),
    ("x.y-z_1", NCNAME),
    ("_under", NCNAME),
    ("a:b", STRING),
    ("", STRING),
    ("9lives", STRING),
    ("two words", STRING),
])
def test_infer_datatype(value, expected):
    assert infer_datatype(value) == expected


def test_join_idempotent():
    for t in LATTICE_TYPES:
        assert join_datatype(t, t) == t


def test_join_incomparable_meet_at_top():
    assert join_datatype(INTEGER, NCNAME) == STRING
    assert join_datatype(BOOLEAN, INTEGER) == STRING
    assert join_datatype(BOOLEAN, NCNAME) == STRING


def test_join_integer_decimal():
    assert join_datatype(INTEGER, DECIMAL) == DECIMAL
    assert join_datatype(DECIMAL, INTEGER) == DECIMAL


def test_string_is_top():
    for t in LATTICE_TYPES:
        assert join_datatype(t, STRING) == STRING
        assert join_datatype(STRING, t) == STRING


def test_join_commutative_associative():
    for a, b in product(LATTICE_TYPES, repeat=2):
        assert join_datatype(a, b) == join_datatype(b, a)
    for a, b, c in product(LATTICE_TYPES, repeat=3):
        assert join_datatype(join_datatype(a, b), c) == \
            join_datatype(a, join_datatype(b, c))


def valid(value: str, datatype: str) -> bool:
    check = lexical_check(datatype)
    return True if check is None else bool(check(value))


def test_classification_is_lexically_sound():
    # whatever a value classifies as, it must be valid for that type
    for value in ["1977", "true", "0", "3.", ".5", "Foo", "a b", "x-1", ""]:
        assert valid(value, infer_datatype(value))


def test_boolean_lexical_space_wider_than_classification():
    assert valid("0", BOOLEAN)
    assert valid("1", BOOLEAN)
    assert not valid("yes", BOOLEAN)


def test_integer_family_aliases():
    assert valid("42", "long")
    assert not valid("4.2", "long")
    assert lexical_check("dateTime") is None  # unchecked type


def test_is_ncname():
    assert is_ncname("a")
    assert is_ncname("_x.y-z")
    assert not is_ncname("")
    assert not is_ncname("1a")
    assert not is_ncname("a:b")
    assert not is_ncname("a b")


# --- the fast paths against the per-character definition ----------------------

# XML 1.0 (fifth edition) NameStartChar without ":", and the other NameChars
NAME_START = [(0x41, 0x5A), (0x5F, 0x5F), (0x61, 0x7A), (0xC0, 0xD6), (0xD8, 0xF6),
              (0xF8, 0x2FF), (0x370, 0x37D), (0x37F, 0x1FFF), (0x200C, 0x200D),
              (0x2070, 0x218F), (0x2C00, 0x2FEF), (0x3001, 0xD7FF),
              (0xF900, 0xFDCF), (0xFDF0, 0xFFFD), (0x10000, 0xEFFFF)]
NAME_MORE = [(0x2D, 0x2E), (0x30, 0x39), (0xB7, 0xB7), (0x300, 0x36F),
             (0x203F, 0x2040)]


def is_start(c: str) -> bool:
    return any(low <= ord(c) <= high for low, high in NAME_START)


def is_name_char(c: str) -> bool:
    return is_start(c) or any(low <= ord(c) <= high for low, high in NAME_MORE)


def reference_is_ncname(value: str) -> bool:
    return bool(value) and is_start(value[0]) and all(map(is_name_char, value[1:]))


def reference_sanitize(name: str) -> str:
    # a final "." is no Turtle local name
    cleaned = "".join(c if is_name_char(c) else "_" for c in name)
    if cleaned.endswith("."):
        cleaned = cleaned[:-1] + "_"
    if not cleaned:
        cleaned = "_"
    if not is_start(cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


NON_ASCII = ["é", "٣", "²", "·", "Ⅻ", "ª", "\u0301", "\u203f", "\u00d7", "\U00010400"]
NCNAME_CASES = (
    [""]
    + [f"{c}{tail}" for c in map(chr, range(128)) for tail in ("", "a", "1")]
    + [f"{head}{c}" for c in map(chr, range(128)) for head in ("a", "_", "1", "a.b")]
    + [f"{c}x" for c in NON_ASCII] + [f"x{c}" for c in NON_ASCII]
    + [f"_{c}" for c in NON_ASCII] + NON_ASCII
    + ["naïve-name", "é1:b", "a²b", "٣a", "Ⅻ.x", "x·y z", "ℵ0", "Ωmega_٣",
       "x²", "qª", "k.", "a..", "名前.", "é."]
)


def test_is_ncname_matches_per_character_reference():
    mismatched = [v for v in NCNAME_CASES if is_ncname(v) != reference_is_ncname(v)]
    assert mismatched == []


def test_sanitize_fragment_matches_per_character_reference():
    mismatched = [v for v in NCNAME_CASES
                  if sanitize_fragment(v) != reference_sanitize(v)]
    assert mismatched == []


# --- one-match classification against the three-regex chain it replaced -------

REF_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
REF_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)\Z")


def reference_infer_datatype(value: str) -> str:
    if value in ("true", "false"):
        return BOOLEAN
    if REF_INTEGER_RE.match(value):
        return INTEGER
    if REF_DECIMAL_RE.match(value):
        return DECIMAL
    if is_ncname(value):
        return NCNAME
    return STRING


REF_LEXICAL = {
    BOOLEAN: lambda v: v in ("true", "false", "0", "1"),
    INTEGER: lambda v: bool(REF_INTEGER_RE.match(v)),
    DECIMAL: lambda v: bool(REF_INTEGER_RE.match(v)) or bool(REF_DECIMAL_RE.match(v)),
    NCNAME: is_ncname,
    STRING: lambda v: True,
}
INTEGER_ALIASES = (
    "long", "int", "short", "byte",
    "nonNegativeInteger", "positiveInteger",
    "nonPositiveInteger", "negativeInteger",
    "unsignedLong", "unsignedInt", "unsignedShort", "unsignedByte",
)
for alias in INTEGER_ALIASES:
    REF_LEXICAL[alias] = REF_LEXICAL[INTEGER]


def reference_lexically_valid(value: str, datatype: str) -> bool:
    check = REF_LEXICAL.get(datatype)
    return True if check is None else check(value)


ALPHABET = ["0", "9", "+", "-", ".", "a", "Z", "_", ":", "é", "²", " "]


def classification_cases() -> list[str]:
    short = ["".join(t) for n in range(4) for t in product(ALPHABET, repeat=n)]
    rng = random.Random(12)
    longer = ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(4, 12)))
              for _ in range(2000)]
    return short + ["true", "false", ""] + longer


def test_classification_matches_three_regex_reference():
    cases = classification_cases()
    assert len(cases) == 1885 + 3 + 2000
    mismatched = [v for v in cases if infer_datatype(v) != reference_infer_datatype(v)]
    assert mismatched == []
    for datatype in (*LATTICE_TYPES, *INTEGER_ALIASES, "dateTime"):
        mismatched = [v for v in cases if valid(v, datatype)
                      is not reference_lexically_valid(v, datatype)]
        assert mismatched == [], datatype


# --- the whole-list helpers against the per-value fold and check ---------------

EDGE_VALUES = [
    "", "\n", "a\nb", "1\n", "\n1", "12\n34", "5\r", "a\rb", "\r",
    "é", "名前", "naïve", "x²", "é:b", "名 前",
    "true", "false", "0", "1", "+5", "-.5", "5.", "1e3", ".", "+", "-", "+-1",
    "Foo", "_x", "a.b-c", "9lives",
]
POOLS = {
    "all": VALUES + EDGE_VALUES,
    "numbers": ["0", "1", "42", "-7", "+5", "3.14", "-.5", "5.", ".5", "1e3", "", "1\n"],
    "names": ["Foo", "bar_1", "x-y.z", "é", "名前", "true", "false", "a:b", "", "a\rb"],
    "booleans": ["true", "false", "0", "1", "Foo", "é", ""],
}
CHECKED_TYPES = (*LATTICE_TYPES, *INTEGER_ALIASES, "dateTime")


def per_value_join(values: list[str]) -> str | None:
    joined = None
    for value in values:
        t = infer_datatype(value)
        joined = t if joined is None else join_datatype(joined, t)
    return joined


def random_lists(seed: int):
    rng = random.Random(seed)
    for name, pool in POOLS.items():
        for _ in range(600):
            yield name, [rng.choice(pool) for _ in range(rng.randint(0, 7))]
    # long lists, so more than one match runs; the odd value comes last
    for odd in ["3.5", "é", "名前", "true", "", "1\n2", "x", "1e3"]:
        yield "long", [str(k) for k in range(3000)] + [odd]
        yield "long", [f"n{k}" for k in range(3000)] + [odd]


def test_join_inferred_matches_the_per_value_fold():
    mismatched = [(name, values) for name, values in random_lists(27)
                  if join_inferred(values) != per_value_join(values)]
    assert mismatched == []


def test_join_inferred_edge_cases():
    assert join_inferred([]) is None
    assert join_inferred([""]) == STRING
    assert join_inferred(["true", "false", "true"]) == BOOLEAN
    assert join_inferred(["true", "Foo"]) == STRING  # boolean beside a name
    assert join_inferred(["0", "1"]) == INTEGER
    assert join_inferred(["1", "2\n3"]) == STRING
    assert join_inferred(["é", "名前", "Foo"]) == NCNAME
    assert join_inferred(["-.5", "+5", "5."]) == DECIMAL


def test_all_lexically_valid_matches_the_per_value_check():
    for datatype in CHECKED_TYPES:
        mismatched = [
            (name, values) for name, values in random_lists(28)
            if all_lexically_valid(datatype, values)
            is not all(valid(v, datatype) for v in values)
        ]
        assert mismatched == [], datatype


def test_all_lexically_valid_edge_cases():
    assert all_lexically_valid(INTEGER, [])
    assert not all_lexically_valid(INTEGER, ["1", "2\n3"])
    assert not all_lexically_valid(INTEGER, ["1", "\n"])
    assert not all_lexically_valid("long", ["1", "4.2"])
    assert all_lexically_valid("unsignedByte", ["+5", "-7"])  # sign + digits
    assert all_lexically_valid(NCNAME, ["é", "名前", "Foo"])
    assert not all_lexically_valid(NCNAME, ["é", "名 前"])
    assert all_lexically_valid(BOOLEAN, ["0", "1", "true"])
    assert not all_lexically_valid(BOOLEAN, ["0", ""])
    assert all_lexically_valid("dateTime", ["anything", "\n"])  # unchecked
