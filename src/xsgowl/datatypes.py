"""Built-in datatype lattice used for value classification and merging.

The lattice covers the five types a value can be classified as:

    boolean   integer
       \\         |
        \\     decimal     NCName
         \\       |       /
          ------ string --

string is the top; integer < decimal < string; boolean and NCName sit
directly below string. The join of any two order-incomparable types is
string. Classification is deliberately conservative: boolean matches only
the literal "true"/"false" so numeric 0/1 stay integers, and nothing
richer than these five is attempted (dates, IDs and the like would be
false precision on small samples).
"""

from __future__ import annotations

import re

BOOLEAN = "boolean"
INTEGER = "integer"
DECIMAL = "decimal"
NCNAME = "NCName"
STRING = "string"

#: Lattice members, most specific first (classification probe order).
LATTICE_TYPES = (BOOLEAN, INTEGER, DECIMAL, NCNAME, STRING)

# Strictly-below relation; string is implicit top for every member.
_BELOW = {
    BOOLEAN: {STRING},
    INTEGER: {DECIMAL, STRING},
    DECIMAL: {STRING},
    NCNAME: {STRING},
    STRING: set(),
}

_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)\Z")
_ASCII_NCNAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9._-]*\Z")
# XML 1.0 (fifth edition) NameStartChar without ":", and NameChar; apart
# from ".", a NameChar is exactly a character of Turtle's PN_CHARS. Patterns
# with these classes are compiled on first use, through re's cache: they
# take milliseconds to compile, and most names are ASCII.
NAME_START_CHARS = (
    "A-Z_a-z\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u02ff\u0370-\u037d"
    "\u037f-\u1fff\u200c-\u200d\u2070-\u218f\u2c00-\u2fef\u3001-\ud7ff"
    "\uf900-\ufdcf\ufdf0-\ufffd\U00010000-\U000effff"
)
NAME_CHARS = NAME_START_CHARS + "\\-.0-9\u00b7\u0300-\u036f\u203f-\u2040"
_NCNAME = f"[{NAME_START_CHARS}][{NAME_CHARS}]*\\Z"


def is_ncname(value: str) -> bool:
    """Non-colonized name: an XML NameStartChar (a letter or underscore),
    then NameChars (also digits, hyphens, periods, combining marks and the
    like); no colon, no whitespace."""
    if value.isascii():
        return _ASCII_NCNAME_RE.match(value) is not None
    return re.match(_NCNAME, value) is not None


def infer_datatype(value: str) -> str:
    """Classify a lexical value as the most specific lattice type."""
    if value in ("true", "false"):
        return BOOLEAN
    if _INTEGER_RE.match(value):
        return INTEGER
    if _DECIMAL_RE.match(value):
        return DECIMAL
    if is_ncname(value):
        return NCNAME
    return STRING


def join_datatype(a: str, b: str) -> str:
    """Least upper bound of two lattice types."""
    if a == b:
        return a
    if b in _BELOW[a]:
        return b
    if a in _BELOW[b]:
        return a
    return STRING


# Lexical validity per XSD built-in, for the structural validator and for
# ABox literals. Types without an entry are accepted unchecked (facet
# checking beyond the lexical match is out of scope). xs:boolean's full
# lexical space includes 0/1 even though classification does not use them.
_LEXICAL = {
    BOOLEAN: lambda v: v in ("true", "false", "0", "1"),
    INTEGER: lambda v: bool(_INTEGER_RE.match(v)),
    DECIMAL: lambda v: bool(_INTEGER_RE.match(v)) or bool(_DECIMAL_RE.match(v)),
    NCNAME: is_ncname,
    STRING: lambda v: True,
}

# Integer-family aliases share xs:integer's lexical check (sign + digits is
# a sound superset for each bounded variant).
for _alias in (
    "long", "int", "short", "byte",
    "nonNegativeInteger", "positiveInteger",
    "nonPositiveInteger", "negativeInteger",
    "unsignedLong", "unsignedInt", "unsignedShort", "unsignedByte",
):
    _LEXICAL[_alias] = _LEXICAL[INTEGER]


def lexically_valid(value: str, datatype: str) -> bool:
    check = _LEXICAL.get(datatype)
    return True if check is None else check(value)
