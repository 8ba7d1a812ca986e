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
false precision on small samples). One regular-expression match classifies
a value: the group that matched (integer, decimal or ASCII NCName) is its
type, and only a non-ASCII value that none matches is tried as a name.
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

_INTEGER = r"[+-]?[0-9]+"
_DECIMAL = r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)"
_ASCII_NCNAME = r"[A-Za-z_][A-Za-z0-9._-]*"
# only integer and decimal share a first character; integer is tried first
_CLASSIFY = re.compile(f"(?:({_INTEGER})|({_DECIMAL})|({_ASCII_NCNAME}))\\Z").match
_CLASSIFIED = (None, INTEGER, DECIMAL, NCNAME)  # by group number
_ASCII_NCNAME_RE = re.compile(_ASCII_NCNAME + r"\Z")
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
    m = _CLASSIFY(value)
    if m is not None:
        return _CLASSIFIED[m.lastindex]
    # no ASCII name, but possibly a non-ASCII one
    return NCNAME if not value.isascii() and is_ncname(value) else STRING


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
# Each check returns a match (or a bool), truthy when the value is valid.
_LEXICAL = {
    BOOLEAN: re.compile(r"(?:true|false|0|1)\Z").match,
    INTEGER: re.compile(_INTEGER + r"\Z").match,
    DECIMAL: re.compile(f"(?:{_INTEGER}|{_DECIMAL})\\Z").match,
    NCNAME: is_ncname,
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


def lexical_check(datatype: str):
    """The check of a built-in's lexical space, by local name: a function
    of a value that returns something truthy exactly when the value is
    valid. None when the type's values are accepted unchecked."""
    return _LEXICAL.get(datatype)


def lexically_valid(value: str, datatype: str) -> bool:
    check = _LEXICAL.get(datatype)
    return True if check is None else bool(check(value))
