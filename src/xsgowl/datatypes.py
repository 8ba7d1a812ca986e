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

A list of values is classified, or checked against a built-in, as a whole:
`join_inferred` is the join of each value's type, and `all_lexically_valid`
tells whether every value is valid. Each matches one pattern against the
values joined by line feeds (1024 values at a time), a pattern that every
value must match. The booleans are a set inclusion test instead, a value
that holds a line feed is a string (and no checked type's), and non-ASCII
values, which only a name can be, go through `is_ncname`.
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


_BOOLEANS = frozenset(("true", "false"))


def infer_datatype(value: str) -> str:
    """Classify a lexical value as the most specific lattice type."""
    if value in _BOOLEANS:
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
_BOOLEAN_LEXICAL = frozenset(("true", "false", "0", "1"))
_NUMBER = f"{_INTEGER}|{_DECIMAL}"
_LEXICAL = {
    BOOLEAN: _BOOLEAN_LEXICAL.__contains__,
    INTEGER: re.compile(_INTEGER + r"\Z").match,
    DECIMAL: re.compile(f"(?:{_NUMBER})\\Z").match,
    NCNAME: is_ncname,
}


def _all(pattern: str) -> str:
    """A pattern for values that each match `pattern`, joined by line feeds
    (no pattern here matches a line feed)."""
    return f"(?:(?:{pattern})\n)*(?:{pattern})\\Z"


# The checks of _LEXICAL but boolean's, over values joined by line feeds (an
# ASCII name for NCName); and classification's three groups so.
_LEXICAL_ALL = {
    INTEGER: re.compile(_all(_INTEGER)).match,
    DECIMAL: re.compile(_all(_NUMBER)).match,
    NCNAME: re.compile(_all(_ASCII_NCNAME)).match,
}
_CLASSIFY_ALL = re.compile(
    f"({_all(_INTEGER)})|({_all(_NUMBER)})|({_all(_ASCII_NCNAME)})"
).match

# Integer-family aliases share xs:integer's lexical check (sign + digits is
# a sound superset for each bounded variant).
for _alias in (
    "long", "int", "short", "byte",
    "nonNegativeInteger", "positiveInteger",
    "nonPositiveInteger", "negativeInteger",
    "unsignedLong", "unsignedInt", "unsignedShort", "unsignedByte",
):
    _LEXICAL[_alias] = _LEXICAL[INTEGER]
    _LEXICAL_ALL[_alias] = _LEXICAL_ALL[INTEGER]


def lexical_check(datatype: str):
    """The check of a built-in's lexical space, by local name: a function
    of a value that returns something truthy exactly when the value is
    valid. None when the type's values are accepted unchecked."""
    return _LEXICAL.get(datatype)


# sre keeps backtracking state for each repetition of a group, so a match
# covers at most this many values: about 240 kB of it at most.
_CHUNK = 1024


def _chunks(values: list[str]):
    """The values, at most _CHUNK at a time, each chunk with its values
    joined by line feeds; None for the text when one of the values holds a
    line feed, which no checked type and no classification but string
    allows."""
    for i in range(0, len(values), _CHUNK):
        chunk = values[i:i + _CHUNK]
        joined = "\n".join(chunk)
        yield chunk, joined if joined.count("\n") < len(chunk) else None


def join_inferred(values: list[str]) -> str | None:
    """`infer_datatype` of each value, joined: the most specific lattice
    type of them all, None for no values. Booleans are decided by set
    inclusion and the rest by one match over the distinct values (per
    chunk of them)."""
    if len(values) <= 1:
        return infer_datatype(values[0]) if values else None
    distinct = set(values)
    booleans = _BOOLEANS.intersection(distinct)
    if booleans:
        return BOOLEAN if len(booleans) == len(distinct) else STRING
    joined_type = None
    for chunk, joined in _chunks(list(distinct)):
        if joined is None:
            return STRING
        if not joined.isascii():  # nothing but a name holds other characters
            t = NCNAME if all(map(is_ncname, chunk)) else STRING
        else:
            m = _CLASSIFY_ALL(joined)
            t = STRING if m is None else _CLASSIFIED[m.lastindex]
        joined_type = t if joined_type is None else join_datatype(joined_type, t)
    return joined_type


def all_lexically_valid(datatype: str, values: list[str]) -> bool:
    """Whether `lexical_check(datatype)` accepts every value: by set
    inclusion for booleans, and by one match over the values (per chunk of
    them) for the other checked types. Unlike `join_inferred` it does not
    drop repeats first: a model's literals seldom repeat, and hashing them
    costs more than a longer match."""
    if datatype == BOOLEAN:
        return _BOOLEAN_LEXICAL.issuperset(values)
    check = _LEXICAL_ALL.get(datatype)
    if check is None:
        return True  # unchecked
    for chunk, joined in _chunks(values):
        if joined is None:
            return False
        if datatype == NCNAME and not joined.isascii():
            if not all(map(is_ncname, chunk)):
                return False
        elif check(joined) is None:
            return False
    return True
