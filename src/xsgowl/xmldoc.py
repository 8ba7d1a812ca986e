"""XML documents read by the stdlib expat parser into ElementTree trees.

`parse_xml` returns an `XmlDocument` whose `root` is an
`xml.etree.ElementTree.Element`. Each tag is an `XmlName`: the raw name
with its syntactic prefix split off (no namespace-URI resolution), one
object per distinct name in a parse. Attribute keys are the raw names as
plain strings, in document order, so attribute dicts hold nothing the
garbage collector tracks. Text is in each element's `text` and each
child's `tail`; comments, processing instructions and the XML declaration
are discarded, and a run they or expat's buffer split is one run.
Consumers read text through `text_content`, where whitespace-only runs
count as absent, and attributes through `attributes`, by local name and
without namespace declarations.

expat hands end tags and text straight to ElementTree's C tree builder;
the one Python handler, for start tags, checks names and records each
tag's (line, column) for `XmlDocument.position`. A hand-built tree with
XmlName tags, such as `Element(XmlName(None, "r"), {"id": "r1"})`, is a
document as `XmlDocument(root, source_id)`, at position (0, 0).

Out of scope by design: DTDs (and with them any non-predefined entity),
CDATA sections, and non-UTF-8 encodings. All are rejected with a
ParseError rather than silently accepted.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field
from xml.etree.ElementTree import Element, TreeBuilder


class ParseError(Exception):
    """Malformed or unsupported XML input."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class XmlName(str):
    """A raw element name, `prefix:local` or `local`, that is the raw
    string itself and carries its two parts."""

    __slots__ = ("prefix", "local")

    def __new__(cls, prefix: str | None, local: str):
        self = super().__new__(cls, local if prefix is None else f"{prefix}:{local}")
        self.prefix = prefix
        self.local = local
        return self


@dataclass(frozen=True)
class XmlDocument:
    root: Element
    source_id: str
    # each parsed element's start tag, packed as line << 32 | column
    positions: dict[Element, int] = field(default_factory=dict, repr=False, compare=False)

    def iter_elements(self):
        """All elements in document (preorder) order."""
        return self.root.iter()

    def position(self, el: Element) -> tuple[int, int]:
        """(line, column) of the element's start tag; (0, 0) for an element
        this parse did not make."""
        packed = self.positions.get(el, 0)
        return packed >> 32, packed & 0xFFFFFFFF


def text_content(el: Element) -> str:
    """Concatenated direct text runs but whitespace-only ones, trimmed of
    surrounding whitespace: empty exactly when the element has no text."""
    text = el.text
    if not len(el):  # a text leaf: one run, nothing to join
        return text.strip() if text else ""
    runs = [text] if text and not text.isspace() else []
    for child in el:
        tail = child.tail
        if tail and not tail.isspace():
            runs.append(tail)
    return "".join(runs).strip()


def attribute_name(raw: str) -> str | None:
    """The local name of an attribute by its raw name; None for a namespace
    declaration (xmlns, xmlns:*), which is not an attribute."""
    if ":" not in raw:
        return None if raw == "xmlns" else raw
    return None if raw.startswith("xmlns:") else raw[raw.find(":") + 1:]


def attributes(el: Element) -> list[tuple[str, str]]:
    """(local name, value) of each attribute in document order, without
    namespace declarations."""
    items = el.items()
    for raw, _ in items:
        if ":" in raw or raw == "xmlns":  # not every raw name is a local name
            return [(local, value) for raw, value in items
                    if (local := attribute_name(raw)) is not None]
    return items


def _split_name(raw: str, line: int, column: int) -> XmlName:
    if ":" not in raw:
        return XmlName(None, raw)
    prefix, local = raw.split(":", 1)
    if not prefix or not local or ":" in local:
        raise ParseError(line, column, f"illegal name {raw!r}")
    return XmlName(prefix, local)


def parse_xml(data: bytes, source_id: str) -> XmlDocument:
    """Parse UTF-8 XML bytes into a document.

    Raises ParseError on anything malformed: unbalanced tags, duplicate
    attributes, undefined entities, illegal characters, or the rejected
    constructs listed in the module docstring.
    """
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    builder = TreeBuilder()
    builder_start = builder.start
    positions: dict[Element, int] = {}
    names: dict[str, XmlName] = {}  # one XmlName per distinct raw name

    def position() -> tuple[int, int]:
        return (parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    def decl(version, encoding, standalone):
        if encoding is not None and encoding.lower() not in ("utf-8", "ascii", "us-ascii"):
            raise ParseError(*position(), f"unsupported encoding {encoding!r}")

    def doctype(*args):
        raise ParseError(*position(), "DTDs are not supported")

    def cdata():
        raise ParseError(*position(), "CDATA sections are not supported")

    def intern(raw: str, line: int, column: int) -> XmlName:
        name = names.get(raw)
        if name is None:
            name = names[raw] = _split_name(raw, line, column)
        return name

    def start(raw_name, raw_attrs):  # expat's attribute dict keeps document order
        line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
        for raw in raw_attrs:  # checks each distinct name once
            if raw not in names:
                intern(raw, line, column)
        name = names.get(raw_name) or intern(raw_name, line, column)
        positions[builder_start(name, raw_attrs)] = line << 32 | column

    parser.StartElementHandler = start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data
    parser.XmlDeclHandler = decl
    parser.StartDoctypeDeclHandler = doctype
    parser.StartCdataSectionHandler = cdata
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError:
        raise ParseError(
            parser.ErrorLineNumber,
            parser.ErrorColumnNumber + 1,
            xml.parsers.expat.errors.messages[parser.ErrorCode],
        ) from None
    finally:
        # The handlers close over the parser, which holds them. Breaking
        # that cycle frees the parser and the builder on return, so the
        # tree lives exactly as long as the document, not until the next
        # full garbage collection.
        parser = None
    return XmlDocument(builder.close(), source_id, positions)
