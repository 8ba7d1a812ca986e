"""Ordered XML document trees built on the stdlib expat parser.

Trees keep exactly what downstream inference needs: element names with
their syntactic prefixes (no namespace-URI resolution), attributes in
document order, and child elements interleaved with text runs. Comments,
processing instructions and the XML declaration are discarded, as are
whitespace-only text runs; text inside mixed content is preserved and
adjacent runs are coalesced.

`parse_xml` keeps the children of every open element in one flat list,
in document order. An end tag turns its element's slice of that list into
the element's children and puts the finished element in its place.

Out of scope by design: DTDs (and with them any non-predefined entity),
CDATA sections, and non-UTF-8 encodings. All are rejected with a
ParseError rather than silently accepted.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field


class ParseError(Exception):
    """Malformed or unsupported XML input."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class XmlName:
    prefix: str | None
    local: str
    # an xmlns or xmlns:* attribute name; set once, as every attribute asks
    is_ns_decl: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_ns_decl", self.prefix == "xmlns" or (
            self.prefix is None and self.local == "xmlns"))

    def __str__(self) -> str:
        return self.local if self.prefix is None else f"{self.prefix}:{self.local}"


@dataclass(frozen=True)
class XmlElement:
    name: XmlName
    attributes: tuple[tuple[XmlName, str], ...]
    children: tuple["XmlElement | str", ...]
    source_position: tuple[int, int] = field(compare=False, default=(0, 0))

    def attribute(self, local: str) -> str | None:
        """Value of the first attribute with this local name, if any;
        namespace declarations (xmlns, xmlns:*) are not attributes."""
        for name, value in self.attributes:
            if name.local == local and not name.is_ns_decl:
                return value
        return None

    def child_elements(self) -> list["XmlElement"]:
        return [c for c in self.children if isinstance(c, XmlElement)]


@dataclass(frozen=True)
class XmlDocument:
    root: XmlElement
    source_id: str

    def iter_elements(self):
        """All elements in document (preorder) order."""
        stack = [self.root]
        while stack:
            el = stack.pop()
            yield el
            stack.extend(reversed(el.child_elements()))


def text_content(e: XmlElement) -> str:
    """Concatenated direct text runs, trimmed of surrounding whitespace."""
    children = e.children
    if len(children) == 1 and isinstance(children[0], str):
        return children[0].strip()  # a text leaf: one run, nothing to join
    return "".join([c for c in children if isinstance(c, str)]).strip()


def _split_name(raw: str, pos: tuple[int, int]) -> XmlName:
    if ":" not in raw:
        return XmlName(None, raw)
    prefix, local = raw.split(":", 1)
    if not prefix or not local or ":" in local:
        raise ParseError(pos[0], pos[1], f"illegal name {raw!r}")
    return XmlName(prefix, local)


def parse_xml(data: bytes, source_id: str) -> XmlDocument:
    """Parse UTF-8 XML bytes into a document tree.

    Raises ParseError on anything malformed: unbalanced tags, duplicate
    attributes, undefined entities, illegal characters, or the rejected
    constructs listed in the module docstring.
    """
    parser = xml.parsers.expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True
    flat: list[XmlElement | str] = []  # the children of every open element
    # per open element: its name, attributes, position and where in `flat`
    # its children start
    opens: list[tuple[XmlName, tuple, tuple[int, int], int]] = []
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

    def intern(raw: str, pos: tuple[int, int]) -> XmlName:
        name = names.get(raw)
        if name is None:
            name = names[raw] = _split_name(raw, pos)
        return name

    def start(raw_name, raw_attrs):
        pos = (parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
        attrs = ()
        if raw_attrs:
            attrs = tuple([(intern(raw, pos), value) for raw, value
                           in zip(raw_attrs[::2], raw_attrs[1::2])])
        opens.append((names.get(raw_name) or intern(raw_name, pos), attrs, pos, len(flat)))

    def text(data):
        # coalesce a run that outgrew expat's text buffer, which hands it
        # over in pieces (comments and PIs, having no handler, split none),
        # but never with a run outside the open element
        if len(flat) > opens[-1][3] and isinstance(flat[-1], str):
            flat[-1] += data
        else:
            flat.append(data)

    def end(raw_name):
        name, attrs, pos, first = opens.pop()
        if len(flat) - first == 1 and isinstance(flat[-1], str):  # a text leaf
            run = flat[-1]
            flat[-1] = XmlElement(name, attrs, (run,) if run.strip() else (), pos)
        else:
            kept = tuple([c for c in flat[first:] if not isinstance(c, str) or c.strip()])
            flat[first:] = (XmlElement(name, attrs, kept, pos),)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
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
        # that cycle frees the parser and `flat` on return, so the tree
        # lives exactly as long as the document, not until the next full
        # garbage collection.
        parser = None
    return XmlDocument(flat[0], source_id)

