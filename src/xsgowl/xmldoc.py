"""Ordered XML document trees built on the stdlib expat parser.

Trees keep exactly what downstream inference needs: element names with
their syntactic prefixes (no namespace-URI resolution), attributes in
document order, and child elements interleaved with text runs. Comments,
processing instructions and the XML declaration are discarded, as are
whitespace-only text runs; text inside mixed content is preserved and
adjacent runs are coalesced.

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


class _Frame:
    __slots__ = ("name", "attrs", "children", "pos")

    def __init__(self, name, attrs, pos):
        self.name = name
        self.attrs = attrs
        self.children: list[XmlElement | str] = []
        self.pos = pos


class _TreeBuilder:
    def __init__(self):
        self.parser = xml.parsers.expat.ParserCreate()
        self.parser.ordered_attributes = True
        self.parser.buffer_text = True
        self.parser.StartElementHandler = self.start
        self.parser.EndElementHandler = self.end
        self.parser.CharacterDataHandler = self.text
        self.parser.XmlDeclHandler = self.decl
        self.parser.StartDoctypeDeclHandler = self.doctype
        self.parser.StartCdataSectionHandler = self.cdata
        self.stack: list[_Frame] = []
        self.root: XmlElement | None = None
        # one XmlName per distinct raw name, shared by every use in the parse
        self.names: dict[str, XmlName] = {}

    def pos(self) -> tuple[int, int]:
        return (self.parser.CurrentLineNumber, self.parser.CurrentColumnNumber + 1)

    def decl(self, version, encoding, standalone):
        if encoding is not None and encoding.lower() not in ("utf-8", "ascii", "us-ascii"):
            raise ParseError(*self.pos(), f"unsupported encoding {encoding!r}")

    def doctype(self, *args):
        raise ParseError(*self.pos(), "DTDs are not supported")

    def cdata(self):
        raise ParseError(*self.pos(), "CDATA sections are not supported")

    def intern(self, raw: str, pos: tuple[int, int]) -> XmlName:
        name = self.names.get(raw)
        if name is None:
            name = self.names[raw] = _split_name(raw, pos)
        return name

    def start(self, raw_name, raw_attrs):
        parser = self.parser
        pos = (parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
        attrs = ()
        if raw_attrs:
            intern = self.intern
            attrs = tuple([(intern(raw, pos), value) for raw, value
                           in zip(raw_attrs[::2], raw_attrs[1::2])])
        name = self.names.get(raw_name) or self.intern(raw_name, pos)
        self.stack.append(_Frame(name, attrs, pos))

    def text(self, data):
        children = self.stack[-1].children
        # coalesce a run that outgrew expat's text buffer, which hands it
        # over in pieces (comments and PIs, having no handler, split none)
        if children and isinstance(children[-1], str):
            children[-1] += data
        else:
            children.append(data)

    def end(self, raw_name):
        frame = self.stack.pop()
        children = frame.children
        if len(children) == 1 and isinstance(children[0], str):
            kept = (children[0],) if children[0].strip() else ()  # a text leaf
        else:
            kept = tuple([c for c in children if not isinstance(c, str) or c.strip()])
        element = XmlElement(frame.name, frame.attrs, kept, frame.pos)
        if self.stack:
            self.stack[-1].children.append(element)
        else:
            self.root = element


def parse_xml(data: bytes, source_id: str) -> XmlDocument:
    """Parse UTF-8 XML bytes into a document tree.

    Raises ParseError on anything malformed: unbalanced tags, duplicate
    attributes, undefined entities, illegal characters, or the rejected
    constructs listed in the module docstring.
    """
    builder = _TreeBuilder()
    parser = builder.parser
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise ParseError(
            parser.ErrorLineNumber,
            parser.ErrorColumnNumber + 1,
            xml.parsers.expat.errors.messages[parser.ErrorCode],
        ) from None
    finally:
        # The parser's handlers are bound to the builder, which holds the
        # parser and the tree. Breaking that cycle frees the builder on
        # return, so the tree lives exactly as long as the document, not
        # until the next full garbage collection.
        builder.parser = None
    assert builder.root is not None
    return XmlDocument(builder.root, source_id)


def _escape_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(s: str) -> str:
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
    )


def serialize_xml(doc: XmlDocument) -> str:
    """Write the tree back as XML text (attribute order preserved), on an
    explicit stack of open elements, so no depth runs out of frames."""
    out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    stack = [(None, iter((doc.root,)))]  # the root's frame writes no tags
    while stack:
        parent, children = stack[-1]
        for child in children:
            if isinstance(child, str):
                out.append(_escape_text(child))
                continue
            out.append(f"<{child.name}")
            for name, value in child.attributes:
                out.append(f' {name}="{_escape_attr(value)}"')
            if child.children:  # resume `children` after the child's end tag
                out.append(">")
                stack.append((child, iter(child.children)))
                break
            out.append("/>")
        else:
            stack.pop()
            if parent is not None:
                out.append(f"</{parent.name}>")
    out.append("\n")
    return "".join(out)
