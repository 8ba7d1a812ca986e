"""The tree-building XML parser that `xsgowl.xmldoc.parse_xml` replaced,
kept as an oracle for it and as the tree type tests build inputs from.

`parse_tree`, `TreeElement`, `TreeName`, `TreeDocument` and `tree_text`
are the earlier `parse_xml`, `XmlElement`, `TreeName`, `XmlDocument` and
`text_content`, unchanged but for their names: one frozen dataclass per
element, its children a tuple of elements and text runs, whitespace-only
runs dropped and split runs coalesced. `tree_of` turns an ElementTree
document from `parse_xml` into the same shape, so the two parsers
compare with `==`.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field

from xsgowl.xmldoc import ParseError, XmlDocument


@dataclass(frozen=True)
class TreeName:
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
class TreeElement:
    name: TreeName
    attributes: tuple[tuple[TreeName, str], ...]
    children: tuple["TreeElement | str", ...]
    source_position: tuple[int, int] = field(compare=False, default=(0, 0))

    def attribute(self, local: str) -> str | None:
        """Value of the first attribute with this local name, if any;
        namespace declarations (xmlns, xmlns:*) are not attributes."""
        for name, value in self.attributes:
            if name.local == local and not name.is_ns_decl:
                return value
        return None

    def child_elements(self) -> list["TreeElement"]:
        return [c for c in self.children if isinstance(c, TreeElement)]


@dataclass(frozen=True)
class TreeDocument:
    root: TreeElement
    source_id: str

    def iter_elements(self):
        """All elements in document (preorder) order."""
        stack = [self.root]
        while stack:
            el = stack.pop()
            yield el
            stack.extend(reversed(el.child_elements()))


def tree_text(e: TreeElement) -> str:
    """Concatenated direct text runs, trimmed of surrounding whitespace."""
    children = e.children
    if len(children) == 1 and isinstance(children[0], str):
        return children[0].strip()  # a text leaf: one run, nothing to join
    return "".join([c for c in children if isinstance(c, str)]).strip()


def _split_name(raw: str, pos: tuple[int, int]) -> TreeName:
    if ":" not in raw:
        return TreeName(None, raw)
    prefix, local = raw.split(":", 1)
    if not prefix or not local or ":" in local:
        raise ParseError(pos[0], pos[1], f"illegal name {raw!r}")
    return TreeName(prefix, local)


def parse_tree(data: bytes, source_id: str) -> TreeDocument:
    """Parse UTF-8 XML bytes into a document tree.

    Raises ParseError on anything malformed: unbalanced tags, duplicate
    attributes, undefined entities, illegal characters, or the rejected
    constructs listed in the module docstring.
    """
    parser = xml.parsers.expat.ParserCreate()
    parser.ordered_attributes = True
    parser.buffer_text = True
    flat: list[TreeElement | str] = []  # the children of every open element
    # per open element: its name, attributes, position and where in `flat`
    # its children start
    opens: list[tuple[TreeName, tuple, tuple[int, int], int]] = []
    names: dict[str, TreeName] = {}  # one TreeName per distinct raw name

    def position() -> tuple[int, int]:
        return (parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    def decl(version, encoding, standalone):
        if encoding is not None and encoding.lower() not in ("utf-8", "ascii", "us-ascii"):
            raise ParseError(*position(), f"unsupported encoding {encoding!r}")

    def doctype(*args):
        raise ParseError(*position(), "DTDs are not supported")

    def cdata():
        raise ParseError(*position(), "CDATA sections are not supported")

    def intern(raw: str, pos: tuple[int, int]) -> TreeName:
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
            flat[-1] = TreeElement(name, attrs, (run,) if run.strip() else (), pos)
        else:
            kept = tuple([c for c in flat[first:] if not isinstance(c, str) or c.strip()])
            flat[first:] = (TreeElement(name, attrs, kept, pos),)

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
    return TreeDocument(flat[0], source_id)


def tree_of(doc: XmlDocument) -> TreeElement:
    """An ElementTree document's tree as TreeElements, with each element's
    recorded position and its text and tail runs that are not
    whitespace-only; built bottom-up on an explicit stack, so no depth
    runs out of frames."""
    built: dict[int, TreeElement] = {}
    stack = [(doc.root, False)]
    while stack:
        el, children_built = stack.pop()
        if not children_built:
            stack.append((el, True))
            stack.extend((child, False) for child in reversed(el))
            continue
        children = [el.text] if el.text and el.text.strip() else []
        for child in el:
            children.append(built.pop(id(child)))
            if child.tail and child.tail.strip():
                children.append(child.tail)
        attrs = tuple((_split_name(raw, (0, 0)), value) for raw, value in el.items())
        built[id(el)] = TreeElement(TreeName(el.tag.prefix, el.tag.local), attrs,
                                    tuple(children), doc.position(el))
    return built[id(doc.root)]
