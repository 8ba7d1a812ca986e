import gc
import weakref
from pathlib import Path

import pytest

from xsgowl.xmldoc import (
    ParseError,
    XmlDocument,
    XmlName,
    attributes,
    parse_xml,
    text_content,
)
from randgen import random_document, random_text
from treeparse import TreeDocument, parse_tree, tree_of, tree_text
from xmlwrite import serialize_xml

DATA = Path(__file__).parent / "data"


def shape(node):
    """A tree as nested (local name, children) pairs, text runs as they are."""
    if isinstance(node, str):
        return node
    return (node.name.local, tuple(shape(c) for c in node.children))


def tree(data: bytes):
    return tree_of(parse_xml(data, "t"))


def positions(root) -> list[tuple[int, int]]:
    return [el.source_position for el in TreeDocument(root, "t").iter_elements()]


def assert_agrees_with_oracle(data: bytes):
    """The ElementTree document has the oracle's element names in preorder,
    attribute pairs in order, kept text runs and positions, and each
    element reads the same text and attributes through the helpers."""
    expected = parse_tree(data, "t")
    doc = parse_xml(data, "t")
    got = tree_of(doc)
    assert got == expected.root
    assert positions(got) == positions(expected.root)
    for el, old in zip(doc.iter_elements(), expected.iter_elements(), strict=True):
        assert text_content(el) == tree_text(old)
        assert attributes(el) == [(n.local, v) for n, v in old.attributes if not n.is_ns_decl]


def test_minimal_document():
    for data in (b"<a/>", b"<a></a>"):
        doc = parse_xml(data, "t")
        assert doc.root.tag.local == "a"
        assert doc.root.items() == []
        assert len(doc.root) == 0 and doc.root.text is None


def test_bibliography_root(bibliography_xml):
    doc = parse_xml(bibliography_xml, "bibliography.xml")
    root = doc.root
    assert root.tag.local == "bibliography"
    assert attributes(root) == [("id", "personal_identity")]
    entries = list(root)
    assert entries[0].tag.local == "biblioentry"
    assert ("id", "FHIW13C-1234") in attributes(entries[0])


def test_mixed_content_ordering():
    root = parse_xml(b"<a><b/>text</a>", "t").root
    assert root[0].tag.local == "b" and root[0].tail == "text"
    # a text run belongs to the element it is in, never to a neighbour's
    for data, expected in [
        (b"<a><b>x</b>y</a>", ("a", (("b", ("x",)), "y"))),
        (b"<a>x<b/>y</a>", ("a", ("x", ("b", ()), "y"))),
        (b"<a>x<b>y</b></a>", ("a", ("x", ("b", ("y",))))),
        (b"<a><b/>x<!--c-->y</a>", ("a", (("b", ()), "xy"))),
        (b"<a><b><c/>x</b>y<d>z</d></a>",
         ("a", (("b", (("c", ()), "x")), "y", ("d", ("z",))))),
    ]:
        assert shape(tree(data)) == expected, data


def test_whitespace_between_elements_discarded():
    assert shape(tree(b"<a>\n  <b/>\n  <c/>\n</a>")) == ("a", (("b", ()), ("c", ())))
    assert shape(tree(b"<a><b>x</b> \t <c> </c></a>")) == ("a", (("b", ("x",)), ("c", ())))
    doc = parse_xml(b"<a>x<b/> <c/>y</a>", "t")
    assert text_content(doc.root) == "xy"


def test_comments_and_pis_discarded_text_coalesced():
    assert tree(b"<a>one<!-- gone -->two<?pi data?>three</a>").children == ("onetwothree",)


def test_long_text_run_coalesced():
    # a run of many lines outgrows the parser's text buffer, which then
    # hands it over in several pieces
    assert parse_xml(b"<a>" + b"line\n" * 5000 + b"</a>", "t").root.text == "line\n" * 5000


def test_prefixes_kept_syntactically():
    doc = parse_xml(b'<x:a xmlns:x="urn:u" x:k="v"/>', "t")
    assert doc.root.tag.prefix == "x"
    assert doc.root.tag.local == "a"
    assert doc.root.tag == "x:a"
    assert doc.root.items() == [("xmlns:x", "urn:u"), ("x:k", "v")]
    assert attributes(doc.root) == [("k", "v")]


def test_namespace_declarations_are_not_attributes():
    root = parse_xml(b'<a xmlns="urn:d" xmlns:p="urn:p" p:id="1" q:id="2" id="3"/>', "t").root
    # p:id and q:id are both an attribute id, in document order
    assert attributes(root) == [("id", "1"), ("id", "2"), ("id", "3")]


def test_predefined_entities():
    doc = parse_xml(b"<a>&lt;&amp;&gt;&quot;&apos;</a>", "t")
    assert text_content(doc.root) == "<&>\"'"


def test_source_positions():
    doc = parse_xml(b"<a>\n  <b/>\n</a>", "t")
    assert doc.position(doc.root[0])[0] == 2
    doc = parse_xml(b"<a><b>x</b><c/>\n <d/></a>", "t")
    assert doc.position(doc.root) == (1, 1)
    assert [doc.position(c) for c in doc.root] == [(1, 4), (1, 12), (2, 2)]


def test_position_of_an_element_without_record():
    doc = parse_xml(b"<a><b/></a>", "t")
    other = parse_xml(b"<a><b/></a>", "t")
    assert doc.position(other.root[0]) == (0, 0)
    hand_built = XmlDocument(other.root, "h")
    assert hand_built.position(other.root) == (0, 0)


def test_names_shared_within_a_parse():
    root = parse_xml(b'<r><a x="1"/><a x="2"/></r>', "t").root
    first, second = list(root)
    assert first.tag is second.tag
    assert isinstance(first.tag, XmlName)
    assert first.keys()[0] is second.keys()[0]


def test_tree_freed_with_its_document():
    # no reference cycle may keep the tree until the cyclic collector runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = parse_xml(b"<r><a>1</a></r>", "t")
        root = weakref.ref(doc.root)
        del doc
        assert root() is None
    finally:
        if enabled:
            gc.enable()


def records(n: int) -> bytes:
    rows = "".join(f'<rec id="r{i}"><name>n{i}</name><val>{i}</val></rec>\n'
                   for i in range(n))
    return f"<root>\n{rows}</root>\n".encode()


@pytest.mark.parametrize("n", [1000, 10000])
def test_parse_tracks_one_object_per_element(n):
    # the collector scans what a parse leaves: the elements themselves and
    # a constant, with no tuple, dict, list or dataclass per element
    data = records(n)
    gc.collect()
    before = len(gc.get_objects())
    doc = parse_xml(data, "t")
    gc.collect()
    added = len(gc.get_objects()) - before
    elements = sum(1 for _ in doc.iter_elements())
    assert elements == 3 * n + 1
    assert added <= elements + 20, added - elements


def test_text_content_single_run():
    doc = parse_xml(b"<pubdate>1977</pubdate>", "t")
    assert text_content(doc.root) == "1977"


def test_text_content_empty():
    doc = parse_xml(b"<a><b/></a>", "t")
    assert text_content(doc.root) == ""


def test_text_content_concatenation():
    doc = parse_xml(b"<t>a<x/>b</t>", "t")
    assert text_content(doc.root) == "ab"


@pytest.mark.parametrize("bad", [
    b"<a><b></a>",
    b"<a",
    b"<a x='1' x='2'/>",
    b"<a>&undefined;</a>",
    b"<a/><b/>",
    b"\x00<a/>",
])
def test_malformed_raises(bad):
    with pytest.raises(ParseError):
        parse_xml(bad, "t")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_xml(b"<a>\n<b></a>", "t")
    assert err.value.line == 2


def test_doctype_rejected():
    with pytest.raises(ParseError, match="DTD"):
        parse_xml(b"<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>", "t")


def test_cdata_rejected():
    with pytest.raises(ParseError, match="CDATA"):
        parse_xml(b"<a><![CDATA[x]]></a>", "t")


def test_non_utf8_encoding_rejected():
    with pytest.raises(ParseError, match="encoding"):
        parse_xml(b"<?xml version='1.0' encoding='ISO-8859-1'?><a/>", "t")


def test_colon_only_names_rejected():
    with pytest.raises(ParseError):
        parse_xml(b"<a:/>", "t")


def test_deterministic():
    data = b'<a k="v"><b/>text<c x="1"/></a>'
    assert tree(data) == tree(data)


# ---------------------------------------------------------------------------
# agreement with the tree-building oracle (tests/treeparse.py)

EDGE_CASES = [
    b"<a/>",
    b"<a></a>",
    b"<a> </a>",
    b"<a>\n\t \r\n</a>",
    b"<a>" + b"line\n" * 5000 + b"</a>",
    b"<a>" + b"x" * 20000 + b"<b/>" + b"y" * 20000 + b"</a>",
    b"<a><b/>" + b"t&amp;\n" * 3000 + b"<c/></a>",
    b"<a>x&#13;y&#10;z</a>",
    b'<a k="a&#10;b&#13;c&#9;d"/>',
    b"<a>&#13;</a>",
    b"<a>one<!-- gone -->two<?pi data?>three</a>",
    b"<a><!-- c --> <b/> <?pi?> </a>",
    b"<a>x<!-- c -->  <b/>  <!-- c -->y</a>",
    b'<?xml version="1.0" encoding="UTF-8"?>\n<!-- before -->\n<a/>\n<!-- after -->\n',
    b'<?xml version="1.0" encoding="ascii"?><a>x</a>',
    b'<x:a xmlns:x="urn:u" x:k="v"><x:b/></x:a>',
    b'<a xmlns="urn:d"><b xmlns="">t</b></a>',
    b'<a xmlns:p="urn:p" xmlns:q="urn:q" p:id="1" q:id="2" id="3"/>',
    b"<a>x<b/>y<c>z</c>w</a>",
    b"<a>x<b/> <c/>y</a>",
    b"<p>one <em>two</em>\n<em>three</em> four</p>",
    b"<a><b>x</b>  y  <c/></a>",
    b"<a>\n  <b>1</b>\n  <b>2</b>\n</a>",
    b"<a>&lt;&amp;&gt;&quot;&apos;</a>",
    "<a é='ü'>ö<b>€</b>𝄞</a>".encode(),
    b"<a>\n<b\n  k='1'\n/>\n   <c/></a>",
    b"<r>" + b"<a>" * 200 + b"x" + b"</a>" * 200 + b"</r>",
    b'<a b="1" c="2" d="3" e="4"><b/><c/><b/></a>',
]


@pytest.mark.parametrize("data", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_agrees_with_oracle_on_edge_cases(data):
    assert_agrees_with_oracle(data)


def test_agrees_with_oracle_on_data_files():
    files = sorted(DATA.glob("*.xml")) + sorted(DATA.glob("*.xsd"))
    assert len(files) >= 4
    for path in files:
        assert_agrees_with_oracle(path.read_bytes())


def test_agrees_with_oracle_on_random_documents():
    for seed in range(100):
        assert_agrees_with_oracle(random_text(seed))


MALFORMED = [
    b"<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>",
    b"<a>\n  <![CDATA[x]]></a>",
    b"<?xml version='1.0' encoding='ISO-8859-1'?><a/>",
    b"<a>\n <a:b:c/></a>",
    b"<:a/>",
    b"<a:/>",
    b"<r><a x:y:z='1'/></r>",
    b"<r>\n  <a:b:c :k='1'/></r>",
    b"<a><b>",
    b"<a><b></a>",
    b"<a>&undefined;</a>",
    b"<a x='1' x='2'/>",
    b"<a/><b/>",
    b"",
]


@pytest.mark.parametrize("data", MALFORMED, ids=range(len(MALFORMED)))
def test_same_parse_errors_as_oracle(data):
    with pytest.raises(ParseError) as expected:
        parse_tree(data, "t")
    with pytest.raises(ParseError) as got:
        parse_xml(data, "t")
    assert (got.value.line, got.value.column, got.value.message) == (
        expected.value.line, expected.value.column, expected.value.message)


# ---------------------------------------------------------------------------
# tests/xmlwrite.py round trips, compared as trees


def test_round_trip_fixed_point(bibliography_xml):
    doc = tree_of(parse_xml(bibliography_xml, "t"))
    once = tree(serialize_xml(TreeDocument(doc, "t")).encode())
    assert once == doc


def test_round_trip_fixed_point_random():
    for seed in range(40):
        doc = tree_of(random_document(seed))
        again = tree(serialize_xml(TreeDocument(doc, "t")).encode())
        assert again == doc, f"seed {seed}"


def test_round_trip_whitespace_references():
    # character references keep tab, newline and carriage return in an
    # attribute value, and carriage return in text, from being normalized
    doc = parse_xml(b'<r k="a&#10;b&#13;c&#9;d">x&#13;y</r>', "t")
    assert doc.root.get("k") == "a\nb\rc\td" and doc.root.text == "x\ry"
    once = tree_of(doc)
    assert tree(serialize_xml(TreeDocument(once, "t")).encode()) == once


def test_round_trip_deep():
    # compared as text: the dataclass `__eq__` of a deep tree recurses
    depth = 5000
    text = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            + '<a n="1 &amp; 2">x&lt;' * depth + "<b/>" + "</a>" * depth + "\n")
    doc = TreeDocument(tree(text.encode()), "t")
    assert serialize_xml(doc) == text
    again = TreeDocument(tree(serialize_xml(doc).encode()), "t")
    assert serialize_xml(again) == text
