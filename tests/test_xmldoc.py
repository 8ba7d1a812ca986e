import gc
import weakref

import pytest

from xsgowl.xmldoc import (
    ParseError,
    XmlElement,
    parse_xml,
    text_content,
)
from randgen import random_document
from xmlwrite import serialize_xml


def shape(node):
    """A tree as nested (local name, children) pairs, text runs as they are."""
    if isinstance(node, str):
        return node
    return (node.name.local, tuple(shape(c) for c in node.children))


def test_minimal_document():
    for data in (b"<a/>", b"<a></a>"):
        doc = parse_xml(data, "t")
        assert doc.root.name.local == "a"
        assert doc.root.attributes == ()
        assert doc.root.children == ()


def test_bibliography_root(bibliography_xml):
    doc = parse_xml(bibliography_xml, "bibliography.xml")
    root = doc.root
    assert root.name.local == "bibliography"
    assert [(n.local, v) for n, v in root.attributes] == [("id", "personal_identity")]
    entries = root.child_elements()
    assert entries[0].name.local == "biblioentry"
    assert entries[0].attribute("id") == "FHIW13C-1234"


def test_mixed_content_ordering():
    doc = parse_xml(b"<a><b/>text</a>", "t")
    kids = doc.root.children
    assert isinstance(kids[0], XmlElement) and kids[0].name.local == "b"
    assert kids[1] == "text"
    # a text run belongs to the element it is in, never to a neighbour's
    for data, expected in [
        (b"<a><b>x</b>y</a>", ("a", (("b", ("x",)), "y"))),
        (b"<a>x<b/>y</a>", ("a", ("x", ("b", ()), "y"))),
        (b"<a>x<b>y</b></a>", ("a", ("x", ("b", ("y",))))),
        (b"<a><b/>x<!--c-->y</a>", ("a", (("b", ()), "xy"))),
        (b"<a><b><c/>x</b>y<d>z</d></a>",
         ("a", (("b", (("c", ()), "x")), "y", ("d", ("z",))))),
    ]:
        assert shape(parse_xml(data, "t").root) == expected, data


def test_whitespace_between_elements_discarded():
    doc = parse_xml(b"<a>\n  <b/>\n  <c/>\n</a>", "t")
    assert [c.name.local for c in doc.root.children] == ["b", "c"]
    doc = parse_xml(b"<a><b>x</b> \t <c> </c></a>", "t")
    assert shape(doc.root) == ("a", (("b", ("x",)), ("c", ())))


def test_comments_and_pis_discarded_text_coalesced():
    doc = parse_xml(b"<a>one<!-- gone -->two<?pi data?>three</a>", "t")
    assert doc.root.children == ("onetwothree",)


def test_long_text_run_coalesced():
    # a run of many lines outgrows the parser's text buffer, which then
    # hands it over in several pieces
    doc = parse_xml(b"<a>" + b"line\n" * 5000 + b"</a>", "t")
    assert doc.root.children == ("line\n" * 5000,)


def test_prefixes_kept_syntactically():
    doc = parse_xml(b'<x:a xmlns:x="urn:u" x:k="v"/>', "t")
    assert doc.root.name.prefix == "x"
    assert doc.root.name.local == "a"
    locals_ = {n.local for n, _ in doc.root.attributes}
    assert "k" in locals_


def test_predefined_entities():
    doc = parse_xml(b"<a>&lt;&amp;&gt;&quot;&apos;</a>", "t")
    assert text_content(doc.root) == "<&>\"'"


def test_source_positions():
    doc = parse_xml(b"<a>\n  <b/>\n</a>", "t")
    b = doc.root.child_elements()[0]
    assert b.source_position[0] == 2
    doc = parse_xml(b"<a><b>x</b><c/>\n <d/></a>", "t")
    assert doc.root.source_position == (1, 1)
    assert [c.source_position for c in doc.root.children] == [(1, 4), (1, 12), (2, 2)]


def test_names_shared_within_a_parse():
    root = parse_xml(b'<r><a x="1"/><a x="2"/></r>', "t").root
    first, second = root.child_elements()
    assert first.name is second.name
    assert first.attributes[0][0] is second.attributes[0][0]


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
    assert parse_xml(data, "t") == parse_xml(data, "t")


def test_round_trip_fixed_point(bibliography_xml):
    doc = parse_xml(bibliography_xml, "t")
    once = parse_xml(serialize_xml(doc).encode(), "t")
    assert once == doc


def test_round_trip_fixed_point_random():
    for seed in range(40):
        doc = random_document(seed)
        again = parse_xml(serialize_xml(doc).encode(), doc.source_id)
        assert again == doc, f"seed {seed}"


def test_round_trip_whitespace_references():
    # character references keep tab, newline and carriage return in an
    # attribute value, and carriage return in text, from being normalized
    doc = parse_xml(b'<r k="a&#10;b&#13;c&#9;d">x&#13;y</r>', "t")
    assert doc.root.attribute("k") == "a\nb\rc\td" and doc.root.children == ("x\ry",)
    assert parse_xml(serialize_xml(doc).encode(), "t") == doc


def test_round_trip_deep():
    # compared as text: the dataclass `__eq__` of a deep tree recurses
    depth = 5000
    text = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            + '<a n="1 &amp; 2">x&lt;' * depth + "<b/>" + "</a>" * depth + "\n")
    doc = parse_xml(text.encode(), "t")
    assert serialize_xml(doc) == text
    again = parse_xml(serialize_xml(doc).encode(), "t")
    assert serialize_xml(again) == text
