import logging

import pytest

from xsgowl.datatypes import NCNAME, STRING
from xsgowl.infer import (
    RootMismatch,
    accumulate_profiles,
    infer_schema,
    profiles_to_schema,
)
from xsgowl.xmldoc import parse_xml
from xsgowl.xsdmodel import BuiltinRef, ComplexType, read_schema, serialize_schema, validate
from randgen import random_document


def docs(*texts):
    return [parse_xml(t.encode(), f"doc-{i}") for i, t in enumerate(texts)]


def test_no_documents_rejected():
    with pytest.raises(ValueError, match="no input documents"):
        accumulate_profiles([])


def test_bibliography_profiles(bibliography_xml):
    doc = parse_xml(bibliography_xml, "b")
    profiles = accumulate_profiles([doc])
    entry = profiles["biblioentry"]
    assert entry.child_order == ["author", "title", "publisher", "pubdate"]
    assert entry.child_max["author"] is None  # unbounded
    assert entry.child_min["title"] == 1
    assert entry.attr_required["id"] is True
    assert entry.attr_type["id"] == NCNAME

    author = profiles["author"]
    assert author.child_order == ["firstname", "othername", "surname"]
    assert author.child_min["othername"] == 0
    assert author.child_max["othername"] == 1


def test_root_profile_unbounded_entries(bibliography_xml):
    doc = parse_xml(bibliography_xml, "b")
    profiles = accumulate_profiles([doc])
    assert profiles["bibliography"].child_max["biblioentry"] is None


def test_two_document_merge():
    profiles = accumulate_profiles(docs("<a><b>1</b></a>", "<a><b>2</b><b>x</b></a>"))
    assert profiles["a"].child_max["b"] is None
    assert profiles["b"].text_type == STRING  # join(integer, integer, NCName)


def test_merge_only_loosens():
    base = accumulate_profiles(docs("<a><b>1</b><c/></a>"))
    more = accumulate_profiles(docs("<a><b>1</b><c/></a>", "<a><b>2</b><b>3</b></a>"))
    assert base["a"].child_min["c"] == 1 and more["a"].child_min["c"] == 0
    assert base["a"].child_max["b"] == 1 and more["a"].child_max["b"] is None


def test_root_mismatch():
    with pytest.raises(RootMismatch):
        accumulate_profiles(docs("<a/>", "<b/>"))


def test_leaf_vs_structure_merges_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="xsgowl.infer"):
        profiles = accumulate_profiles(docs("<r><x>text</x><x><y/></x></r>"))
    assert profiles["x"].has_text and profiles["x"].has_element_children
    assert any("text leaf" in r.message for r in caplog.records)


def test_order_conflict_warns_keeps_first_seen(caplog):
    with caplog.at_level(logging.WARNING, logger="xsgowl.infer"):
        profiles = accumulate_profiles(
            docs("<r><a/><b/></r>", "<r><b/><a/></r>")
        )
    assert profiles["r"].child_order == ["a", "b"]
    assert any("conflicting orders" in r.message for r in caplog.records)


def test_schema_matches_golden(bibliography_xml, bibliography_xsd):
    schema = infer_schema([parse_xml(bibliography_xml, "b")])
    golden = read_schema(bibliography_xsd, "golden")
    assert schema == golden


def test_single_text_leaf_schema():
    schema = infer_schema(docs("<a>hi</a>"))
    (decl,) = schema.global_elements
    assert decl.type == BuiltinRef(NCNAME)


def test_mixed_profile_schema():
    schema = infer_schema(docs("<a>hi<b>x</b></a>"))
    a = schema.element("a")
    assert isinstance(a.type, ComplexType) and a.type.mixed


def test_empty_element_empty_complex_type():
    schema = infer_schema(docs("<a/>"))
    a = schema.element("a")
    assert isinstance(a.type, ComplexType)
    assert a.type.particles == () and a.type.attributes == ()


def test_sometimes_empty_leaf_is_string():
    schema = infer_schema(docs("<r><x>5</x><x/></r>"))
    assert schema.element("x").type == BuiltinRef(STRING)


def test_text_with_attributes_is_mixed():
    schema = infer_schema(docs('<p currency="USD">19.99</p>'))
    p = schema.element("p")
    assert isinstance(p.type, ComplexType) and p.type.mixed
    assert p.type.attributes[0].name == "currency"


def test_xmlns_attributes_are_not_data():
    schema = infer_schema(docs('<a xmlns:x="urn:u"><b>1</b></a>'))
    a = schema.element("a")
    assert a.type.attributes == ()


def test_global_order_first_appearance(bibliography_xml):
    schema = infer_schema([parse_xml(bibliography_xml, "b")])
    assert [e.name for e in schema.global_elements] == [
        "bibliography", "biblioentry", "author", "firstname", "othername",
        "surname", "title", "publisher", "publishername", "pubdate",
    ]


def test_deterministic_bytes(bibliography_xml):
    one = serialize_schema(infer_schema([parse_xml(bibliography_xml, "b")]))
    two = serialize_schema(infer_schema([parse_xml(bibliography_xml, "b")]))
    assert one == two


def test_soundness_on_random_documents():
    for seed in range(60):
        doc = random_document(seed)
        schema = infer_schema([doc])
        report = validate(doc, schema)
        assert report.ok, f"seed {seed}: {report.violations[:3]}"


def test_attribute_under_two_prefixes_is_present_once():
    # p:id and id are one attribute to the validator, so one instance that
    # carries both does not make it required where another lacks it
    (doc,) = docs('<r xmlns:q="u:q"><b id="1" q:id="2"/><b/></r>')
    schema = infer_schema([doc])
    assert schema.element("b").type.attributes[0].required is False
    report = validate(doc, schema)
    assert report.ok, report.violations[:3]


def test_soundness_multi_document_merge():
    pool = [random_document(s) for s in range(30)]
    by_root = {}
    for d in pool:
        by_root.setdefault(d.root.tag.local, []).append(d)
    checked = 0
    for group in by_root.values():
        if len(group) < 2:
            continue
        schema = infer_schema(group)
        for d in group:
            assert validate(d, schema).ok
        checked += 1
    assert checked > 0


def test_profiles_to_schema_keeps_profile_order():
    profiles = accumulate_profiles(docs("<a><b/><c>1</c></a>"))
    schema = profiles_to_schema(profiles)
    assert [e.name for e in schema.global_elements] == ["a", "b", "c"]


LATTICE_RANK = {"boolean": 0, "integer": 0, "decimal": 1, "NCName": 0, "string": 2}


def test_monotonicity_random():
    # growing the document set may only loosen constraints
    pool = [random_document(s) for s in range(40)]
    by_root: dict = {}
    for d in pool:
        by_root.setdefault(d.root.tag.local, []).append(d)
    for group in by_root.values():
        if len(group) < 2:
            continue
        for k in range(1, len(group)):
            before = accumulate_profiles(group[:k])
            after = accumulate_profiles(group[:k + 1])
            for name, profile in before.items():
                grown = after[name]
                for child in profile.child_order:
                    assert grown.child_min[child] <= profile.child_min[child]
                    if profile.child_max[child] is None:
                        assert grown.child_max[child] is None
                for attr, required in profile.attr_required.items():
                    if not required:
                        assert not grown.attr_required[attr]
                    t_before, t_after = profile.attr_type[attr], grown.attr_type[attr]
                    assert LATTICE_RANK[t_after] >= LATTICE_RANK[t_before] \
                        or t_after == t_before
