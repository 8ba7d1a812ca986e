import logging

import pytest

from xsgowl.owlgen import (
    GenOptions,
    KIND_CLASS,
    KIND_DATATYPE_PROPERTY,
    KIND_OBJECT_PROPERTY,
    KIND_SUBCLASS,
    RULE_CLASS_ANON_TYPE,
    RULE_DEFINED_SIMPLE_ANYTYPE,
    RULE_DTPROP_MIXED_TEXT,
    RULE_SUBCLASS_EXT,
    generate_tbox,
    write_trace,
)
from xsgowl.owlmodel import RDFS_LITERAL, XSD_ANYTYPE, check_dl_profile, xsd_iri
from xsgowl.xsdmodel import ComplexType, read_schema
from xsgowl.xsg import build_xsg
from randgen import random_schema

BASE = "http://example.org/onto/bibliography"
OPTS = GenOptions(base_iri=BASE)


def tbox_for(xsd: bytes, opts: GenOptions = OPTS):
    schema = read_schema(xsd, "t")
    return generate_tbox(schema, build_xsg(schema), opts), schema


def test_golden_classes(bibliography_xsd):
    (onto, _), _ = tbox_for(bibliography_xsd)
    assert {c.iri for c in onto.classes} == {
        "bibliography", "biblioentry", "author", "publisher"
    }
    assert all(c.subclass_of is None for c in onto.classes)


def test_golden_object_properties(bibliography_xsd):
    (onto, _), _ = tbox_for(bibliography_xsd)
    props = {
        p.iri: (list(p.domain), p.range)
        for p in onto.object_properties
    }
    assert props == {
        "hasbiblioentry": (["bibliography"], "biblioentry"),
        "hasauthor": (["biblioentry"], "author"),
        "haspublisher": (["biblioentry"], "publisher"),
    }


def test_golden_datatype_properties_union_mode(bibliography_xsd):
    (onto, _), _ = tbox_for(bibliography_xsd)
    props = {
        p.iri: (sorted(p.domain), p.range)
        for p in onto.datatype_properties
    }
    assert props == {
        "id": (["biblioentry", "bibliography"], xsd_iri("NCName")),
        "title": (["biblioentry"], xsd_iri("string")),
        "pubdate": (["biblioentry"], xsd_iri("integer")),
        "firstname": (["author"], xsd_iri("NCName")),
        "surname": (["author"], xsd_iri("NCName")),
        "othername": (["author"], xsd_iri("NCName")),
        "publishername": (["publisher"], xsd_iri("string")),
    }


def test_golden_literal_domains(bibliography_xsd):
    (onto, _), _ = tbox_for(bibliography_xsd, GenOptions(base_iri=BASE, union_domains=False))
    fragments = sorted(p.iri for p in onto.datatype_properties)
    assert fragments == [
        "biblioentry.id", "bibliography.id", "firstname", "othername",
        "pubdate", "publishername", "surname", "title",
    ]
    assert all(len(p.domain) == 1 for p in onto.datatype_properties)


def test_object_property_naming_invariant(bibliography_xsd):
    (onto, _), _ = tbox_for(bibliography_xsd)
    for p in onto.object_properties:
        assert p.iri.startswith("has")
        assert p.iri[len("has"):] == p.range


DERIVED = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="person" type="personType"/>
  <xs:element name="writer" type="authorType"/>
  <xs:complexType name="personType">
    <xs:sequence><xs:element name="name" type="xs:string"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="authorType">
    <xs:complexContent>
      <xs:extension base="personType">
        <xs:sequence><xs:element name="penname" type="xs:NCName"/></xs:sequence>
      </xs:extension>
    </xs:complexContent>
  </xs:complexType>
</xs:schema>"""


def test_subclass_axiom_from_extension():
    (onto, trace), _ = tbox_for(DERIVED)
    by_frag = {c.iri: c for c in onto.classes}
    assert by_frag["authorType"].subclass_of == by_frag["personType"].iri
    assert by_frag["personType"].subclass_of is None
    ext = [b for b in trace.bridges if b.rule_id == RULE_SUBCLASS_EXT]
    assert len(ext) == 1 and ext[0].iri == "authorType"
    assert ext[0].entity_kind == KIND_SUBCLASS


def test_named_types_keep_their_names():
    (onto, _), _ = tbox_for(DERIVED)
    assert {c.iri for c in onto.classes} == {"personType", "authorType"}


MIXED = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="para">
    <xs:complexType mixed="true">
      <xs:sequence><xs:element minOccurs="0" ref="emph"/></xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="emph" type="xs:string"/>
</xs:schema>"""


def test_mixed_text_property():
    (onto, trace), _ = tbox_for(MIXED)
    assert {c.iri for c in onto.classes} == {"para"}
    text_props = [p for p in onto.datatype_properties
                  if p.iri == "hasTextContent"]
    assert len(text_props) == 1
    assert text_props[0].range == xsd_iri("string")
    assert text_props[0].domain[0] == "para"
    assert any(b.rule_id == RULE_DTPROP_MIXED_TEXT for b in trace.bridges)


def test_cardinality_emission(bibliography_xsd):
    (onto, _), _ = tbox_for(
        bibliography_xsd, GenOptions(base_iri=BASE, emit_cardinality=True)
    )
    card = {p.iri: p.cardinality for p in onto.object_properties}
    # facets read off the schema by hand: author 1..unbounded,
    # publisher 1..1, biblioentry 1..unbounded
    assert card["hasauthor"] == (1, None)
    assert card["haspublisher"] == (1, 1)
    assert card["hasbiblioentry"] == (1, None)


def test_cardinality_off_by_default(bibliography_xsd):
    (onto, _), _ = tbox_for(bibliography_xsd)
    assert all(p.cardinality is None for p in onto.object_properties)


ANYTYPE = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="book">
    <xs:complexType><xs:sequence>
      <xs:element ref="isbn"/>
    </xs:sequence></xs:complexType>
  </xs:element>
  <xs:element name="isbn" type="isbnType"/>
  <xs:simpleType name="isbnType"><xs:restriction base="xs:string"/></xs:simpleType>
</xs:schema>"""


def test_defined_simple_type_maps_to_anytype():
    (onto, trace), _ = tbox_for(ANYTYPE)
    (isbn,) = [p for p in onto.datatype_properties if p.iri == "isbn"]
    assert isbn.range == XSD_ANYTYPE
    assert any(b.rule_id == RULE_DEFINED_SIMPLE_ANYTYPE for b in trace.bridges)
    warnings = check_dl_profile(onto)
    assert len(warnings) == 1 and "isbn" in warnings[0]


def test_strict_dl_substitutes_literal():
    (onto, _), _ = tbox_for(ANYTYPE, GenOptions(base_iri=BASE, strict_dl=True))
    (isbn,) = [p for p in onto.datatype_properties if p.iri == "isbn"]
    assert isbn.range == RDFS_LITERAL
    assert check_dl_profile(onto) == []


def xsd(body: str) -> bytes:
    return f'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">{body}</xs:schema>'.encode()


def two_local(first: str, second: str, name: str = "v") -> bytes:
    """One name declared locally under two classes, with two types."""
    return xsd("".join(
        f'<xs:element name="{c}"><xs:complexType><xs:sequence>'
        f'<xs:element name="{name}"{t}/></xs:sequence></xs:complexType></xs:element>'
        for c, t in (("a", first), ("b", second))))


NAMED_SIMPLE = '<xs:simpleType name="s"><xs:restriction base="xs:string"/></xs:simpleType>'


@pytest.mark.parametrize("schema, name, default, strict", [
    (ANYTYPE, "isbn", XSD_ANYTYPE, RDFS_LITERAL),
    (xsd('<xs:element name="r"><xs:complexType><xs:attribute name="code" type="s"/>'
         f'</xs:complexType></xs:element>{NAMED_SIMPLE}'), "code", XSD_ANYTYPE, RDFS_LITERAL),
    (xsd('<xs:element name="r"><xs:complexType><xs:sequence><xs:element name="note"/>'
         '</xs:sequence></xs:complexType></xs:element>'), "note", XSD_ANYTYPE, RDFS_LITERAL),
    (two_local("", ' type="xs:integer"'), "v", XSD_ANYTYPE, RDFS_LITERAL),
    (two_local(' type="xs:integer"', ' type="xs:decimal"'), "v",
     xsd_iri("decimal"), xsd_iri("decimal")),
    (two_local(' type="xs:date"', ' type="xs:integer"'), "v",
     xsd_iri("string"), xsd_iri("string")),
], ids=["element-named-simple", "attribute-named-simple", "anytype-element",
        "anytype-join", "lattice-join", "non-lattice-join"])
def test_datatype_property_range(schema, name, default, strict):
    for opts, expected in ((OPTS, default),
                           (GenOptions(base_iri=BASE, strict_dl=True), strict)):
        (onto, _), _ = tbox_for(schema, opts)
        (prop,) = [p for p in onto.datatype_properties if p.iri == name]
        assert prop.range == expected, opts


# One datatype name (note) and one object property name (hasR) each come
# from the classes Zed, Zed, Alpha, Mid, Mid, in the generator's order: a
# type's own contributions arrive together, so a domain repeats both before
# and after a second distinct one. First-seen order differs from sorted order.
SHARED_NAME = xsd("""
  <xs:element name="doc"><xs:complexType><xs:sequence>
    <xs:element name="z" type="Zed"/><xs:element name="a" type="Alpha"/>
    <xs:element name="m" type="Mid"/>
  </xs:sequence></xs:complexType></xs:element>
  <xs:complexType name="R"/>
  <xs:complexType name="Zed">
    <xs:sequence>
      <xs:element name="note" type="xs:integer"/>
      <xs:element name="r1" type="R" minOccurs="0"/>
      <xs:element name="r2" type="R" maxOccurs="2"/>
    </xs:sequence>
    <xs:attribute name="note" type="xs:decimal"/>
  </xs:complexType>
  <xs:complexType name="Alpha">
    <xs:sequence>
      <xs:element name="note" type="xs:integer"/>
      <xs:element name="r3" type="R" minOccurs="2" maxOccurs="5"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Mid">
    <xs:sequence>
      <xs:element name="note" type="xs:date"/>
      <xs:element name="r4" type="R"/>
      <xs:element name="r5" type="R" minOccurs="3" maxOccurs="7"/>
    </xs:sequence>
    <xs:attribute name="note" type="xs:gYear"/>
  </xs:complexType>""")


def shared_path(domain: str, step: str) -> str:
    return f"/xs:schema/xs:complexType[{domain}]/{step}"


# contributions in the generator's order: (domain class, path step)
SHARED_NOTE = [("Zed", "xs:sequence/xs:element[note]"), ("Zed", "xs:attribute[note]"),
               ("Alpha", "xs:sequence/xs:element[note]"),
               ("Mid", "xs:sequence/xs:element[note]"), ("Mid", "xs:attribute[note]")]
SHARED_HAS_R = [("Zed", f"xs:sequence/xs:element[r{i}]") for i in (1, 2)] + [
    ("Alpha", "xs:sequence/xs:element[r3]")] + [
    ("Mid", f"xs:sequence/xs:element[r{i}]") for i in (4, 5)]


@pytest.mark.parametrize("union", [True, False], ids=["union", "literal"])
def test_shared_name_merges_every_contribution(union):
    opts = GenOptions(base_iri=BASE, union_domains=union, emit_cardinality=True)
    (onto, trace), _ = tbox_for(SHARED_NAME, opts)
    dt = {p.iri: (list(p.domain), p.range)
          for p in onto.datatype_properties}
    obj = {p.iri: (list(p.domain), p.cardinality)
           for p in onto.object_properties if p.range == "R"}
    if union:  # one property per name
        assert dt == {"note": (["Alpha", "Mid", "Zed"], xsd_iri("string"))}
        assert obj == {"hasR": (["Alpha", "Mid", "Zed"], (0, 7))}
    else:  # one property per (domain, name), qualified with that domain
        assert dt == {"Zed.note": (["Zed"], xsd_iri("decimal")),
                      "Alpha.note": (["Alpha"], xsd_iri("integer")),
                      "Mid.note": (["Mid"], xsd_iri("string"))}
        assert obj == {"Zed.hasR": (["Zed"], (0, 2)),
                       "Alpha.hasR": (["Alpha"], (2, 5)),
                       "Mid.hasR": (["Mid"], (1, 7))}
    qualify = "{name}" if union else "{domain}.{name}"
    contributed = (("note", SHARED_NOTE), ("hasR", SHARED_HAS_R))
    for name, contributions in contributed:
        for domain, step in contributions:
            path = shared_path(domain, step)
            assert trace.resolution[path] == qualify.format(domain=domain, name=name), path
    # each property's bridge names its first contribution
    firsts = [0] if union else [0, 2, 3]
    origins = {qualify.format(domain=cs[i][0], name=name): shared_path(*cs[i])
               for name, cs in contributed for i in firsts}
    bridged = {b.iri: b.schema_path for b in trace.bridges
               if b.entity_kind != KIND_CLASS and b.iri in origins}
    assert bridged == origins


def test_datatype_name_sanitized_once():
    # a final "." is an NCName character but ends no Turtle local name
    (onto, _), _ = tbox_for(two_local(' type="xs:string"', ' type="xs:string"', "v."))
    assert [p.iri for p in onto.datatype_properties] == ["v_"]
    assert onto.naming_notes == ("datatype property name 'v.' sanitized to 'v_'",)


GROUPS = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="record">
    <xs:complexType>
      <xs:sequence><xs:group ref="nameGroup"/></xs:sequence>
      <xs:attributeGroup ref="metaAttrs"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="first" type="xs:NCName"/>
  <xs:element name="last" type="xs:NCName"/>
  <xs:group name="nameGroup">
    <xs:sequence>
      <xs:element ref="first"/>
      <xs:element ref="last"/>
    </xs:sequence>
  </xs:group>
  <xs:attributeGroup name="metaAttrs">
    <xs:attribute name="version" type="xs:integer" use="required"/>
  </xs:attributeGroup>
</xs:schema>"""


def test_groups_become_classes_and_properties():
    (onto, _), _ = tbox_for(GROUPS)
    assert {c.iri for c in onto.classes} == {
        "record", "nameGroup", "metaAttrs"
    }
    obj = {p.iri: (p.domain[0], p.range)
           for p in onto.object_properties}
    assert obj == {
        "hasnameGroup": ("record", "nameGroup"),
        "hasmetaAttrs": ("record", "metaAttrs"),
    }
    dt = {p.iri: p.domain[0] for p in onto.datatype_properties}
    assert dt == {"first": "nameGroup", "last": "nameGroup", "version": "metaAttrs"}


def test_anonymous_type_name_clash_suffixes():
    schema = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="r">
        <xs:complexType><xs:sequence>
          <xs:element name="x">
            <xs:complexType><xs:sequence>
              <xs:element name="y" type="xs:string"/>
            </xs:sequence></xs:complexType>
          </xs:element>
          <xs:element name="z">
            <xs:complexType><xs:sequence>
              <xs:element name="x">
                <xs:complexType><xs:sequence>
                  <xs:element name="w" type="xs:string"/>
                </xs:sequence></xs:complexType>
              </xs:element>
            </xs:sequence></xs:complexType>
          </xs:element>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:schema>"""
    (onto, _), _ = tbox_for(schema)
    fragments = sorted(c.iri for c in onto.classes)
    assert fragments == ["r", "x", "x_2", "z"]
    assert onto.naming_notes  # the rename is reported


def test_degenerate_schema_warns(caplog):
    schema = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a" type="xs:string"/>
    </xs:schema>"""
    with caplog.at_level(logging.WARNING, logger="xsgowl.owlgen"):
        (onto, trace), _ = tbox_for(schema)
    assert onto.classes == ()
    assert trace.bridges == ()
    assert any("no classes" in r.message for r in caplog.records)


def test_style_invariance(bibliography_xsd, bibliography_nested_xsd):
    (flat, _), _ = tbox_for(bibliography_xsd)
    (nested, _), _ = tbox_for(bibliography_nested_xsd)
    assert flat == nested


def test_class_count_law_random():
    for seed in range(60):
        schema = random_schema(seed)
        graph = build_xsg(schema)
        onto, _ = generate_tbox(schema, graph, OPTS)
        anon = sum(
            1 for v in graph.vertices
            if v.kind == "complex-type" and v.schema_ref.name is None
        )
        named = sum(1 for t in schema.global_types if isinstance(t, ComplexType))
        expected = anon + named + len(schema.element_groups) + len(schema.attribute_groups)
        assert len(onto.classes) == expected, f"seed {seed}"


def test_naming_invariant_random():
    for seed in range(60):
        schema = random_schema(seed)
        onto, _ = generate_tbox(schema, build_xsg(schema), OPTS)
        class_frags = {c.iri for c in onto.classes}
        for p in onto.object_properties:
            assert p.iri.startswith("has")
            assert p.iri[3:] == p.range
            assert p.range in class_frags


# --- trace ------------------------------------------------------------------


def test_golden_trace_counts(bibliography_xsd):
    (onto, trace), _ = tbox_for(bibliography_xsd)
    assert len(trace.bridges) == 14  # 4 classes + 3 object + 7 datatype
    kinds = [b.entity_kind for b in trace.bridges]
    assert kinds.count(KIND_CLASS) == 4
    assert kinds.count(KIND_OBJECT_PROPERTY) == 3
    assert kinds.count(KIND_DATATYPE_PROPERTY) == 7


def test_trace_line_format(bibliography_xsd):
    (_, trace), _ = tbox_for(bibliography_xsd)
    text = write_trace(trace)
    assert (
        f"/xs:schema/xs:element[author]/xs:complexType\tclass\t"
        f"{RULE_CLASS_ANON_TYPE}\t{BASE}#author"
    ) in text.splitlines()


def test_empty_trace_empty_file():
    schema = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a" type="xs:string"/>
    </xs:schema>"""
    (_, trace), _ = tbox_for(schema)
    assert write_trace(trace) == ""


def test_trace_bijection_random():
    for seed in range(60):
        schema = random_schema(seed)
        onto, trace = generate_tbox(schema, build_xsg(schema), OPTS)
        subclass_axioms = sum(1 for c in onto.classes if c.subclass_of is not None)
        expected = (len(onto.classes) + subclass_axioms
                    + len(onto.object_properties) + len(onto.datatype_properties))
        assert len(trace.bridges) == expected, f"seed {seed}"
        # every bridge resolves into the ontology, every entity is bridged
        declared = {c.iri for c in onto.classes}
        declared |= {p.iri for p in onto.object_properties}
        declared |= {p.iri for p in onto.datatype_properties}
        bridged = {b.iri for b in trace.bridges}
        assert bridged == declared, f"seed {seed}"


def test_trace_paths_unique(bibliography_xsd):
    (_, trace), _ = tbox_for(bibliography_xsd)
    paths = [b.schema_path for b in trace.bridges]
    assert len(paths) == len(set(paths))
