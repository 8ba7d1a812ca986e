import gc
import weakref

import pytest

from xsgowl.infer import infer_schema
from xsgowl.xmldoc import parse_xml
from xsgowl.xsdmodel import (
    AttrDecl,
    AttrGroupDecl,
    BuiltinRef,
    ComplexType,
    ElementDecl,
    GroupDecl,
    NamedTypeRef,
    SchemaError,
    SchemaModel,
    SimpleType,
    read_schema,
    check_instances,
    serialize_schema,
    validate,
)
from randgen import random_document, random_schema

DERIVED_SCHEMA = b"""<?xml version="1.0" encoding="UTF-8"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="person" type="personType"/>
  <xs:element name="writer" type="authorType"/>
  <xs:complexType name="personType">
    <xs:sequence>
      <xs:element name="name" type="xs:string"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="authorType">
    <xs:complexContent>
      <xs:extension base="personType">
        <xs:sequence>
          <xs:element name="penname" type="xs:NCName"/>
        </xs:sequence>
      </xs:extension>
    </xs:complexContent>
  </xs:complexType>
</xs:schema>
"""


def test_read_golden_schema(bibliography_xsd):
    model = read_schema(bibliography_xsd, "g")
    assert len(model.global_elements) == 10
    anon = [
        e.type for e in model.global_elements if isinstance(e.type, ComplexType)
    ]
    assert len(anon) == 4
    id_attrs = [a for e in model.global_elements
                if isinstance(e.type, ComplexType)
                for a in e.type.attributes if a.name == "id"]
    assert len(id_attrs) == 2
    assert all(a.required and a.datatype == BuiltinRef("NCName") for a in id_attrs)
    entry = model.element("biblioentry").type
    assert [p.name for p in entry.particles] == ["author", "title", "publisher", "pubdate"]
    assert entry.particles[0].max_occurs is None


def test_dangling_ref():
    schema = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a"><xs:complexType><xs:sequence>
        <xs:element ref="missing"/>
      </xs:sequence></xs:complexType></xs:element>
    </xs:schema>"""
    with pytest.raises(SchemaError, match="missing"):
        read_schema(schema, "t")


def test_duplicate_global_name():
    schema = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a" type="xs:string"/>
      <xs:element name="a" type="xs:integer"/>
    </xs:schema>"""
    with pytest.raises(SchemaError, match="duplicate"):
        read_schema(schema, "t")


def test_extension_derivation():
    model = read_schema(DERIVED_SCHEMA, "t")
    author = model.type_named("authorType")
    person = model.type_named("personType")
    assert author.derivation == ("extension", "personType")
    assert person.derivation is None


@pytest.mark.parametrize("construct", ["choice", "all", "any"])
def test_unsupported_constructs_named(construct):
    schema = f"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a"><xs:complexType><xs:sequence>
        <xs:{construct}/>
      </xs:sequence></xs:complexType></xs:element>
    </xs:schema>""".encode()
    with pytest.raises(SchemaError, match=construct):
        read_schema(schema, "t")


def test_simple_type_restriction():
    schema = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="isbn" type="isbnType"/>
      <xs:simpleType name="isbnType">
        <xs:restriction base="xs:string"/>
      </xs:simpleType>
    </xs:schema>"""
    model = read_schema(schema, "t")
    assert model.type_named("isbnType") == SimpleType("isbnType", "string")
    assert model.element("isbn").type == NamedTypeRef("isbnType")


def test_groups_read():
    schema = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="root">
        <xs:complexType>
          <xs:sequence><xs:group ref="nameGroup"/></xs:sequence>
          <xs:attributeGroup ref="metaAttrs"/>
        </xs:complexType>
      </xs:element>
      <xs:element name="first" type="xs:NCName"/>
      <xs:group name="nameGroup">
        <xs:sequence><xs:element ref="first"/></xs:sequence>
      </xs:group>
      <xs:attributeGroup name="metaAttrs">
        <xs:attribute name="version" type="xs:integer"/>
      </xs:attributeGroup>
    </xs:schema>"""
    model = read_schema(schema, "t")
    root = model.element("root").type
    assert root.group_refs == ("nameGroup",)
    assert root.attr_group_refs == ("metaAttrs",)
    assert model.group("nameGroup").particles[0].ref == "first"
    assert model.attr_group("metaAttrs").attributes[0].name == "version"


NOTE = "<xs:annotation><xs:documentation>n</xs:documentation></xs:annotation>"
# one schema with a marked place in each construct whose reader skips
# xs:annotation: the schema, an element, a sequence, a complexType body,
# a simpleType, a group and an attributeGroup
ANNOTATED = (
    '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">{0}'
    '<xs:element name="r">{1}<xs:complexType>{3}<xs:sequence>{2}'
    '<xs:element ref="v"/><xs:group ref="g"/></xs:sequence>'
    '<xs:attributeGroup ref="ag"/></xs:complexType></xs:element>'
    '<xs:element name="v" type="s"/>'
    '<xs:simpleType name="s">{4}<xs:restriction base="xs:string"/></xs:simpleType>'
    '<xs:group name="g">{5}<xs:sequence><xs:element ref="v"/></xs:sequence></xs:group>'
    '<xs:attributeGroup name="ag">{6}<xs:attribute name="k" type="xs:integer"/>'
    "</xs:attributeGroup></xs:schema>"
)


def annotated(place: int | None) -> str:
    """ANNOTATED with a note at `place` only; None for no note."""
    return ANNOTATED.format(*[NOTE if i == place else "" for i in range(7)])


@pytest.mark.parametrize("variant, plain", [
    *[(annotated(place), annotated(None)) for place in range(7)],
    ('<schema xmlns="http://www.w3.org/2001/XMLSchema"><element name="r">'
     '<complexType><sequence><element name="v" type="integer"/></sequence>'
     '<attribute name="k" type="string"/></complexType></element></schema>',
     '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="r">'
     '<xs:complexType><xs:sequence><xs:element name="v" type="xs:integer"/>'
     '</xs:sequence><xs:attribute name="k" type="xs:string"/></xs:complexType>'
     "</xs:element></xs:schema>"),
    (annotated(None).replace('<xs:group ref="g"/></xs:sequence>',
                             '</xs:sequence><xs:group ref="g"/>'),
     annotated(None)),
], ids=[*[f"annotation-{place}" for place in range(7)], "default-namespace",
        "group-in-type-body"])
def test_reader_spellings_read_alike(variant, plain):
    assert variant != plain
    assert read_schema(variant.encode(), "t") == read_schema(plain.encode(), "t")


def test_circular_derivation_rejected():
    schema = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a" type="t1"/>
      <xs:complexType name="t1">
        <xs:complexContent><xs:extension base="t2"/></xs:complexContent>
      </xs:complexType>
      <xs:complexType name="t2">
        <xs:complexContent><xs:extension base="t1"/></xs:complexContent>
      </xs:complexType>
    </xs:schema>"""
    with pytest.raises(SchemaError, match="circular"):
        read_schema(schema, "t")


def test_writer_reader_round_trip(bibliography_xsd):
    model = read_schema(bibliography_xsd, "g")
    again = read_schema(serialize_schema(model).encode(), "again")
    assert again == model


def test_writer_reader_round_trip_nested(bibliography_nested_xsd):
    model = read_schema(bibliography_nested_xsd, "nested")
    again = read_schema(serialize_schema(model).encode(), "again")
    assert again == model


def test_writer_reader_round_trip_random():
    for seed in range(40):
        model = random_schema(seed)
        again = read_schema(serialize_schema(model).encode(), "again")
        assert again == model, f"seed {seed}"


# --- validation ------------------------------------------------------------


def test_golden_document_validates(bibliography_xml, bibliography_xsd):
    doc = parse_xml(bibliography_xml, "d")
    schema = read_schema(bibliography_xsd, "g")
    assert validate(doc, schema).ok


def test_datatype_violation(bibliography_xml, bibliography_xsd):
    text = bibliography_xml.replace(b"<pubdate>1977<", b"<pubdate>nineteen<")
    doc = parse_xml(text, "d")
    schema = read_schema(bibliography_xsd, "g")
    report = validate(doc, schema)
    assert [v.kind for v in report.violations] == ["datatype"]
    assert "integer" in report.violations[0].message


def test_missing_required_child(bibliography_single_xml, bibliography_xsd):
    text = bibliography_single_xml.replace(
        b"<title>Personal Identity: A Philosophical Analysis</title>", b""
    )
    doc = parse_xml(text, "d")
    schema = read_schema(bibliography_xsd, "g")
    report = validate(doc, schema)
    assert [v.kind for v in report.violations] == ["missing-child"]
    assert "title" in report.violations[0].message


def test_unknown_element(bibliography_single_xml, bibliography_xsd):
    text = bibliography_single_xml.replace(
        b"<pubdate>1977</pubdate>", b"<pubdate>1977</pubdate><isbn>x</isbn>"
    )
    report = validate(parse_xml(text, "d"), read_schema(bibliography_xsd, "g"))
    assert any(v.kind == "unknown-element" for v in report.violations)


def test_missing_required_attribute(bibliography_single_xml, bibliography_xsd):
    text = bibliography_single_xml.replace(b'<biblioentry id="FHIW13C-1234">', b"<biblioentry>")
    report = validate(parse_xml(text, "d"), read_schema(bibliography_xsd, "g"))
    assert any(v.kind == "missing-attribute" for v in report.violations)


def test_namespace_declaration_is_not_a_required_attribute():
    schema = read_schema(b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="r"><xs:complexType>
        <xs:attribute name="k" type="xs:string" use="required"/>
      </xs:complexType></xs:element>
    </xs:schema>""", "t")
    assert validate(parse_xml(b'<r k="v"/>', "d"), schema).ok
    report = validate(parse_xml(b'<r xmlns:k="urn:x"/>', "d"), schema)
    assert [(v.kind, v.path) for v in report.violations] == [("missing-attribute", "/r")]


def test_occurrence_violation_above_max():
    schema = read_schema(b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="r"><xs:complexType><xs:sequence>
        <xs:element maxOccurs="3" ref="x"/>
      </xs:sequence></xs:complexType></xs:element>
      <xs:element name="x" type="xs:integer"/>
    </xs:schema>""", "t")
    ok = parse_xml(b"<r><x>1</x><x>2</x><x>3</x></r>", "d")
    too_many = parse_xml(b"<r><x>1</x><x>2</x><x>3</x><x>4</x></r>", "d")
    assert validate(ok, schema).ok
    report = validate(too_many, schema)
    assert [v.kind for v in report.violations] == ["occurrence"]


NAMED_INTEGER = ('<xs:element name="r" type="s"/><xs:simpleType name="s">'
                 '<xs:restriction base="xs:integer"/></xs:simpleType>')
CHILD_X = ('<xs:element name="r"><xs:complexType><xs:sequence>{}</xs:sequence>'
           '</xs:complexType></xs:element><xs:element name="x" type="xs:integer"/>')
TWO_OR_THREE = CHILD_X.format('<xs:element ref="x" minOccurs="2" maxOccurs="3"/>')
# one name through two particles: its bounds are their sums, 1..2
TWO_PARTICLES = CHILD_X.format('<xs:element ref="x"/><xs:element ref="x" minOccurs="0"/>')


@pytest.mark.parametrize("body, document, kinds", [
    (NAMED_INTEGER, "<r>5</r>", []),
    (NAMED_INTEGER, "<r>five</r>", ["datatype"]),
    ('<xs:element name="r"/>', '<r k="1">text<any/>more</r>', []),
    (TWO_OR_THREE, "<r><x>1</x></r>", ["occurrence"]),
    (TWO_OR_THREE, "<r><x>1</x><x>2</x></r>", []),
    (CHILD_X.format(""), "<q/>", ["unknown-element"]),
    (TWO_PARTICLES, "<r><x>1</x><x>2</x></r>", []),
    (TWO_PARTICLES, "<r><x>1</x><x>2</x><x>3</x></r>", ["occurrence"]),
], ids=["named-simple-valid", "named-simple-invalid", "anytype", "below-minimum",
        "at-minimum", "undeclared-root", "two-particles-valid", "two-particles-over"])
def test_validation_kinds(body, document, kinds):
    schema = read_schema(
        f'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">{body}</xs:schema>'
        .encode(), "t")
    report = validate(parse_xml(document.encode(), "d"), schema)
    assert [v.kind for v in report.violations] == kinds


def test_unexpected_text_in_non_mixed(bibliography_single_xml, bibliography_xsd):
    text = bibliography_single_xml.replace(b"</author>", b"stray</author>")
    report = validate(parse_xml(text, "d"), read_schema(bibliography_xsd, "g"))
    assert any(v.kind == "unexpected-text" for v in report.violations)


def test_extension_validates_inherited_content():
    model = read_schema(DERIVED_SCHEMA, "t")
    good = parse_xml(b"<writer><name>G V</name><penname>gv</penname></writer>", "d")
    missing_base = parse_xml(b"<writer><penname>gv</penname></writer>", "d")
    assert validate(good, model).ok
    assert any(
        v.kind == "missing-child" and "name" in v.message
        for v in validate(missing_base, model).violations
    )


# --- name lookups -------------------------------------------------------------

LOOKUPS = (
    ("element", "global_elements"),
    ("type_named", "global_types"),
    ("group", "element_groups"),
    ("attr_group", "attribute_groups"),
)


def assert_lookups_match_scans(model: SchemaModel):
    """Each lookup returns the very object a first-match scan finds."""
    for method, field in LOOKUPS:
        components = getattr(model, field)
        for name in [c.name for c in components] + ["no-such-name"]:
            scanned = next((c for c in components if c.name == name), None)
            assert getattr(model, method)(name) is scanned, \
                (model.source_id, method, name)


def test_lookups_equal_first_match_scans():
    for seed in range(100):
        assert_lookups_match_scans(random_schema(seed))
        assert_lookups_match_scans(infer_schema([random_document(seed)]))


def test_lookups_first_declaration_wins():
    # equal-valued duplicates, so only identity tells the two apart
    def twice(make):
        return make(), make()

    elements = twice(lambda: ElementDecl("e", BuiltinRef("string")))
    types = twice(lambda: ComplexType("t"))
    groups = twice(lambda: GroupDecl("g", ()))
    attr_groups = twice(lambda: AttrGroupDecl("ag", (AttrDecl("a", BuiltinRef("string")),)))
    model = SchemaModel(elements, types + (SimpleType("s", "string"),),
                        groups, attr_groups, source_id="duplicates")
    assert model.element("e") is elements[0]
    assert model.type_named("t") is types[0]
    assert model.group("g") is groups[0]
    assert model.attr_group("ag") is attr_groups[0]
    assert_lookups_match_scans(model)


def test_model_freed_with_its_view():
    # the cached view must not point back at the model, or the model lives
    # until the cyclic collector runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = read_schema(DERIVED_SCHEMA, "t")
        model.resolved.content(model.type_named("authorType"))
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


WALK_SCHEMA = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r"><xs:complexType><xs:sequence>
    <xs:element name="a" maxOccurs="unbounded"><xs:complexType>
      <xs:sequence><xs:element name="b" type="xs:string"/></xs:sequence>
      <xs:attribute name="k" type="xs:integer"/>
    </xs:complexType></xs:element>
    <xs:element name="c" type="xs:integer"/>
    <xs:element name="e"><xs:complexType/></xs:element>
  </xs:sequence></xs:complexType></xs:element>
  <xs:element name="s" type="xs:string"/>
</xs:schema>"""


class Recorder:
    """A sink that records what the instance pass hands it, by element
    name; each close names the element its matching open pushed."""

    def __init__(self):
        self.calls: list[tuple] = []
        self.names: list[str] = []

    def open(self, instance, attrs, member, ordinal):
        self.names.append(instance.tag.local)
        self.calls.append(("open", instance.tag.local, ordinal, attrs))

    def value(self, member, text):
        self.calls.append(("value", member[0].name, text))

    def close(self, t, content):
        self.calls.append(("close", self.names.pop(), t.name))


def walk_events(xml: bytes, expect_violations: int = 0) -> list[tuple]:
    violations, sink = [], Recorder()
    check_instances(parse_xml(xml, "d"), read_schema(WALK_SCHEMA, "t"), violations, sink)
    assert len(violations) == expect_violations
    return sink.calls


def test_walk_pairs_enter_and_leave_for_complex_types_only():
    events = walk_events(b'<r><a k="1"><b>x</b></a><c>5</c><e/><a><b> y </b></a></r>')
    assert events == [
        ("open", "r", 1, []),
        ("open", "a", 1, [("k", "1")]), ("value", "b", "x"), ("close", "a", None),
        ("value", "c", "5"),
        ("open", "e", 1, []), ("close", "e", None),
        ("open", "a", 2, []), ("value", "b", "y"), ("close", "a", None),
        ("close", "r", None),
    ]
    assert walk_events(b"<s>text</s>") == []  # a simple-typed root is checked only


def test_sink_hears_nothing_after_the_first_violation():
    events = walk_events(b'<r><a><b>x</b></a><c>z</c><e/><a k="2"><b>y</b></a><q/></r>', 2)
    assert events == [
        ("open", "r", 1, []),
        ("open", "a", 1, []), ("value", "b", "x"), ("close", "a", None),
    ]


def test_validate_leaves_the_tree_as_it_found_it():
    # Reading a C Element's `attrib` gives it a dict of its own for the rest
    # of its life; the pass must not do that to every bare leaf
    import tracemalloc

    data = ("<recs>" + "".join(f'<rec id="r{i}"><name>n{i}</name><val>{i}</val></rec>'
                               for i in range(2000)) + "</recs>").encode()
    schema = infer_schema([parse_xml(data, "t")])
    assert validate(parse_xml(data, "t"), schema).ok  # builds the resolved view
    doc = parse_xml(data, "t")
    tracemalloc.start()
    try:
        assert validate(doc, schema).ok
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 4000 * 8, kept  # under 8 bytes per leaf
