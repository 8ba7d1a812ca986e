import gc

import pytest

from xsgowl.abox import NamingCollision, populate
from xsgowl.infer import infer_schema
from xsgowl.owlgen import GenOptions, generate_tbox
from xsgowl.owlmodel import xsd_iri
from xsgowl.xmldoc import parse_xml
from xsgowl.xsdmodel import read_schema, validate
from xsgowl.xsg import build_xsg
from randgen import random_tree
from treeparse import TreeDocument, TreeElement
from xmlwrite import serialize_xml

BASE = "http://example.org/onto/bibliography"


@pytest.fixture
def pipeline(bibliography_xsd):
    schema = read_schema(bibliography_xsd, "g")
    tbox, trace = generate_tbox(schema, build_xsg(schema), GenOptions(base_iri=BASE))
    return schema, tbox, trace


def test_golden_individuals(pipeline, bibliography_single_xml):
    schema, tbox, trace = pipeline
    doc = parse_xml(bibliography_single_xml, "single")
    onto = populate(doc, schema, tbox, trace)
    assert len(onto.individuals) == 4
    by_frag = {i.iri: i for i in onto.individuals}
    assert "personal_identity" in by_frag
    assert "FHIW13C-1234" in by_frag

    bib = by_frag["personal_identity"]
    assert bib.class_iri == "bibliography"
    (prop, target), = bib.object_assertions
    assert prop == "hasbiblioentry"
    assert target == "FHIW13C-1234"

    entry = by_frag["FHIW13C-1234"]
    assert entry.class_iri == "biblioentry"
    data = {p: (v, dt) for p, v, dt in entry.data_assertions}
    assert data["title"] == (
        "Personal Identity: A Philosophical Analysis", xsd_iri("string")
    )
    assert data["pubdate"] == ("1977", xsd_iri("integer"))
    assert data["id"] == ("FHIW13C-1234", xsd_iri("NCName"))


def test_path_ordinal_fallback_names(pipeline, bibliography_single_xml):
    schema, tbox, trace = pipeline
    onto = populate(parse_xml(bibliography_single_xml, "s"), schema, tbox, trace)
    fragments = {i.iri for i in onto.individuals}
    assert "bibliography_1.biblioentry_1.author_1" in fragments
    assert "bibliography_1.biblioentry_1.publisher_1" in fragments


def test_absent_optional_means_no_assertion(pipeline, bibliography_single_xml):
    schema, tbox, trace = pipeline
    onto = populate(parse_xml(bibliography_single_xml, "s"), schema, tbox, trace)
    author = next(i for i in onto.individuals if i.class_iri == "author")
    asserted = {p for p, _, _ in author.data_assertions}
    assert asserted == {"firstname", "surname"}  # no othername, no empty string


def test_conformance_every_property_declared(pipeline, bibliography_xml):
    schema, tbox, trace = pipeline
    onto = populate(parse_xml(bibliography_xml, "full"), schema, tbox, trace)
    objprops = {p.iri: p for p in onto.object_properties}
    dtprops = {p.iri: p for p in onto.datatype_properties}
    classes = {c.iri for c in onto.classes}
    for ind in onto.individuals:
        assert ind.class_iri in classes
        for prop, _ in ind.object_assertions:
            assert ind.class_iri in objprops[prop].domain
        for prop, _, _ in ind.data_assertions:
            assert ind.class_iri in dtprops[prop].domain


def test_count_law_full_document(pipeline, bibliography_xml):
    schema, tbox, trace = pipeline
    onto = populate(parse_xml(bibliography_xml, "full"), schema, tbox, trace)
    # 1 bibliography + 2 entries + 3 authors + 2 publishers
    assert len(onto.individuals) == 8


def test_object_assertions_mirror_structure(pipeline, bibliography_xml):
    schema, tbox, trace = pipeline
    onto = populate(parse_xml(bibliography_xml, "full"), schema, tbox, trace)
    entry_count = sum(
        1 for i in onto.individuals
        for p, _ in i.object_assertions if p == "hasbiblioentry"
    )
    author_count = sum(
        1 for i in onto.individuals
        for p, _ in i.object_assertions if p == "hasauthor"
    )
    assert entry_count == 2 and author_count == 3


def test_unvalidated_document_rejected(pipeline):
    schema, tbox, trace = pipeline
    bad = parse_xml(b'<bibliography id="x"><junk/></bibliography>', "bad")
    with pytest.raises(ValueError, match="validate"):
        populate(bad, schema, tbox, trace)


def test_naming_collision(pipeline):
    schema, tbox, trace = pipeline
    doc = parse_xml(
        b'<bibliography id="dup">'
        b'<biblioentry id="dup">'
        b"<author><firstname>A</firstname><surname>B</surname></author>"
        b"<title>t</title><publisher><publishername>p</publishername></publisher>"
        b"<pubdate>1</pubdate></biblioentry></bibliography>",
        "dup",
    )
    with pytest.raises(NamingCollision, match="dup"):
        populate(doc, schema, tbox, trace)


def without_ids(el: TreeElement) -> TreeElement:
    """A copy of the tree with no `id` attribute, so that every individual
    is named by its path."""
    return TreeElement(
        el.name,
        tuple((n, v) for n, v in el.attributes if n.local != "id"),
        tuple(c if isinstance(c, str) else without_ids(c) for c in el.children),
    )


def test_path_ordinals_unique_and_count_law_random(pipeline):
    # uniqueness-by-construction of path naming, and one individual per
    # element instance whose type maps to a class (group-free schemas)
    from xsgowl.infer import infer_schema
    from xsgowl.xsdmodel import BuiltinRef

    for seed in range(30):
        tree = TreeDocument(without_ids(random_tree(seed).root), f"random-{seed}")
        doc = parse_xml(serialize_xml(tree).encode(), tree.source_id)
        schema = infer_schema([doc])
        tbox, trace = generate_tbox(schema, build_xsg(schema), GenOptions(base_iri=BASE))
        onto = populate(doc, schema, tbox, trace)
        fragments = [i.iri for i in onto.individuals]
        assert len(fragments) == len(set(fragments)), f"seed {seed}"
        class_elements = {
            e.name for e in schema.global_elements
            if not isinstance(e.type, BuiltinRef)
        }
        expected = sum(
            1 for el in doc.iter_elements() if el.tag.local in class_elements
        )
        assert len(onto.individuals) == expected, f"seed {seed}"


def test_mixed_text_assertion():
    xsd = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="para">
        <xs:complexType mixed="true">
          <xs:sequence><xs:element minOccurs="0" ref="emph"/></xs:sequence>
        </xs:complexType>
      </xs:element>
      <xs:element name="emph" type="xs:string"/>
    </xs:schema>"""
    schema = read_schema(xsd, "t")
    tbox, trace = generate_tbox(schema, build_xsg(schema), GenOptions(base_iri=BASE))
    doc = parse_xml(b"<para>before <emph>loud</emph> after</para>", "d")
    onto = populate(doc, schema, tbox, trace)
    para = next(i for i in onto.individuals if i.class_iri == "para")
    data = {p: v for p, v, _ in para.data_assertions}
    assert data["hasTextContent"] == "before  after"
    assert data["emph"] == "loud"


def test_group_members_populate_via_synthetic_individual():
    xsd = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="record">
        <xs:complexType>
          <xs:sequence><xs:group ref="nameGroup"/></xs:sequence>
        </xs:complexType>
      </xs:element>
      <xs:element name="first" type="xs:NCName"/>
      <xs:element name="last" type="xs:NCName"/>
      <xs:group name="nameGroup">
        <xs:sequence><xs:element ref="first"/><xs:element ref="last"/></xs:sequence>
      </xs:group>
    </xs:schema>"""
    schema = read_schema(xsd, "t")
    tbox, trace = generate_tbox(schema, build_xsg(schema), GenOptions(base_iri=BASE))
    doc = parse_xml(b"<record><first>Ada</first><last>Lovelace</last></record>", "d")
    onto = populate(doc, schema, tbox, trace)
    by_class = {i.class_iri: i for i in onto.individuals}
    record, holder = by_class["record"], by_class["nameGroup"]
    assert record.object_assertions == ((
        next(p.iri for p in onto.object_properties), holder.iri
    ),)
    data = {p: v for p, v, _ in holder.data_assertions}
    assert data == {"first": "Ada", "last": "Lovelace"}


def test_groups_inherited_through_extension_populate():
    # the has<Group> properties hang off Base, which writes the references
    xsd = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="doc" type="Derived"/>
      <xs:element name="first" type="xs:NCName"/>
      <xs:element name="extra" type="xs:NCName"/>
      <xs:complexType name="Base">
        <xs:sequence><xs:group ref="G"/></xs:sequence>
        <xs:attributeGroup ref="AG"/>
      </xs:complexType>
      <xs:complexType name="Derived">
        <xs:complexContent><xs:extension base="Base">
          <xs:sequence><xs:element ref="extra"/></xs:sequence>
        </xs:extension></xs:complexContent>
      </xs:complexType>
      <xs:group name="G">
        <xs:sequence><xs:element ref="first"/></xs:sequence>
      </xs:group>
      <xs:attributeGroup name="AG">
        <xs:attribute name="lang" type="xs:NCName"/>
      </xs:attributeGroup>
    </xs:schema>"""
    schema = read_schema(xsd, "t")
    tbox, trace = generate_tbox(schema, build_xsg(schema), GenOptions(base_iri=BASE))
    doc = parse_xml(b'<doc lang="en"><first>Ada</first><extra>x</extra></doc>', "d")
    assert validate(doc, schema).ok
    onto = populate(doc, schema, tbox, trace)
    by_class = {i.class_iri: i for i in onto.individuals}
    assert set(by_class) == {"Derived", "G", "AG"}
    links = {p: t for p, t in by_class["Derived"].object_assertions}
    assert links == {"hasG": by_class["G"].iri, "hasAG": by_class["AG"].iri}
    assert {p: v for p, v, _ in by_class["Derived"].data_assertions} \
        == {"extra": "x"}
    assert {p: v for p, v, _ in by_class["G"].data_assertions} \
        == {"first": "Ada"}
    assert {p: v for p, v, _ in by_class["AG"].data_assertions} \
        == {"lang": "en"}


def test_each_leaf_text_read_once(monkeypatch):
    # the pass reads a simple-typed leaf's text for its check and hands it
    # to population, which reads no leaf's text again. A bare text leaf
    # costs one strip; only a leaf with attributes, namespace declarations
    # or children goes through text_content, as does mixed text, which
    # only population reads
    import xsgowl.abox as abox_module
    import xsgowl.xsdmodel as xsdmodel_module
    from xsgowl.xmldoc import text_content

    xsd = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="para">
        <xs:complexType mixed="true">
          <xs:sequence><xs:element maxOccurs="unbounded" ref="emph"/></xs:sequence>
        </xs:complexType>
      </xs:element>
      <xs:element name="emph" type="xs:string"/>
    </xs:schema>"""
    schema = read_schema(xsd, "t")
    tbox, trace = generate_tbox(schema, build_xsg(schema), GenOptions(base_iri=BASE))
    doc = parse_xml(b'<para>a <emph xmlns:x="urn:x">b</emph> c <emph>d</emph></para>', "d")
    para = doc.root
    declaring, bare = list(para)
    reads: list[int] = []

    def counted(element):
        reads.append(id(element))
        return text_content(element)

    monkeypatch.setattr(xsdmodel_module, "text_content", counted)
    monkeypatch.setattr(abox_module, "text_content", counted)
    onto = populate(doc, schema, tbox, trace)
    assert sorted(reads) == sorted([id(para), id(declaring)])
    (individual,) = onto.individuals
    assert sorted(v for _, v, _ in individual.data_assertions) == ["a  c", "b", "d"]


@pytest.mark.parametrize("n", [1000, 10000])
def test_populate_tracks_one_object_per_individual(n):
    # the collector scans what population leaves: the individuals and a
    # constant. Every assertion is a tuple of fragment strings, which a
    # collection stops tracking; an individual's tuple of assertions goes
    # untracked in the next one when the two sit in different generations.
    rows = "".join(f'<rec id="r{i}"><name>n{i}</name><val>{i}</val></rec>'
                   for i in range(n))
    doc = parse_xml(f"<root>{rows}</root>".encode(), "t")
    schema = infer_schema([doc])
    tbox, trace = generate_tbox(schema, build_xsg(schema), GenOptions(base_iri=BASE))
    gc.collect()
    gc.collect()
    before = len(gc.get_objects())
    onto = populate(doc, schema, tbox, trace)
    gc.collect()
    gc.collect()
    added = len(gc.get_objects()) - before
    individuals = len(onto.individuals)
    assert individuals == n + 1
    assert added <= individuals + 20, added - individuals
