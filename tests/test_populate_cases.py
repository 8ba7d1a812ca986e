"""Pinned `populate` results on hand-written schemas and documents.

Each case is an XSD and a document written to reach one corner of the
instance pass: group and attributeGroup holders (also inherited through
extension), mixed text, an `anyType` element, named simple types,
namespace declarations on leaves and on complex elements, ids that need
sanitizing, naming collisions and refused documents. The test compares
one SHA-256 per case and domain mode, over `populate`'s Turtle or the
name and message of the exception it raises, with
data/populate_case_digests.json. After a deliberate change, rewrite the
file with

    PYTHONPATH=src:tests python tests/test_populate_cases.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from xsgowl.abox import DocumentInvalid, NamingCollision, populate
from xsgowl.owlgen import GenOptions, generate_tbox
from xsgowl.owlmodel import serialize_turtle
from xsgowl.xmldoc import parse_xml
from xsgowl.xsdmodel import read_schema
from xsgowl.xsg import build_xsg

DIGESTS = Path(__file__).parent / "data" / "populate_case_digests.json"
BASE = "http://example.org/onto/cases"
MODES = {
    "union": GenOptions(base_iri=BASE),
    "literal": GenOptions(base_iri=BASE, union_domains=False),
}


def schema_text(body: str) -> bytes:
    return (f'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">{body}'
            f"</xs:schema>").encode()


# members reached through a group and an attributeGroup, in two records,
# so each record gets its own holders, and a record that uses no member
GROUPS = schema_text("""
  <xs:element name="book"><xs:complexType><xs:sequence>
    <xs:element name="record" maxOccurs="unbounded"><xs:complexType>
      <xs:sequence>
        <xs:element name="title" type="xs:string"/>
        <xs:group ref="names"/>
      </xs:sequence>
      <xs:attribute name="id" type="xs:NCName"/>
      <xs:attributeGroup ref="langs"/>
    </xs:complexType></xs:element>
  </xs:sequence></xs:complexType></xs:element>
  <xs:element name="first" type="xs:NCName"/>
  <xs:element name="last" type="xs:NCName"/>
  <xs:group name="names"><xs:sequence>
    <xs:element ref="first" minOccurs="0"/>
    <xs:element ref="last" minOccurs="0" maxOccurs="unbounded"/>
  </xs:sequence></xs:group>
  <xs:attributeGroup name="langs">
    <xs:attribute name="lang" type="xs:NCName"/>
    <xs:attribute name="year" type="xs:integer"/>
  </xs:attributeGroup>
""")

# groups and attributeGroups referenced by a base type and by the type
# that extends it, and a restriction of the base
EXTENSION = schema_text("""
  <xs:element name="doc"><xs:complexType><xs:sequence>
    <xs:element name="d" type="Derived" maxOccurs="unbounded"/>
    <xs:element name="b" type="Restricted" minOccurs="0"/>
  </xs:sequence></xs:complexType></xs:element>
  <xs:element name="first" type="xs:NCName"/>
  <xs:element name="extra" type="xs:integer"/>
  <xs:element name="note" type="xs:string"/>
  <xs:complexType name="Base">
    <xs:sequence><xs:group ref="G"/></xs:sequence>
    <xs:attributeGroup ref="AG"/>
  </xs:complexType>
  <xs:complexType name="Derived">
    <xs:complexContent><xs:extension base="Base">
      <xs:sequence><xs:element ref="extra"/><xs:group ref="H"/></xs:sequence>
      <xs:attribute name="kind" type="xs:NCName"/>
      <xs:attributeGroup ref="BG"/>
    </xs:extension></xs:complexContent>
  </xs:complexType>
  <xs:complexType name="Restricted">
    <xs:complexContent><xs:restriction base="Base">
      <xs:sequence><xs:element ref="first"/></xs:sequence>
    </xs:restriction></xs:complexContent>
  </xs:complexType>
  <xs:group name="G"><xs:sequence><xs:element ref="first"/></xs:sequence></xs:group>
  <xs:group name="H"><xs:sequence><xs:element ref="note" minOccurs="0"/></xs:sequence></xs:group>
  <xs:attributeGroup name="AG"><xs:attribute name="lang" type="xs:NCName"/></xs:attributeGroup>
  <xs:attributeGroup name="BG"><xs:attribute name="size" type="xs:integer"/></xs:attributeGroup>
""")

# mixed text, an anyType element with children and attributes, and named
# simple types on an element and on an attribute
MIXED = schema_text("""
  <xs:element name="page"><xs:complexType><xs:sequence>
    <xs:element name="para" maxOccurs="unbounded"><xs:complexType mixed="true">
      <xs:sequence>
        <xs:element name="emph" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
      <xs:attribute name="level" type="Level"/>
    </xs:complexType></xs:element>
    <xs:element name="blob" minOccurs="0"/>
    <xs:element name="code" type="Code" minOccurs="0"/>
    <xs:element name="any" type="xs:anySimpleType" minOccurs="0"/>
  </xs:sequence></xs:complexType></xs:element>
  <xs:simpleType name="Code"><xs:restriction base="xs:NCName"/></xs:simpleType>
  <xs:simpleType name="Level"><xs:restriction base="xs:integer"/></xs:simpleType>
""")

# the records workload's shape, as its inferred schema declares it
RECORDS = schema_text("""
  <xs:element name="recs"><xs:complexType><xs:sequence>
    <xs:element ref="rec" minOccurs="0" maxOccurs="unbounded"/>
  </xs:sequence></xs:complexType></xs:element>
  <xs:element name="rec"><xs:complexType>
    <xs:sequence>
      <xs:element ref="name"/>
      <xs:element ref="val" minOccurs="0"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:NCName" use="required"/>
  </xs:complexType></xs:element>
  <xs:element name="name" type="xs:NCName"/>
  <xs:element name="val" type="xs:integer"/>
  <xs:element name="leaf" type="xs:string"/>
""")

# ids of any text, on the root and on the records
IDS = schema_text("""
  <xs:element name="recs"><xs:complexType>
    <xs:sequence><xs:element ref="rec" maxOccurs="unbounded"/></xs:sequence>
    <xs:attribute name="id" type="xs:string"/>
  </xs:complexType></xs:element>
  <xs:element name="rec"><xs:complexType>
    <xs:sequence><xs:element ref="name"/></xs:sequence>
    <xs:attribute name="id" type="xs:string"/>
  </xs:complexType></xs:element>
  <xs:element name="name" type="xs:string"/>
""")

CASES = {
    "group-holders": (GROUPS, """<book>
      <record id="r1" lang="en" year="1999"><title>T</title><first>Ada</first>
        <last>Lovelace</last><last>Byron</last></record>
      <record lang="fr"><title>U</title></record>
      <record><title>V</title><last>Solo</last></record>
    </book>"""),
    "holders-through-extension": (EXTENSION, """<doc>
      <d lang="en" kind="k" size="3"><first>Ada</first><extra>1</extra><note>n</note></d>
      <d><first>Bo</first><extra>2</extra></d>
      <b><first>Cy</first></b>
    </doc>"""),
    "mixed-anytype-simple-types": (MIXED, """<page>
      <para level="2">before <emph>loud</emph> middle <emph>soft</emph> after</para>
      <para>   </para>
      <para><emph>only</emph></para>
      <blob q="1">x<y>inner</y> tail <z/></blob>
      <code>c-1</code>
      <any>  free text  </any>
    </page>"""),
    "xmlns-declarations": (RECORDS, """<recs xmlns="urn:d" xmlns:p="urn:p">
      <rec id="a" xmlns:q="urn:q"><name xmlns="urn:n">x</name><val xmlns:v="urn:v">1</val></rec>
      <rec p:id="b"><name xmlns:p="urn:p2">y</name></rec>
    </recs>"""),
    "ids-sanitized": (IDS, """<recs id="2 root">
      <rec id="1 a:b/é."><name>x</name></rec>
      <rec id="-x"><name>y</name></rec>
      <rec id="r·s"><name>z</name></rec>
    </recs>"""),
    "first-of-two-ids": (IDS, """<recs xmlns:p="urn:p">
      <rec p:id="first" id="second"><name>x</name></rec>
    </recs>"""),
    "paths-without-ids": (GROUPS, """<book>
      <record><title>T</title><first>A</first></record>
      <record><title>U</title><first>B</first></record>
    </book>"""),
    "naming-collision": (RECORDS, """<recs>
      <rec id="a"><name>x</name></rec>
      <rec id="b"><name>y</name></rec>
      <rec id="a"><name>z</name></rec>
      <rec id="b"><name>w</name></rec>
    </recs>"""),
    "collision-with-a-holder": (GROUPS, """<book>
      <record id="q"><title>T</title><first>A</first></record>
      <record id="q.names_1"><title>U</title></record>
    </book>"""),
    "collision-with-a-path": (IDS, """<recs>
      <rec><name>x</name></rec>
      <rec id="recs_1.rec_1"><name>y</name></rec>
    </recs>"""),
    "refused-before-a-collision": (IDS, """<recs>
      <rec id="a"><name>x</name></rec>
      <rec id="a"><name>y</name><name>z</name></rec>
    </recs>"""),
    "refused-first-three": (RECORDS, """<recs>
      <rec><name>1x</name><name>y</name><val>v</val><extra/></rec>
      <rec id="ok" size="3">stray<name a="1">x<i/></name></rec>
    </recs>"""),
    "refused-root": (RECORDS, "<other><rec id='a'><name>x</name></rec></other>"),
    "simple-root": (RECORDS, "<leaf>just text</leaf>"),
    "invalid-simple-root": (RECORDS, "<val k='1'>x<i/></val>"),
}


def outcome(xsd: bytes, xml: str, opts: GenOptions) -> str:
    schema = read_schema(xsd, "case.xsd")
    tbox, trace = generate_tbox(schema, build_xsg(schema), opts)
    doc = parse_xml(xml.encode(), "case.xml")
    try:
        return serialize_turtle(populate(doc, schema, tbox, trace))
    except (DocumentInvalid, NamingCollision) as exc:
        return f"{type(exc).__name__}: {exc}"


def outcomes() -> dict[str, str]:
    return {f"{case}/{mode}": outcome(xsd, xml, opts)
            for case, (xsd, xml) in CASES.items()
            for mode, opts in MODES.items()}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_cases_match_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = {key: digest(text) for key, text in outcomes().items()}
    changed = sorted(k for k in expected if actual.get(k) != expected[k])
    assert actual.keys() == expected.keys()
    assert changed == [], f"populate changed for {changed}"


def test_cases_reach_their_corners():
    found = outcomes()
    assert found["naming-collision/union"] == (
        "NamingCollision: individual IRI fragment 'a' produced twice: "
        "at 2:7 and 4:7")
    assert found["refused-first-three/union"].startswith("DocumentInvalid: ")
    assert found["refused-first-three/union"].count("; ") == 2
    assert found["refused-root/union"].endswith("/other: no global element 'other'")
    assert "hasTextContent" in found["mixed-anytype-simple-types/union"]
    holders = found["holders-through-extension/union"]
    for holder in ("G_1", "AG_1", "H_1", "BG_1"):
        assert f"doc_1.d_1.{holder}" in holders
    assert "NamingCollision" not in found["xmlns-declarations/union"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {key: digest(text) for key, text in sorted(outcomes().items())}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
