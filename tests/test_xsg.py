import graphlib
import logging
import re

import pytest

from xsgowl.infer import infer_schema
from xsgowl.xsdmodel import read_schema
from xsgowl.xsg import (
    ATTRIBUTE,
    COMPLEX_TYPE,
    EDGE_ELEMENT_TYPE,
    EDGE_MEMBER,
    ELEMENT,
    EmptySchema,
    build_xsg,
    is_tree,
    to_dot,
)
from randgen import random_document, random_schema

RECURSIVE_SCHEMA = b"""<?xml version="1.0" encoding="UTF-8"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="assembly">
    <xs:complexType><xs:sequence>
      <xs:element ref="part"/>
    </xs:sequence></xs:complexType>
  </xs:element>
  <xs:element name="part">
    <xs:complexType><xs:sequence>
      <xs:element minOccurs="0" ref="part"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>
"""


def cycle_free(graph, *, drop_back_edges: bool) -> bool:
    """Independent acyclicity check via stdlib topological sorting."""
    back = set(graph.back_edges) if drop_back_edges else set()
    sorter = graphlib.TopologicalSorter({v.id: [] for v in graph.vertices})
    for e in graph.edges:
        if e.id not in back:
            sorter.add(e.dst, e.src)
    try:
        sorter.prepare()
        return True
    except graphlib.CycleError:
        return False


def canonical_shape(graph):
    """Vertex/edge multisets keyed by kind+label, for isomorphism checks."""
    label = {v.id: (v.kind, v.label) for v in graph.vertices}
    vertices = sorted(label.values())
    edges = sorted(
        (label[e.src], label[e.dst], e.kind, e.occurs) for e in graph.edges
    )
    return vertices, edges


def test_golden_counts(bibliography_xsd):
    g = build_xsg(read_schema(bibliography_xsd, "g"))
    # hand count: 10 element + 2 attribute + 4 anonymous-type vertices;
    # 4 element-to-type edges + 11 member edges
    assert len(g.vertices) == 16
    assert len(g.edges) == 15
    assert sum(1 for v in g.vertices if v.kind == ELEMENT) == 10
    assert sum(1 for v in g.vertices if v.kind == ATTRIBUTE) == 2
    assert sum(1 for v in g.vertices if v.kind == COMPLEX_TYPE) == 4
    assert sum(1 for e in g.edges if e.kind == EDGE_ELEMENT_TYPE) == 4
    assert sum(1 for e in g.edges if e.kind == EDGE_MEMBER) == 11
    assert [g.vertices[r].label for r in g.roots] == ["bibliography"]
    assert g.back_edges == []
    assert is_tree(g)


def test_occurrence_facets_on_edges(bibliography_xsd):
    g = build_xsg(read_schema(bibliography_xsd, "g"))
    occurs = {
        (g.vertices[e.src].label, g.vertices[e.dst].label): e.occurs
        for e in g.edges if e.kind == EDGE_MEMBER
    }
    assert occurs[("bibliography_type", "biblioentry")] == (1, None)
    assert occurs[("author_type", "othername")] == (0, 1)
    assert occurs[("author_type", "surname")] == (1, 1)


def test_primitive_only_element():
    g = build_xsg(read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="a" type="xs:string"/>
        </xs:schema>""", "t"))
    assert len(g.vertices) == 1
    assert len(g.edges) == 0
    assert g.roots == [0]
    assert is_tree(g)


def test_defined_simple_type_gets_vertex_and_edge():
    g = build_xsg(read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="isbn" type="isbnType"/>
          <xs:simpleType name="isbnType"><xs:restriction base="xs:string"/></xs:simpleType>
        </xs:schema>""", "t"))
    assert len(g.vertices) == 2
    (edge,) = g.edges
    assert edge.kind == EDGE_ELEMENT_TYPE


def test_recursive_schema_one_back_edge():
    g = build_xsg(read_schema(RECURSIVE_SCHEMA, "t"))
    assert len(g.back_edges) == 1
    assert cycle_free(g, drop_back_edges=True)
    assert not cycle_free(g, drop_back_edges=False)
    assert not is_tree(g)


def test_self_recursive_root_fallback(caplog):
    schema = read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="a">
            <xs:complexType><xs:sequence>
              <xs:element minOccurs="0" ref="a"/>
            </xs:sequence></xs:complexType>
          </xs:element>
        </xs:schema>""", "t")
    with caplog.at_level(logging.WARNING, logger="xsgowl.xsg"):
        g = build_xsg(schema)
    assert [g.vertices[r].label for r in g.roots] == ["a"]
    assert len(g.back_edges) == 1
    assert any("root" in r.message for r in caplog.records)


def test_reuse_is_not_a_tree():
    g = build_xsg(read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="r"><xs:complexType><xs:sequence>
            <xs:element ref="x"/><xs:element ref="y"/>
          </xs:sequence></xs:complexType></xs:element>
          <xs:element name="x"><xs:complexType><xs:sequence>
            <xs:element ref="name"/>
          </xs:sequence></xs:complexType></xs:element>
          <xs:element name="y"><xs:complexType><xs:sequence>
            <xs:element ref="name"/>
          </xs:sequence></xs:complexType></xs:element>
          <xs:element name="name" type="xs:string"/>
        </xs:schema>""", "t"))
    assert not is_tree(g)  # "name" has in-degree 2
    assert not g.back_edges  # reuse alone is no cycle


def test_multiple_roots_warn(caplog):
    schema = read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="a" type="xs:string"/>
          <xs:element name="b" type="xs:string"/>
        </xs:schema>""", "t")
    with caplog.at_level(logging.WARNING, logger="xsgowl.xsg"):
        g = build_xsg(schema)
    assert len(g.roots) == 2
    assert any("multiple roots" in r.message for r in caplog.records)


def test_unreachable_vertices_warn(caplog):
    # a named type used only as a derivation base has no incoming edge
    schema = read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="a" type="xs:string"/>
          <xs:complexType name="orphan"><xs:sequence/></xs:complexType>
        </xs:schema>""", "t")
    with caplog.at_level(logging.WARNING, logger="xsgowl.xsg"):
        g = build_xsg(schema)
    assert len(g.vertices) == 2
    assert any("unreachable" in r.message for r in caplog.records)


def test_empty_schema_rejected():
    schema = read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:complexType name="t"><xs:sequence/></xs:complexType>
        </xs:schema>""", "t")
    with pytest.raises(EmptySchema):
        build_xsg(schema)


def test_style_neutrality(bibliography_xsd, bibliography_nested_xsd):
    flat = build_xsg(read_schema(bibliography_xsd, "flat"))
    nested = build_xsg(read_schema(bibliography_nested_xsd, "nested"))
    assert canonical_shape(flat) == canonical_shape(nested)
    assert [nested.vertices[r].label for r in nested.roots] == ["bibliography"]


def test_acyclic_after_back_edge_removal_random():
    for seed in range(60):
        g = build_xsg(random_schema(seed))
        assert cycle_free(g, drop_back_edges=True), f"seed {seed}"


def test_adjacency_equals_edge_scans():
    for seed in range(100):
        for schema in (random_schema(seed), infer_schema([random_document(seed)])):
            g = build_xsg(schema)
            in_degrees = [sum(1 for e in g.edges if e.dst == v.id) for v in g.vertices]
            for v in g.vertices:
                assert list(g.out_edges(v.id)) == [e for e in g.edges if e.src == v.id]
                assert g.in_degree(v.id) == in_degrees[v.id]
            scanned_tree = (
                not g.back_edges and len(g.roots) == 1
                and all(d == (0 if v == g.roots[0] else 1) for v, d in enumerate(in_degrees))
            )
            assert is_tree(g) == scanned_tree, f"seed {seed}"


def test_deterministic_ids(bibliography_xsd):
    a = build_xsg(read_schema(bibliography_xsd, "g"))
    b = build_xsg(read_schema(bibliography_xsd, "g"))
    assert [(v.id, v.kind, v.label) for v in a.vertices] == \
        [(v.id, v.kind, v.label) for v in b.vertices]
    assert to_dot(a) == to_dot(b)


# --- DOT output -------------------------------------------------------------


def node_statements(dot: str) -> list[str]:
    return re.findall(r"^\s*v\d+ \[label=", dot, re.M)


def edge_statements(dot: str) -> list[str]:
    return re.findall(r"^\s*v\d+ -> v\d+", dot, re.M)


def test_dot_single_vertex():
    dot = to_dot(build_xsg(read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="a" type="xs:string"/>
        </xs:schema>""", "t")))
    assert len(node_statements(dot)) == 1
    assert len(edge_statements(dot)) == 0


def test_dot_golden_counts(bibliography_xsd):
    dot = to_dot(build_xsg(read_schema(bibliography_xsd, "g")))
    assert len(node_statements(dot)) == 16
    assert len(edge_statements(dot)) == 15
    assert "shape=ellipse" in dot and "shape=diamond" in dot and "shape=box" in dot


def test_dot_back_edge_dashed():
    dot = to_dot(build_xsg(read_schema(RECURSIVE_SCHEMA, "t")))
    assert dot.count("style=dashed") == 1


# a DOT quoted string: any character but `"` and `\`, or a `\` pair
DOT_NODE = re.compile(r'  v(\d+) \[label="((?:[^"\\]|\\.)*)", shape=\w+\];')


def test_dot_labels_escaped():
    graph = build_xsg(read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="r"><xs:complexType><xs:sequence>
            <xs:element name="a&quot;b" type="xs:string"/>
            <xs:element name="c\\d" type="xs:string"/>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>""", "t"))
    lines = [line for line in to_dot(graph).splitlines() if "[label=" in line
             and "->" not in line]
    decoded = []
    for line in lines:
        m = DOT_NODE.fullmatch(line)
        assert m is not None, line
        decoded.append(re.sub(r"\\(.)", r"\1", m.group(2)))
    assert decoded == [v.label for v in graph.vertices]
    assert {'a"b', "c\\d"} <= set(decoded)
