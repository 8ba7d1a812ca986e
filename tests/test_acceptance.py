"""Acceptance suite: one test per release criterion, one PASS/FAIL line
each (written past pytest's capture so the verdicts always show)."""

import functools
import time

from xsgowl.abox import populate
from xsgowl.cli import EXIT_OK, main
from xsgowl.infer import infer_schema
from xsgowl.owlgen import GenOptions, generate_tbox
from xsgowl.owlmodel import xsd_iri
from xsgowl.xmldoc import parse_xml
from xsgowl.xsdmodel import BuiltinRef, read_schema, validate
from xsgowl.xsg import build_xsg, is_tree
from randgen import random_document, random_schema
from triples import entity_inventory, parse_rdfxml, parse_turtle
from test_xsg import cycle_free

BASE = "http://example.org/onto"


def criterion(number: int, description: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from conftest import acceptance_results
            try:
                fn(*args, **kwargs)
            except BaseException:
                acceptance_results.append(f"FAIL criterion {number}: {description}")
                raise
            acceptance_results.append(f"PASS criterion {number}: {description}")
        return wrapper
    return deco


@criterion(1, "golden worked example: exact TBox inventory, < 1 s")
def test_criterion_1_golden_example(tmp_path, data_dir):
    started = time.perf_counter()
    code = main([
        "generate", str(data_dir / "bibliography.xml"),
        "--base-iri", BASE, "--out-dir", str(tmp_path), "--emit-trace",
    ])
    elapsed = time.perf_counter() - started
    assert code == EXIT_OK
    assert elapsed < 1.0, f"took {elapsed:.2f}s"

    schema = infer_schema([parse_xml(
        (data_dir / "bibliography.xml").read_bytes(), "b")])
    onto, trace = generate_tbox(
        schema, build_xsg(schema), GenOptions(base_iri=f"{BASE}/bibliography")
    )
    assert {c.iri for c in onto.classes} == {
        "bibliography", "biblioentry", "author", "publisher"
    }
    assert {
        (p.iri, p.domain[0], p.range)
        for p in onto.object_properties
    } == {
        ("hasbiblioentry", "bibliography", "biblioentry"),
        ("hasauthor", "biblioentry", "author"),
        ("haspublisher", "biblioentry", "publisher"),
    }
    assert {
        (p.iri, tuple(sorted(p.domain)), p.range)
        for p in onto.datatype_properties
    } == {
        ("id", ("biblioentry", "bibliography"), xsd_iri("NCName")),
        ("title", ("biblioentry",), xsd_iri("string")),
        ("pubdate", ("biblioentry",), xsd_iri("integer")),
        ("firstname", ("author",), xsd_iri("NCName")),
        ("surname", ("author",), xsd_iri("NCName")),
        ("othername", ("author",), xsd_iri("NCName")),
        ("publishername", ("publisher",), xsd_iri("string")),
    }
    # literal-domain reading: one property per Table row
    literal, _ = generate_tbox(
        schema, build_xsg(schema),
        GenOptions(base_iri=f"{BASE}/bibliography", union_domains=False),
    )
    assert len(literal.datatype_properties) == 8


@criterion(2, "schema inference reproduces the reference schema, < 1 s")
def test_criterion_2_inference_fidelity(tmp_path, data_dir, bibliography_xsd):
    started = time.perf_counter()
    out = tmp_path / "inferred.xsd"
    code = main(["infer-schema", str(data_dir / "bibliography.xml"), str(out)])
    elapsed = time.perf_counter() - started
    assert code == EXIT_OK
    assert elapsed < 1.0, f"took {elapsed:.2f}s"

    inferred = read_schema(out.read_bytes(), "inferred")
    golden = read_schema(bibliography_xsd, "golden")
    assert inferred == golden  # full structural equality, and piecewise:
    assert {e.name for e in inferred.global_elements} == {
        "bibliography", "biblioentry", "author", "firstname", "othername",
        "surname", "title", "publisher", "publishername", "pubdate",
    }
    entry = inferred.element("biblioentry").type
    assert [p.name for p in entry.particles] == ["author", "title", "publisher", "pubdate"]
    assert entry.particles[0].max_occurs is None
    assert inferred.element("bibliography").type.particles[0].max_occurs is None
    author = inferred.element("author").type
    assert [(p.name, p.min_occurs) for p in author.particles] == [
        ("firstname", 1), ("othername", 0), ("surname", 1),
    ]
    for holder in ("bibliography", "biblioentry"):
        (attr,) = inferred.element(holder).type.attributes
        assert attr.name == "id" and attr.required
        assert attr.datatype == BuiltinRef("NCName")
    assert inferred.element("title").type == BuiltinRef("string")
    assert inferred.element("pubdate").type == BuiltinRef("integer")
    assert inferred.element("firstname").type == BuiltinRef("NCName")


@criterion(3, "schema graph shape: 16 vertices, 15 edges, unique root, tree")
def test_criterion_3_graph_shape(tmp_path, data_dir, bibliography_xsd):
    graph = build_xsg(read_schema(bibliography_xsd, "g"))
    assert len(graph.vertices) == 16
    assert len(graph.edges) == 15
    assert [graph.vertices[r].label for r in graph.roots] == ["bibliography"]
    assert is_tree(graph)
    assert graph.back_edges == []

    out = tmp_path / "g.dot"
    assert main(["graph", str(data_dir / "bibliography.xsd"), str(out)]) == EXIT_OK
    import re
    dot = out.read_text()
    assert len(re.findall(r"^\s*v\d+ \[label=", dot, re.M)) == 16
    assert len(re.findall(r"^\s*v\d+ -> v\d+", dot, re.M)) == 15


@criterion(4, "property suite: soundness, invariance, counts, determinism, DAG, trace")
def test_criterion_4_property_suite(tmp_path, data_dir, bibliography_xsd,
                                     bibliography_nested_xsd):
    # inference soundness over 200 random documents
    for seed in range(200):
        doc = random_document(seed)
        report = validate(doc, infer_schema([doc]))
        assert report.ok, f"seed {seed}: {report.violations[:3]}"

    # style invariance: flat and fully nested schemas, identical ontologies
    flat_schema = read_schema(bibliography_xsd, "flat")
    nested_schema = read_schema(bibliography_nested_xsd, "nested")
    flat, _ = generate_tbox(flat_schema, build_xsg(flat_schema), GenOptions(BASE))
    nested, _ = generate_tbox(nested_schema, build_xsg(nested_schema), GenOptions(BASE))
    assert flat == nested

    # class-count law and trace bijection on every random schema
    for seed in range(100):
        schema = random_schema(seed)
        graph = build_xsg(schema)
        onto, trace = generate_tbox(schema, graph, GenOptions(BASE))
        anon = sum(1 for v in graph.vertices
                   if v.kind == "complex-type" and v.schema_ref.name is None)
        named = sum(1 for t in schema.global_types if hasattr(t, "particles"))
        assert len(onto.classes) == anon + named + \
            len(schema.element_groups) + len(schema.attribute_groups), f"seed {seed}"
        subclass_axioms = sum(1 for c in onto.classes if c.subclass_of is not None)
        assert len(trace.bridges) == (
            len(onto.classes) + subclass_axioms
            + len(onto.object_properties) + len(onto.datatype_properties)
        ), f"seed {seed}"
        # DAG property
        assert cycle_free(graph, drop_back_edges=True), f"seed {seed}"

    # recursive fixture: exactly one back edge
    recursive = read_schema(
        b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="part">
            <xs:complexType><xs:sequence>
              <xs:element minOccurs="0" ref="part"/>
            </xs:sequence></xs:complexType>
          </xs:element>
        </xs:schema>""", "rec")
    assert len(build_xsg(recursive).back_edges) == 1

    # determinism: byte-identical outputs over two full runs
    argv = ["generate", str(data_dir / "bibliography.xml"), "--base-iri", BASE,
            "--format", "both", "--emit-schema", "--emit-dot", "--emit-trace",
            "--with-instances"]
    assert main(argv + ["--out-dir", str(tmp_path / "one")]) == EXIT_OK
    assert main(argv + ["--out-dir", str(tmp_path / "two")]) == EXIT_OK
    for name in ("bibliography.ttl", "bibliography.rdf", "bibliography.xsd",
                 "bibliography.dot", "bibliography.trace.tsv"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name


@criterion(5, "instance population: 4 conformant individuals, typed literals")
def test_criterion_5_abox(data_dir, bibliography_xsd, bibliography_single_xml):
    schema = read_schema(bibliography_xsd, "g")
    tbox, trace = generate_tbox(
        schema, build_xsg(schema), GenOptions(base_iri=f"{BASE}/bibliography")
    )
    doc = parse_xml(bibliography_single_xml, "single")
    onto = populate(doc, schema, tbox, trace)

    assert len(onto.individuals) == 4
    fragments = {i.iri for i in onto.individuals}
    assert {"personal_identity", "FHIW13C-1234"} <= fragments

    declared_obj = {p.iri for p in onto.object_properties}
    declared_dt = {p.iri for p in onto.datatype_properties}
    for ind in onto.individuals:
        for prop, _ in ind.object_assertions:
            assert prop in declared_obj
        for prop, _, _ in ind.data_assertions:
            assert prop in declared_dt

    entry = next(i for i in onto.individuals if i.iri == "FHIW13C-1234")
    assert (next(p for p in onto.datatype_properties if p.iri == "pubdate").iri,
            "1977", xsd_iri("integer")) in entry.data_assertions


@criterion(6, "Turtle and RDF/XML declare identical entity inventories")
def test_criterion_6_serialization_agreement(tmp_path, data_dir):
    fixtures = [
        ("bibliography.xml", ["--with-instances"]),
        ("bibliography.xml", ["--with-cardinality", "--emit-trace"]),
        ("bibliography.xml", ["--literal-domains"]),
        ("bibliography.xsd", []),
        ("bibliography_nested.xsd", []),
    ]
    for i, (name, extra) in enumerate(fixtures):
        out = tmp_path / str(i)
        code = main(["generate", str(data_dir / name), "--out-dir", str(out),
                     "--format", "both"] + extra)
        assert code == EXIT_OK
        stem = name.split(".")[0]
        turtle = parse_turtle((out / f"{stem}.ttl").read_text())
        rdfxml = parse_rdfxml((out / f"{stem}.rdf").read_text())
        assert entity_inventory(turtle) == entity_inventory(rdfxml), name
        assert turtle == rdfxml, name  # stronger: the full triple sets agree
