import random

import pytest

from xsgowl.owlmodel import (
    OWL_NS,
    RDF_NS,
    RDFS_LITERAL,
    RDFS_NS,
    XSD_ANYTYPE,
    FragmentAllocator,
    Individual,
    ObjectProperty,
    DatatypeProperty,
    OntologyModel,
    OwlClass,
    check_dl_profile,
    sanitize_fragment,
    serialize_rdfxml,
    serialize_turtle,
    xsd_iri,
)
from triples import parse_rdfxml, parse_turtle

BASE = "http://example.org/onto/test"


def small_model(**overrides) -> OntologyModel:
    classes = (
        OwlClass("author", "author"),
        OwlClass("biblioentry", "biblioentry"),
        OwlClass("bibliography", "bibliography"),
    )
    fields = dict(
        ontology_iri=BASE,
        classes=classes,
        object_properties=(
            ObjectProperty("hasauthor", ("biblioentry",), "author"),
        ),
        datatype_properties=(
            DatatypeProperty(
                "id", ("bibliography", "biblioentry"), xsd_iri("NCName")
            ),
        ),
    )
    fields.update(overrides)
    return OntologyModel(**fields)


def test_fragments_join_the_ontology_iri_in_both_writers():
    # an entity is named by its fragment alone; each writer joins it to
    # the model's one base
    model = small_model()
    for triples in (parse_turtle(serialize_turtle(model)),
                    parse_rdfxml(serialize_rdfxml(model))):
        assert (f"{BASE}#author", RDF_NS + "type", OWL_NS + "Class") in triples
        assert (f"{BASE}#hasauthor", RDFS_NS + "range", f"{BASE}#author") in triples


def test_empty_ontology_turtle():
    ttl = serialize_turtle(OntologyModel(ontology_iri=BASE))
    triples = parse_turtle(ttl)
    assert triples == {(BASE, "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                        "http://www.w3.org/2002/07/owl#Ontology")}


def test_empty_ontology_rdfxml():
    xml = serialize_rdfxml(OntologyModel(ontology_iri=BASE))
    assert parse_rdfxml(xml) == parse_turtle(serialize_turtle(OntologyModel(ontology_iri=BASE)))


def test_serializations_agree_on_model():
    model = small_model()
    assert parse_turtle(serialize_turtle(model)) == parse_rdfxml(serialize_rdfxml(model))


def test_union_domain_expression():
    ttl = serialize_turtle(small_model())
    assert "owl:unionOf ( :bibliography :biblioentry )" in ttl


def test_cardinality_restriction_axioms():
    model = small_model(object_properties=(
        ObjectProperty("hasauthor", ("biblioentry",), "author",
                       cardinality=(1, 1)),
    ))
    ttl = serialize_turtle(model)
    assert ttl.count("owl:Restriction") == 2
    assert 'owl:minCardinality "1"^^xsd:nonNegativeInteger' in ttl
    assert 'owl:maxCardinality "1"^^xsd:nonNegativeInteger' in ttl
    assert parse_turtle(ttl) == parse_rdfxml(serialize_rdfxml(model))


def test_individuals_serialize_and_agree():
    model = small_model(individuals=(
        Individual(
            "FHIW13C-1234", "biblioentry",
            object_assertions=(("hasauthor", "a1"),),
            data_assertions=(("id", "FHIW13C-1234", xsd_iri("NCName")),),
        ),
        Individual("a1", "author"),
    ))
    ttl = serialize_turtle(model)
    triples = parse_turtle(ttl)
    assert (f"{BASE}#FHIW13C-1234", BASE + "#hasauthor", f"{BASE}#a1") in triples
    assert (f"{BASE}#FHIW13C-1234", BASE + "#id",
            ("lit", "FHIW13C-1234", xsd_iri("NCName"))) in triples
    assert triples == parse_rdfxml(serialize_rdfxml(model))


def test_determinism():
    model = small_model()
    assert serialize_turtle(model) == serialize_turtle(small_model())
    assert serialize_rdfxml(model) == serialize_rdfxml(small_model())


def test_entities_sorted_by_fragment():
    ttl = serialize_turtle(small_model())
    assert ttl.index(":author a owl:Class") < ttl.index(":biblioentry a owl:Class") \
        < ttl.index(":bibliography a owl:Class")


SPECIAL = ["\\", '"', "\n", "\r", "\t", "&", "<", ">"]
TURTLE_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
XML_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}


def escaped(text: str, escapes: dict[str, str]) -> str:
    return "".join(escapes.get(c, c) for c in text)


def test_string_escaping_round_trips():
    # each character that either syntax escapes, alone and all together, in
    # a literal and a label, in a model whose base IRI holds "&"
    base = "http://example.org/onto/t&u"
    author, note = "author", "note"
    for special in SPECIAL + ["".join(SPECIAL)]:
        value, label = f"v{special}w", f"label{special}"
        model = OntologyModel(
            ontology_iri=base,
            classes=(OwlClass(author, label),),
            datatype_properties=(DatatypeProperty(note, (author,), xsd_iri("string")),),
            individuals=(Individual("x", author, data_assertions=(
                (note, value, xsd_iri("string")),
            )),),
        )
        ttl, rdf = serialize_turtle(model), serialize_rdfxml(model)
        assert parse_turtle(ttl) == parse_rdfxml(rdf), repr(special)
        assert f':note "{escaped(value, TURTLE_ESCAPES)}"^^xsd:string .' in ttl
        assert f'rdfs:label "{escaped(label, TURTLE_ESCAPES)}" .' in ttl
        assert f"@prefix : <{base}#> ." in ttl
        assert f">{escaped(value, XML_ESCAPES)}</ont:note>" in rdf
        assert f"<rdfs:label>{escaped(label, XML_ESCAPES)}</rdfs:label>" in rdf
        assert 'rdf:about="http://example.org/onto/t&amp;u#x"' in rdf
        assert 'xmlns:ont="http://example.org/onto/t&amp;u#"' in rdf


def test_referential_closure_enforced():
    with pytest.raises(ValueError):
        OntologyModel(
            ontology_iri=BASE,
            object_properties=(
                ObjectProperty("hasx", ("ghost",), "ghost"),
            ),
        )
    with pytest.raises(ValueError, match="duplicate"):
        OntologyModel(
            ontology_iri=BASE,
            classes=(OwlClass("a", "a"), OwlClass("a", "a")),
        )


def test_fragment_in_both_property_kinds_rejected():
    # OWL 2 DL forbids one IRI as both an object and a datatype property
    with pytest.raises(ValueError) as caught:
        small_model(datatype_properties=(
            DatatypeProperty("hasauthor", ("author",), xsd_iri("string")),
        ))
    assert str(caught.value) == (
        "fragment 'hasauthor' is both an object and a datatype property"
    )


@pytest.mark.parametrize("overrides, message", [
    (dict(classes=(OwlClass("a", "a", subclass_of="ghost"),)),
     f"subclass base {BASE}#ghost is not declared"),
    (dict(object_properties=(ObjectProperty("hasx", ("ghost",), "author"),)),
     "domain of hasx is not a declared class"),
    (dict(datatype_properties=(DatatypeProperty("d", ("ghost",), xsd_iri("string")),)),
     "domain of d is not a declared class"),
    (dict(individuals=(Individual("x", "ghost"),)),
     "individual x has undeclared class"),
    (dict(individuals=(Individual("x", "author",
                                  object_assertions=(("ghost", "x"),)),)),
     "undeclared object property ghost"),
    (dict(individuals=(Individual("x", "biblioentry",
                                  object_assertions=(("hasauthor", "ghost"),)),)),
     "assertion target ghost is not declared"),
    (dict(individuals=(Individual("x", "author",
                                  data_assertions=(("ghost", "1", ""),)),)),
     "undeclared datatype property ghost"),
], ids=["subclass-base", "object-property-domain", "datatype-property-domain",
        "individual-class", "object-property", "assertion-target", "datatype-property"])
def test_undeclared_reference_rejected(overrides, message):
    with pytest.raises(ValueError) as caught:
        small_model(**overrides)
    assert str(caught.value) == message


def test_custom_datatype_written_as_full_iri():
    # a datatype outside XSD and rdfs:Literal has no prefix to shorten it
    custom = "http://example.org/types#code"
    model = small_model(
        datatype_properties=(DatatypeProperty("code", ("author",), custom),),
        individuals=(Individual("x", "author",
                                data_assertions=(("code", "A-1", custom),)),),
    )
    ttl = serialize_turtle(model)
    assert f"rdfs:range <{custom}> ." in ttl
    assert f'"A-1"^^<{custom}>' in ttl
    assert parse_turtle(ttl) == parse_rdfxml(serialize_rdfxml(model))


def test_invalid_literal_rejected():
    with pytest.raises(ValueError, match="lexically"):
        small_model(individuals=(
            Individual("x", "author", data_assertions=(
                ("id", "not an ncname!", xsd_iri("NCName")),
            )),
        ))


def literal_model(datatype: str, *values: str) -> OntologyModel:
    """`small_model` with a `d` property of range xsd:datatype, and one
    individual per value that asserts it."""
    return small_model(
        datatype_properties=(DatatypeProperty("d", ("author",), xsd_iri(datatype)),),
        individuals=tuple(
            Individual(f"x{k}", "author",
                       data_assertions=(("d", value, xsd_iri(datatype)),))
            for k, value in enumerate(values)
        ),
    )


def test_first_faulty_individual_is_reported():
    # the check runs over the whole model at once, but the error still
    # names the first individual, in model order, that has a fault
    bad_literal = Individual("x", "author", data_assertions=(
        ("id", "not an ncname!", xsd_iri("NCName")),))
    bad_class = Individual("y", "ghost")
    with pytest.raises(ValueError) as caught:
        small_model(individuals=(bad_literal, bad_class))
    assert str(caught.value) == (
        "value 'not an ncname!' is not lexically valid for " + xsd_iri("NCName"))
    with pytest.raises(ValueError) as caught:
        small_model(individuals=(bad_class, bad_literal))
    assert str(caught.value) == "individual y has undeclared class"


def test_integer_literal_with_a_line_feed_rejected():
    with pytest.raises(ValueError) as caught:
        literal_model("integer", "1", "2\n3", "4")
    assert str(caught.value) == (
        "value '2\\n3' is not lexically valid for " + xsd_iri("integer"))


def test_non_ascii_ncname_literals_accepted():
    model = literal_model("NCName", "é", "名前", "naïve-name")
    assert len(model.individuals) == 3


def test_invalid_long_literal_rejected():
    with pytest.raises(ValueError) as caught:
        literal_model("long", "42", "-7", "4.2")
    assert str(caught.value) == (
        "value '4.2' is not lexically valid for " + xsd_iri("long"))


@pytest.mark.parametrize("bad", ["NCName", "integer", "decimal", "boolean", "long"])
def test_each_literal_datatype_is_checked(bad):
    # valid literals of four datatypes beside one invalid of a fifth
    valid = {"NCName": "x1", "integer": "-7", "decimal": "2.5", "boolean": "0",
             "long": "42"}
    types = list(valid)
    individuals = tuple(
        Individual(f"x{k}", "author", data_assertions=(
            (f"d{k}", "not valid!" if t == bad else valid[t], xsd_iri(t)),))
        for k, t in enumerate(types)
    )
    with pytest.raises(ValueError) as caught:
        small_model(
            datatype_properties=tuple(
                DatatypeProperty(f"d{k}", ("author",), xsd_iri(t))
                for k, t in enumerate(types)),
            individuals=individuals,
        )
    assert str(caught.value) == (
        "value 'not valid!' is not lexically valid for " + xsd_iri(bad))


def test_subclass_axiom_serialized():
    model = small_model(classes=(
        OwlClass("author", "author", subclass_of="bibliography"),
        OwlClass("biblioentry", "biblioentry"),
        OwlClass("bibliography", "bibliography"),
    ))
    triples = parse_turtle(serialize_turtle(model))
    assert (f"{BASE}#author", "http://www.w3.org/2000/01/rdf-schema#subClassOf",
            f"{BASE}#bibliography") in triples
    assert triples == parse_rdfxml(serialize_rdfxml(model))


def test_check_dl_profile_anytype():
    model = small_model(datatype_properties=(
        DatatypeProperty("isbn", ("author",), XSD_ANYTYPE),
    ))
    warnings = check_dl_profile(model)
    assert len(warnings) == 1 and "isbn" in warnings[0] and "anyType" in warnings[0]


def test_check_dl_profile_clean():
    assert check_dl_profile(small_model()) == []
    assert check_dl_profile(OntologyModel(ontology_iri=BASE)) == []


def test_rdfs_literal_range_plain_literals():
    model = small_model(
        datatype_properties=(
            DatatypeProperty("any", ("author",), RDFS_LITERAL),
        ),
        individuals=(
            Individual("x", "author",
                       data_assertions=(("any", "free text", ""),)),
        ),
    )
    ttl = serialize_turtle(model)
    assert 'rdfs:range rdfs:Literal' in ttl
    assert '"free text" .' in ttl or '"free text" ;' in ttl
    assert parse_turtle(ttl) == parse_rdfxml(serialize_rdfxml(model))


def test_referential_closure_of_output():
    # everything the writers mention under the ontology base is declared
    model = small_model()
    triples = parse_turtle(serialize_turtle(model))
    declared = {s for s, p, o in triples
                if p == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
                and isinstance(s, str)}

    def mentioned(term, acc):
        if isinstance(term, str) and term.startswith(BASE + "#"):
            acc.add(term)
        elif isinstance(term, tuple) and term[0] == "bnode":
            for _, o in term[1]:
                mentioned(o, acc)
        elif isinstance(term, tuple) and term[0] == "list":
            for o in term[1]:
                mentioned(o, acc)

    used: set = set()
    for s, p, o in triples:
        mentioned(s, used)
        mentioned(o, used)
    assert used <= declared


def test_sanitize_fragment():
    assert sanitize_fragment("foo bar") == "foo_bar"
    assert sanitize_fragment("9lives") == "_9lives"
    assert sanitize_fragment("x.y-z_1") == "x.y-z_1"
    assert sanitize_fragment("") == "_"


def test_fragment_allocator_suffixes_and_notes():
    alloc = FragmentAllocator("class")
    assert alloc.allocate("a") == "a"
    assert alloc.allocate("a") == "a_2"
    assert alloc.allocate("a") == "a_3"
    assert alloc.allocate("b c") == "b_c"
    assert len(alloc.notes) == 3


def scanning_allocations(category: str, names: list[str]):
    """Reference allocator: every collision searches upward from _2."""
    taken, fragments, notes = set(), [], []
    for name in names:
        fragment = sanitize_fragment(name)
        if fragment != name:
            notes.append(f"{category} name {name!r} sanitized to {fragment!r}")
        if fragment in taken:
            n = 2
            while f"{fragment}_{n}" in taken:
                n += 1
            notes.append(
                f"{category} name {fragment!r} already used; renamed to {fragment}_{n}"
            )
            fragment = f"{fragment}_{n}"
        taken.add(fragment)
        fragments.append(fragment)
    return fragments, notes


def test_fragment_allocator_matches_scanning_reference():
    # pre-taken suffixed names make the free suffix jump and later collide
    pool = ["x", "x", "x", "x_2", "x_3", "x_5", "x_3_2", "x y", "x_y", "y", "y_2", "9"]
    for seed in range(200):
        rng = random.Random(seed)
        names = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
        alloc = FragmentAllocator("class")
        fragments = [alloc.allocate(n) for n in names]
        assert (fragments, alloc.notes) == scanning_allocations("class", names), names
