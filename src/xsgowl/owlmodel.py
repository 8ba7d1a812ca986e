"""OWL-DL entity model with Turtle and RDF/XML writers.

Every entity reference is a fragment of the model's `ontology_iri`: one
ontology holds every class, property and individual, so the base is kept
once and joined to a fragment only where text is written. An assertion
is then a tuple of strings, which the collector does not track.

Models are validated on construction (dangling references, duplicate
fragments, literals outside their datatype's lexical space, or one fragment
declared as both an object and a datatype property raise ValueError), so
the writers never have to defend themselves. The individuals are checked
as a whole: their classes, properties and assertion targets by set
inclusion, and each XSD literal datatype's values by one
`datatypes.all_lexically_valid`. Only a model that fails that is walked
individual by individual, to report its first fault.

Both writers emit the same triples in the same entity order: ontology
header, classes, object properties (with any cardinality restriction
axioms), datatype properties, individuals — each category sorted
alphabetically by IRI fragment, so equal models serialize to
byte-identical output.

The writers render once per model what depends only on an IRI, a property
or a datatype: each IRI's escaped text, each (property, datatype) pair's
literal suffix and tags. A value with nothing to escape costs one search.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import attrgetter, eq, itemgetter

from .datatypes import NAME_CHARS, all_lexically_valid, is_ncname, lexical_check

OWL_NS = "http://www.w3.org/2002/07/owl#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RDFS_LITERAL = RDFS_NS + "Literal"
XSD_ANYTYPE = XSD_NS + "anyType"


def xsd_iri(local: str) -> str:
    return XSD_NS + local


class _Memo(dict):
    """A function's results by argument, each computed on first use, so what
    depends only on an IRI or a datatype is worked out once per model."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


@dataclass(slots=True)
class OwlClass:
    iri: str
    label: str
    subclass_of: str | None = None


@dataclass(slots=True)
class ObjectProperty:
    iri: str
    domain: tuple[str, ...]
    range: str
    cardinality: tuple[int, int | None] | None = None


@dataclass(slots=True)
class DatatypeProperty:
    iri: str
    domain: tuple[str, ...]
    range: str  # full datatype IRI


@dataclass(slots=True)
class Individual:
    iri: str
    class_iri: str
    object_assertions: tuple[tuple[str, str], ...] = ()
    data_assertions: tuple[tuple[str, str, str], ...] = ()  # (prop, value, dt iri or "")


_BY_FRAGMENT = attrgetter("iri")  # the writers' sort key, too
_class_iri = attrgetter("class_iri")
_object_assertions = attrgetter("object_assertions")
_data_assertions = attrgetter("data_assertions")
_first, _second, _third = itemgetter(0), itemgetter(1), itemgetter(2)


@dataclass(frozen=True)
class OntologyModel:
    ontology_iri: str  # base IRI, no fragment
    classes: tuple[OwlClass, ...] = ()
    object_properties: tuple[ObjectProperty, ...] = ()
    datatype_properties: tuple[DatatypeProperty, ...] = ()
    individuals: tuple[Individual, ...] = ()
    naming_notes: tuple[str, ...] = field(compare=False, default=())

    def __post_init__(self):
        for name, entities in (
            ("class", self.classes),
            ("object property", self.object_properties),
            ("datatype property", self.datatype_properties),
            ("individual", self.individuals),
        ):
            if len(set(map(_BY_FRAGMENT, entities))) < len(entities):
                seen = set()
                for e in entities:
                    if e.iri in seen:
                        raise ValueError(f"duplicate {name} fragment {e.iri!r}")
                    seen.add(e.iri)
        class_iris = {c.iri for c in self.classes}
        for c in self.classes:
            if c.subclass_of is not None and c.subclass_of not in class_iris:
                raise ValueError(
                    f"subclass base {self.ontology_iri}#{c.subclass_of} is not declared"
                )
        for p in self.object_properties:
            if p.range not in class_iris:
                raise ValueError(f"range of {p.iri} is not a declared class")
            for d in p.domain:
                if d not in class_iris:
                    raise ValueError(f"domain of {p.iri} is not a declared class")
        for p in self.datatype_properties:
            for d in p.domain:
                if d not in class_iris:
                    raise ValueError(f"domain of {p.iri} is not a declared class")
        obj_props = {p.iri for p in self.object_properties}
        dt_props = {p.iri for p in self.datatype_properties}
        both = obj_props & dt_props  # OWL 2 DL keeps the two kinds disjoint
        if both:
            raise ValueError(
                f"fragment {min(both)!r} is both an object and a datatype property"
            )
        individuals = self.individuals
        individual_iris = set(map(_BY_FRAGMENT, individuals))
        object_assertions = list(chain.from_iterable(map(_object_assertions, individuals)))
        data_assertions = list(chain.from_iterable(map(_data_assertions, individuals)))
        values = list(map(_second, data_assertions))
        literal_types = list(map(_third, data_assertions))
        if not (
            class_iris.issuperset(map(_class_iri, individuals))
            and obj_props.issuperset(map(_first, object_assertions))
            and individual_iris.issuperset(map(_second, object_assertions))
            and dt_props.issuperset(map(_first, data_assertions))
            and all(  # each XSD datatype's values, in one check
                all_lexically_valid(dt[len(XSD_NS):], list(
                    compress(values, map(eq, literal_types, repeat(dt)))))
                for dt in set(literal_types) if dt.startswith(XSD_NS)
            )
        ):
            self._raise_first_fault(class_iris, obj_props, dt_props, individual_iris)

    def _raise_first_fault(self, class_iris, obj_props, dt_props, individual_iris):
        """Raise for the first faulty individual, in model order: its class,
        then each object assertion, then each data assertion."""
        # each literal datatype's lexical check, looked up once per model
        checks = _Memo(lambda dt: lexical_check(dt[len(XSD_NS):])
                       if dt.startswith(XSD_NS) else None)
        for ind in self.individuals:
            if ind.class_iri not in class_iris:
                raise ValueError(f"individual {ind.iri} has undeclared class")
            for prop, target in ind.object_assertions:
                if prop not in obj_props:
                    raise ValueError(f"undeclared object property {prop}")
                if target not in individual_iris:
                    raise ValueError(f"assertion target {target} is not declared")
            for prop, value, dt in ind.data_assertions:
                if prop not in dt_props:
                    raise ValueError(f"undeclared datatype property {prop}")
                check = checks[dt]
                if check is not None and not check(value):
                    raise ValueError(
                        f"value {value!r} is not lexically valid for {dt}"
                    )
        raise AssertionError("the model check found a fault it cannot place")


# ---------------------------------------------------------------------------
# naming


# A character outside XML's NameChar, or a final ".", which Turtle's
# PN_LOCAL does not allow (compiled on first use, like datatypes._NCNAME).
_NOT_LOCAL_NAME = f"[^{NAME_CHARS}]|\\.\\Z"


def sanitize_fragment(name: str) -> str:
    """Force a name into an NCName that is also a Turtle local name:
    characters outside XML's NameChar and a final period become
    underscores, and a name that does not begin with a NameStartChar gets
    one prepended."""
    if is_ncname(name) and not name.endswith("."):
        return name  # the substitution below would return it unchanged
    cleaned = re.sub(_NOT_LOCAL_NAME, "_", name) or "_"
    if not is_ncname(cleaned):  # it begins with no NameStartChar
        cleaned = "_" + cleaned
    return cleaned


class FragmentAllocator:
    """Unique NCName fragments within one entity category, with _2/_3
    suffixes on collisions. Every rename is recorded for the DL report."""

    def __init__(self, category: str):
        self.category = category
        self.taken: set[str] = set()
        self.notes: list[str] = []
        # fragment -> last suffix handed out for it. `taken` only grows, so
        # the smallest free suffix never drops below it: searching from
        # there gives the same names as searching from 2, in linear time.
        self.last_suffix: dict[str, int] = {}

    def allocate(self, name: str) -> str:
        fragment = sanitize_fragment(name)
        if fragment != name:
            self.notes.append(
                f"{self.category} name {name!r} sanitized to {fragment!r}"
            )
        if fragment in self.taken:
            n = self.last_suffix.get(fragment, 2)
            while f"{fragment}_{n}" in self.taken:
                n += 1
            self.last_suffix[fragment] = n
            self.notes.append(
                f"{self.category} name {fragment!r} already used; "
                f"renamed to {fragment}_{n}"
            )
            fragment = f"{fragment}_{n}"
        self.taken.add(fragment)
        return fragment


# ---------------------------------------------------------------------------
# Turtle


_DATA_KEY = itemgetter(0, 1)  # property, then value; object assertions sort as they are


def _in_order(assertions: tuple, key=None) -> tuple | list:
    """An individual's assertions in output order; one alone needs no sort."""
    return sorted(assertions, key=key) if len(assertions) > 1 else assertions


def _turtle_datatype(dt: str) -> str:
    if dt.startswith(XSD_NS):
        return "xsd:" + dt[len(XSD_NS):]
    if dt == RDFS_LITERAL:
        return "rdfs:Literal"
    return f"<{dt}>"


_TURTLE_SPECIAL = re.compile('[\\\\"\n\r\t]').search


def _turtle_escape(s: str) -> str:
    if _TURTLE_SPECIAL(s) is None:
        return s  # most values have nothing to escape
    return (
        s.replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    )


def _turtle_string(s: str) -> str:
    return f'"{_turtle_escape(s)}"'


def _domain_expr(domain: tuple[str, ...]) -> str:
    """rdfs:domain object expression: the one class, or the union of all."""
    if len(domain) == 1:
        return f":{domain[0]}"
    members = " ".join(f":{d}" for d in domain)
    return f"[ a owl:Class ; owl:unionOf ( {members} ) ]"


def _cardinality_axioms(p: ObjectProperty) -> list[tuple[str, str, int]]:
    """(domain class, facet, value) triples to emit as restrictions."""
    if p.cardinality is None:
        return []
    low, high = p.cardinality
    axioms = []
    for d in sorted(p.domain):
        if low > 0:
            axioms.append((d, "minCardinality", low))
        if high is not None:
            axioms.append((d, "maxCardinality", high))
    return axioms


def serialize_turtle(o: OntologyModel) -> str:
    base = o.ontology_iri
    out = [
        f"@prefix owl: <{OWL_NS}> .",
        f"@prefix rdf: <{RDF_NS}> .",
        f"@prefix rdfs: <{RDFS_NS}> .",
        f"@prefix xsd: <{XSD_NS}> .",
        f"@prefix : <{base}#> .",
        "",
        f"<{base}> a owl:Ontology .",
        "",
    ]

    for c in sorted(o.classes, key=_BY_FRAGMENT):
        lines = [f":{c.iri} a owl:Class ;"]
        if c.subclass_of is not None:
            lines.append(f"    rdfs:subClassOf :{c.subclass_of} ;")
        lines.append(f"    rdfs:label {_turtle_string(c.label)} .")
        out.extend(lines)
        out.append("")

    for p in sorted(o.object_properties, key=_BY_FRAGMENT):
        out.append(f":{p.iri} a owl:ObjectProperty ;")
        out.append(f"    rdfs:domain {_domain_expr(p.domain)} ;")
        out.append(f"    rdfs:range :{p.range} .")
        for cls, facet, value in _cardinality_axioms(p):
            out.append(
                f":{cls} rdfs:subClassOf [ a owl:Restriction ; "
                f"owl:onProperty :{p.iri} ; "
                f'owl:{facet} "{value}"^^xsd:nonNegativeInteger ] .'
            )
        out.append("")

    for p in sorted(o.datatype_properties, key=_BY_FRAGMENT):
        out.append(f":{p.iri} a owl:DatatypeProperty ;")
        out.append(f"    rdfs:domain {_domain_expr(p.domain)} ;")
        out.append(f"    rdfs:range {_turtle_datatype(p.range)} .")
        out.append("")

    # each (property, datatype) pair's text around a literal's value
    literal = _Memo(lambda pair: (
        f'    :{pair[0]} "',
        f'"^^{_turtle_datatype(pair[1])} ;' if pair[1] else '" ;',
    ))
    for ind in sorted(o.individuals, key=_BY_FRAGMENT):
        # each line ends its statement with " ;", and the last one with " ."
        out.append(f":{ind.iri} a owl:NamedIndividual , :{ind.class_iri} ;")
        for prop, target in _in_order(ind.object_assertions):
            out.append(f"    :{prop} :{target} ;")
        for prop, value, dt in _in_order(ind.data_assertions, _DATA_KEY):
            head, tail = literal[prop, dt]
            out.append(f"{head}{_turtle_escape(value)}{tail}")
        out[-1] = out[-1][:-1] + "."
        out.append("")

    while out and out[-1] == "":
        out.pop()
    out.append("")  # the final newline, without copying the document again
    return "\n".join(out)


# ---------------------------------------------------------------------------
# RDF/XML


_XML_SPECIAL = re.compile("[&<>\r]").search


def _xml_escape(s: str) -> str:
    if _XML_SPECIAL(s) is None:
        return s  # most values have nothing to escape
    # an XML parser reads a raw carriage return back as a line feed
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace("\r", "&#13;"))


def _xml_attr(s: str) -> str:
    return _xml_escape(s).replace('"', "&quot;")


def serialize_rdfxml(o: OntologyModel) -> str:
    base = o.ontology_iri
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<rdf:RDF xmlns:owl="{OWL_NS}"',
        f'         xmlns:rdf="{RDF_NS}"',
        f'         xmlns:rdfs="{RDFS_NS}"',
        f'         xmlns:xsd="{XSD_NS}"',
        f'         xmlns:ont="{_xml_attr(base + "#")}">',
        f'  <owl:Ontology rdf:about="{_xml_attr(base)}"/>',
    ]
    about = _Memo(lambda fragment: _xml_attr(f"{base}#{fragment}"))  # each IRI, escaped

    def domain_xml(domain: tuple[str, ...], indent: str) -> list[str]:
        if len(domain) == 1:
            return [f'{indent}<rdfs:domain rdf:resource="{about[domain[0]]}"/>']
        lines = [
            f"{indent}<rdfs:domain>",
            f"{indent}  <owl:Class>",
            f'{indent}    <owl:unionOf rdf:parseType="Collection">',
        ]
        for d in domain:
            lines.append(f'{indent}      <rdf:Description rdf:about="{about[d]}"/>')
        lines.append(f"{indent}    </owl:unionOf>")
        lines.append(f"{indent}  </owl:Class>")
        lines.append(f"{indent}</rdfs:domain>")
        return lines

    for c in sorted(o.classes, key=_BY_FRAGMENT):
        out.append(f'  <owl:Class rdf:about="{about[c.iri]}">')
        if c.subclass_of is not None:
            out.append(
                f'    <rdfs:subClassOf rdf:resource="{about[c.subclass_of]}"/>'
            )
        out.append(f"    <rdfs:label>{_xml_escape(c.label)}</rdfs:label>")
        out.append("  </owl:Class>")

    for p in sorted(o.object_properties, key=_BY_FRAGMENT):
        out.append(f'  <owl:ObjectProperty rdf:about="{about[p.iri]}">')
        out.extend(domain_xml(p.domain, "    "))
        out.append(f'    <rdfs:range rdf:resource="{about[p.range]}"/>')
        out.append("  </owl:ObjectProperty>")
        for cls, facet, value in _cardinality_axioms(p):
            out.append(f'  <rdf:Description rdf:about="{about[cls]}">')
            out.append("    <rdfs:subClassOf>")
            out.append("      <owl:Restriction>")
            out.append(f'        <owl:onProperty rdf:resource="{about[p.iri]}"/>')
            out.append(
                f'        <owl:{facet} rdf:datatype="{XSD_NS}nonNegativeInteger">'
                f"{value}</owl:{facet}>"
            )
            out.append("      </owl:Restriction>")
            out.append("    </rdfs:subClassOf>")
            out.append("  </rdf:Description>")

    for p in sorted(o.datatype_properties, key=_BY_FRAGMENT):
        out.append(f'  <owl:DatatypeProperty rdf:about="{about[p.iri]}">')
        out.extend(domain_xml(p.domain, "    "))
        out.append(f'    <rdfs:range rdf:resource="{_xml_attr(p.range)}"/>')
        out.append("  </owl:DatatypeProperty>")

    # each (property, datatype) pair's start and end tag
    tags = _Memo(lambda pair: (
        f'    <ont:{pair[0]} rdf:datatype="{_xml_attr(pair[1])}">'
        if pair[1] else f"    <ont:{pair[0]}>",
        f"</ont:{pair[0]}>",
    ))
    for ind in sorted(o.individuals, key=_BY_FRAGMENT):
        out.append(f'  <owl:NamedIndividual rdf:about="{about[ind.iri]}">')
        out.append(f'    <rdf:type rdf:resource="{about[ind.class_iri]}"/>')
        for prop, target in _in_order(ind.object_assertions):
            out.append(f'    <ont:{prop} rdf:resource="{about[target]}"/>')
        for prop, value, dt in _in_order(ind.data_assertions, _DATA_KEY):
            start, end = tags[prop, dt]
            out.append(f"{start}{_xml_escape(value)}{end}")
        out.append("  </owl:NamedIndividual>")

    out.append("</rdf:RDF>")
    out.append("")  # the final newline, without copying the document again
    return "\n".join(out)


# ---------------------------------------------------------------------------
# profile check


def check_dl_profile(o: OntologyModel) -> list[str]:
    """Warnings for constructs that stretch OWL-DL: xsd:anyType ranges and
    names the generator had to rewrite."""
    warnings: list[str] = []
    for p in o.datatype_properties:
        if p.range == XSD_ANYTYPE:
            warnings.append(
                f"datatype property '{p.iri}' has range xsd:anyType, "
                f"which is not an OWL-DL datatype"
            )
    warnings.extend(o.naming_notes)
    return warnings
