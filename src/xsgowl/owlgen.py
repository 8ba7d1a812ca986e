"""Schema-to-ontology mapping rules.

Classes come from complex types and element/attribute groups: a named
type keeps its name, an anonymous type takes the name of its surrounding
element, clashes get _2/_3 suffixes in document order. Extension and
restriction both become subclass axioms. An element whose type maps to a
class becomes an object property has<RangeClass> from the containing
class; simple-typed elements and attributes become datatype properties
named by their local name, ranging over the primitive datatype —
xsd:anyType when the simple type is schema-defined (rdfs:Literal instead
under strict_dl). Mixed types additionally get hasTextContent. Group
references attach as has<GroupClass> object properties.

A property holding one name across several containing classes is merged
into a single property with a union domain by default; with
union_domains=False each (domain, name) pair keeps its own property,
fragment <DomainClass>.<name>. A property whose fragment another
property already holds takes a _2/_3 suffix: a datatype property named
like an object property (an element hasX beside elements of class X),
because OWL 2 DL keeps the two kinds disjoint, or a qualified name that
equals another property's name.

Every entity is named by a fragment of the ontology IRI (GenOptions'
base_iri); the trace carries that IRI, as the model does.

Every generated entity gets exactly one bridge record linking it back to
the schema component that produced it (first contributor wins for merged
properties); subclass axioms get one bridge each on top.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .datatypes import LATTICE_TYPES, join_datatype
from .owlmodel import (
    RDFS_LITERAL,
    XSD_ANYTYPE,
    FragmentAllocator,
    ObjectProperty,
    DatatypeProperty,
    OntologyModel,
    OwlClass,
    sanitize_fragment,
    xsd_iri,
)
from .xsdmodel import AttrDecl, ComplexType, ElementDecl, NamedTypeRef, SchemaModel
from .xsg import (
    ATTRIBUTE,
    ATTRIBUTE_GROUP,
    COMPLEX_TYPE,
    EDGE_ELEMENT_TYPE,
    EDGE_MEMBER,
    ELEMENT,
    ELEMENT_GROUP,
    SchemaGraph,
)

logger = logging.getLogger("xsgowl.owlgen")

RULE_CLASS_GLOBAL_TYPE = "CLASS_GLOBAL_TYPE"
RULE_CLASS_ANON_TYPE = "CLASS_ANON_TYPE"
RULE_CLASS_GROUP = "CLASS_GROUP"
RULE_SUBCLASS_EXT = "SUBCLASS_EXT"
RULE_SUBCLASS_RESTR = "SUBCLASS_RESTR"
RULE_OBJPROP = "OBJPROP"
RULE_DTPROP_ELEMENT = "DTPROP_ELEMENT"
RULE_DTPROP_ATTR = "DTPROP_ATTR"
RULE_DTPROP_MIXED_TEXT = "DTPROP_MIXED_TEXT"
RULE_DEFINED_SIMPLE_ANYTYPE = "DEFINED_SIMPLE_ANYTYPE"

KIND_CLASS = "class"
KIND_SUBCLASS = "subclass-axiom"
KIND_OBJECT_PROPERTY = "object-property"
KIND_DATATYPE_PROPERTY = "datatype-property"


@dataclass(slots=True)
class Bridge:
    schema_path: str
    entity_kind: str
    rule_id: str
    iri: str  # a fragment of the trace's ontology_iri


@dataclass(frozen=True)
class MappingTrace:
    ontology_iri: str  # base IRI, no fragment, as on OntologyModel
    bridges: tuple[Bridge, ...]
    #: every contributing schema path -> generated IRI fragment; a merged
    #: property has one bridge record (first origin) but several entries here
    resolution: dict[str, str] = field(compare=False, default_factory=dict)


@dataclass(frozen=True)
class GenOptions:
    base_iri: str = "http://example.org/onto"
    emit_cardinality: bool = False
    union_domains: bool = True
    strict_dl: bool = False


def write_trace(t: MappingTrace) -> str:
    """Line-oriented TSV: schema-path, entity kind, rule id, IRI."""
    base = t.ontology_iri
    lines = [f"{b.schema_path}\t{b.entity_kind}\t{b.rule_id}\t{base}#{b.iri}"
             for b in t.bridges]
    lines.append("")  # the final newline, without copying the document again
    return "\n".join(lines)


class _PropRecord:
    __slots__ = ("name", "domains", "contributions", "rule")

    def __init__(self, name, domain, rng, occurs, path, rule):
        self.name = name
        self.domains = {domain: None}  # first-seen order; the first qualifies the fragment
        self.contributions = [(rng, occurs, path)]  # the first path is the bridge's origin
        self.rule = rule

    def add(self, domain, rng, occurs, path):
        self.domains[domain] = None
        self.contributions.append((rng, occurs, path))


def _join_ranges(ranges: Iterable[str]) -> str:
    ranges = iter(ranges)
    out = next(ranges)
    for r in ranges:
        if r == out:
            continue
        if XSD_ANYTYPE in (r, out):
            out = XSD_ANYTYPE
        elif RDFS_LITERAL in (r, out):
            out = RDFS_LITERAL
        else:
            a, b = out.rsplit("#", 1)[1], r.rsplit("#", 1)[1]
            if a in LATTICE_TYPES and b in LATTICE_TYPES:
                out = xsd_iri(join_datatype(a, b))
            else:
                out = xsd_iri("string")
    return out


def _join_occurs(occurs: Iterable) -> tuple[int, int | None] | None:
    """Loosest bounds over all contributing particles; None when no
    restriction would ever be emitted."""
    known = [o for o in occurs if o is not None]
    if not known:
        return None
    low = min(o[0] for o in known)
    high = None if any(o[1] is None for o in known) else max(o[1] for o in known)
    if low == 0 and high is None:
        return None
    return low, high


class _Generator:
    def __init__(self, schema: SchemaModel, graph: SchemaGraph, opts: GenOptions):
        self.schema = schema
        self.graph = graph
        self.opts = opts
        self.view = schema.resolved
        self.class_iri: dict[int, str] = {}  # id(type/group component) -> fragment
        self.notes: list[str] = []
        self.sanitized_dt_names: set[str] = set()  # raw names already noted
        # type vertex id -> label of its element; the first element-type edge wins
        self.element_of_type: dict[int, str] = {}
        for e in graph.edges:
            if e.kind == EDGE_ELEMENT_TYPE:
                self.element_of_type.setdefault(e.dst, graph.vertices[e.src].label)
        # the vertices that become classes, in id order
        self.type_vertices = [
            v for v in graph.vertices
            if v.kind in (COMPLEX_TYPE, ELEMENT_GROUP, ATTRIBUTE_GROUP)
        ]

    def surrounding_element(self, type_vertex) -> str:
        label = self.element_of_type.get(type_vertex.id)
        if label is None:
            raise AssertionError(f"anonymous type vertex {type_vertex.id} has no element")
        return label

    def make_classes(self) -> tuple[list[OwlClass], list[Bridge]]:
        alloc = FragmentAllocator("class")
        records = []  # (component, label, iri, rule, path)
        for v in self.type_vertices:
            comp = v.schema_ref
            if v.kind == COMPLEX_TYPE:
                if comp.name is not None:
                    label, rule = comp.name, RULE_CLASS_GLOBAL_TYPE
                else:
                    label, rule = self.surrounding_element(v), RULE_CLASS_ANON_TYPE
            else:
                label, rule = comp.name, RULE_CLASS_GROUP
            iri = alloc.allocate(label)
            self.class_iri[id(comp)] = iri
            records.append((comp, label, iri, rule, self.view.path(comp)))
        self.notes.extend(alloc.notes)

        classes: list[OwlClass] = []
        subclass_bridges: list[Bridge] = []
        class_bridges: list[Bridge] = []
        for comp, label, iri, rule, path in records:
            subclass_of = None
            if isinstance(comp, ComplexType) and comp.derivation is not None:
                kind, base_name = comp.derivation
                base = self.schema.type_named(base_name)
                subclass_of = self.class_iri[id(base)]
                subclass_bridges.append(Bridge(
                    self.view.body_path(comp),
                    KIND_SUBCLASS,
                    RULE_SUBCLASS_EXT if kind == "extension" else RULE_SUBCLASS_RESTR,
                    iri,
                ))
            classes.append(OwlClass(iri, label, subclass_of))
            class_bridges.append(Bridge(path, KIND_CLASS, rule, iri))
        return classes, class_bridges + subclass_bridges

    def element_range(self, decl: ElementDecl):
        """(class fragment, None) for class-valued elements, or
        (None, (datatype iri, rule)) for literal-valued ones."""
        etype = decl.type
        if isinstance(etype, ComplexType):
            return self.class_iri[id(etype)], None
        if isinstance(etype, NamedTypeRef):
            target = self.schema.type_named(etype.name)
            if isinstance(target, ComplexType):
                return self.class_iri[id(target)], None
            return None, (self.defined_simple_range(), RULE_DEFINED_SIMPLE_ANYTYPE)
        return None, (self.builtin_range(etype.name), RULE_DTPROP_ELEMENT)

    def defined_simple_range(self) -> str:
        return RDFS_LITERAL if self.opts.strict_dl else XSD_ANYTYPE

    def builtin_range(self, local: str) -> str:
        if local == "anyType" and self.opts.strict_dl:
            return RDFS_LITERAL
        return xsd_iri(local)

    def attr_range(self, a: AttrDecl):
        if isinstance(a.datatype, NamedTypeRef):
            return self.defined_simple_range(), RULE_DEFINED_SIMPLE_ANYTYPE
        return self.builtin_range(a.datatype.name), RULE_DTPROP_ATTR

    def dt_name(self, raw: str) -> str:
        fragment = sanitize_fragment(raw)
        if fragment != raw and raw not in self.sanitized_dt_names:
            self.sanitized_dt_names.add(raw)
            self.notes.append(f"datatype property name {raw!r} sanitized to {fragment!r}")
        return fragment

    def collect_properties(self):
        union = self.opts.union_domains
        obj_records: dict = {}
        dt_records: dict = {}

        def record(records: dict, name: str, domain: str, rng, occurs, path, rule):
            key = name if union else (domain, name)
            existing = records.get(key)
            if existing is None:
                records[key] = _PropRecord(name, domain, rng, occurs, path, rule)
            else:
                existing.add(domain, rng, occurs, path)

        for v in self.type_vertices:
            comp = v.schema_ref
            domain = self.class_iri[id(comp)]
            for e in self.graph.out_edges(v.id):
                if e.kind != EDGE_MEMBER:
                    continue
                dst = self.graph.vertices[e.dst]
                if dst.kind == ELEMENT:
                    decl = dst.schema_ref
                    class_range, dt_range = self.element_range(decl)
                    if class_range is not None:
                        record(
                            obj_records, f"has{class_range}", domain,
                            class_range, e.occurs, self.view.path(e.schema_ref),
                            RULE_OBJPROP,
                        )
                    else:
                        rng, rule = dt_range
                        record(
                            dt_records, self.dt_name(decl.name), domain,
                            rng, None, self.view.path(e.schema_ref), rule,
                        )
                elif dst.kind == ATTRIBUTE:
                    a = dst.schema_ref
                    rng, rule = self.attr_range(a)
                    record(
                        dt_records, self.dt_name(a.name), domain,
                        rng, None, self.view.path(a), rule,
                    )
                elif dst.kind in (ELEMENT_GROUP, ATTRIBUTE_GROUP):
                    group_class = self.class_iri[id(dst.schema_ref)]
                    record(
                        obj_records, f"has{group_class}", domain,
                        group_class, None, self.view.ref_path(comp, dst.schema_ref),
                        RULE_OBJPROP,
                    )
            if isinstance(comp, ComplexType) and comp.mixed:
                record(
                    dt_records, "hasTextContent", domain, xsd_iri("string"),
                    None, self.view.text_path(comp), RULE_DTPROP_MIXED_TEXT,
                )
        return obj_records, dt_records

    @staticmethod
    def finish_fragment(name_counts: Counter, rec: _PropRecord) -> str:
        """The record's name, qualified with its first domain class when
        several records share it. Union domains key records by name, so
        only literal domains can share one."""
        if name_counts[rec.name] > 1:
            return f"{next(iter(rec.domains))}.{rec.name}"
        return rec.name

    def generate(self) -> tuple[OntologyModel, MappingTrace]:
        classes, bridges = self.make_classes()
        if not classes:
            logger.warning(
                "%s: schema has no complex types or groups; ontology has no classes",
                self.schema.source_id,
            )
        obj_records, dt_records = self.collect_properties()
        # read for the last time above
        del self.graph, self.element_of_type, self.type_vertices
        resolution: dict[str, str] = {b.schema_path: b.iri for b in bridges}

        # a fragment already held by a property of either kind is renamed:
        # OWL 2 DL keeps the two kinds disjoint, and a qualified name
        # (<DomainClass>.<name>) can equal another property's name
        obj_alloc = FragmentAllocator("object property")
        object_properties: list[ObjectProperty] = []
        name_counts = Counter(rec.name for rec in obj_records.values())
        for rec in obj_records.values():
            fragment = obj_alloc.allocate(self.finish_fragment(name_counts, rec))
            cardinality = (_join_occurs(occurs for _, occurs, _ in rec.contributions)
                           if self.opts.emit_cardinality else None)
            prop = ObjectProperty(
                iri=fragment,
                domain=tuple(sorted(rec.domains)),
                range=rec.contributions[0][0],
                cardinality=cardinality,
            )
            object_properties.append(prop)
            bridges.append(Bridge(rec.contributions[0][2], KIND_OBJECT_PROPERTY,
                                  rec.rule, prop.iri))
            resolution.update((path, prop.iri) for _, _, path in rec.contributions)

        datatype_properties: list[DatatypeProperty] = []
        name_counts = Counter(rec.name for rec in dt_records.values())
        dt_alloc = FragmentAllocator("datatype property")
        dt_alloc.taken = obj_alloc.taken
        for rec in dt_records.values():
            fragment = dt_alloc.allocate(self.finish_fragment(name_counts, rec))
            prop = DatatypeProperty(
                iri=fragment,
                domain=tuple(sorted(rec.domains)),
                range=_join_ranges(rng for rng, _, _ in rec.contributions),
            )
            datatype_properties.append(prop)
            bridges.append(Bridge(rec.contributions[0][2], KIND_DATATYPE_PROPERTY,
                                  rec.rule, prop.iri))
            resolution.update((path, prop.iri) for _, _, path in rec.contributions)
        self.notes += obj_alloc.notes + dt_alloc.notes

        model = OntologyModel(
            ontology_iri=self.opts.base_iri,
            classes=tuple(classes),
            object_properties=tuple(object_properties),
            datatype_properties=tuple(datatype_properties),
            naming_notes=tuple(self.notes),
        )
        return model, MappingTrace(self.opts.base_iri, tuple(bridges), resolution)


def generate_tbox(
    schema: SchemaModel, graph: SchemaGraph, opts: GenOptions | None = None
) -> tuple[OntologyModel, MappingTrace]:
    """Apply the mapping rules to a schema and its graph.

    The generator drops its reference to the graph after its last read,
    once the properties are collected and before the ontology is built, so
    a caller that keeps no reference of its own lets the graph be freed
    that early."""
    generator = _Generator(schema, graph, opts or GenOptions())
    del graph
    return generator.generate()
