"""Populate OWL individuals from XML instance data.

Every element instance whose declared type maps to a class becomes an
individual of that class; parent-child pairs become object-property
assertions resolved through the mapping trace, simple-typed children,
attributes and mixed text become data assertions. `populate` validates
the document first and raises DocumentInvalid when it does not conform.
Types' flattened content and the schema paths that key the mapping
trace come from the schema's shared resolved view (`SchemaModel.resolved`).

Individual names: the id-attribute strategy uses a sanitized `id`
attribute value when the element carries one and falls back to the path
strategy otherwise; the path strategy names every individual by its
root-to-node path with 1-based same-name sibling ordinals
(bibliography_1.biblioentry_1.author_1). Children reached through a group
reference hang off one synthetic individual of the group's class per
instance, mirroring the has<GroupClass> structure of the generated TBox.
"""

from __future__ import annotations

import enum
from dataclasses import replace

from .owlgen import MappingTrace
from .owlmodel import (
    RDFS_LITERAL,
    Individual,
    Iri,
    OntologyModel,
    sanitize_fragment,
)
from .xmldoc import XmlDocument, XmlElement, text_content
from .xsdmodel import (
    ComplexType,
    ElementDecl,
    GroupUse,
    NamedTypeRef,
    SchemaModel,
    validate,
)


class IndividualNaming(enum.Enum):
    ID_ATTRIBUTE = "id-attribute"
    PATH_ORDINAL = "path-ordinal"


class NamingCollision(Exception):
    """Two element instances produced the same individual IRI."""


class DocumentInvalid(ValueError):
    """The document does not validate against the schema."""


class _Populator:
    def __init__(self, schema: SchemaModel, tbox: OntologyModel,
                 trace: MappingTrace, naming: IndividualNaming):
        self.schema = schema
        self.view = schema.resolved
        self.tbox = tbox
        self.naming = naming
        self.resolution = trace.resolution
        self.dt_props = {p.iri: p for p in tbox.datatype_properties}
        self.taken: dict[str, tuple[int, int]] = {}

    def resolve_complex(self, type_ref) -> ComplexType | None:
        if isinstance(type_ref, ComplexType):
            return type_ref
        if isinstance(type_ref, NamedTypeRef):
            target = self.schema.type_named(type_ref.name)
            if isinstance(target, ComplexType):
                return target
        return None

    def allocate(self, instance: XmlElement, path_fragment: str) -> Iri:
        fragment = path_fragment
        if self.naming is IndividualNaming.ID_ATTRIBUTE:
            id_value = instance.attribute("id")
            if id_value is not None:
                fragment = sanitize_fragment(id_value)
        return self.claim(instance, fragment)

    def claim(self, instance: XmlElement, fragment: str) -> Iri:
        if fragment in self.taken:
            line, col = self.taken[fragment]
            here = instance.source_position
            raise NamingCollision(
                f"individual IRI fragment {fragment!r} produced twice: "
                f"at {line}:{col} and {here[0]}:{here[1]}"
            )
        self.taken[fragment] = instance.source_position
        return Iri(self.tbox.ontology_iri, fragment)

    def data_assertion(self, prop_iri: Iri, value: str):
        rng = self.dt_props[prop_iri].range
        datatype = "" if rng == RDFS_LITERAL else rng
        return (prop_iri, value, datatype)

    def holder(self, instance: XmlElement, iri: Iri, use: GroupUse,
               holders: dict, object_assertions: list) -> tuple:
        """The synthetic member holder of one group reference on this
        instance, created (and linked from it) on first use."""
        found = holders.get(use.path)
        if found is None:
            synth_iri = self.claim(
                instance, f"{iri.fragment}.{sanitize_fragment(use.decl.name)}_1"
            )
            found = holders[use.path] = (use, synth_iri, [], [])
            object_assertions.append((self.resolution[use.path], synth_iri))
        return found

    def build(self, instance: XmlElement, decl: ElementDecl,
              path_fragment: str, out: list[Individual]) -> Iri:
        """Append the instance's individual to `out`, then its
        descendants' in document order, then its group holders."""
        ct = self.resolve_complex(decl.type)
        iri = self.allocate(instance, path_fragment)
        content = self.view.content(ct)
        slot = len(out)
        out.append(None)  # this instance's individual, set below

        object_assertions: list[tuple[Iri, Iri]] = []
        data_assertions: list[tuple[Iri, str, str]] = []
        # one synthetic member holder per group reference, created lazily
        holders: dict[str, tuple[GroupUse, Iri, list, list]] = {}

        ordinals: dict[str, int] = {}
        for child in instance.child_elements():
            name = child.name.local
            ordinal = ordinals[name] = ordinals.get(name, 0) + 1
            particle, use = content.particles[name][0]
            child_decl = self.schema.element(particle.ref) \
                if particle.ref is not None else particle.decl
            if use is None:
                obj_sink, data_sink = object_assertions, data_assertions
            else:
                _, _, obj_sink, data_sink = self.holder(
                    instance, iri, use, holders, object_assertions)
            prop_iri = self.resolution[self.view.path(particle)]
            if self.resolve_complex(child_decl.type) is not None:
                child_iri = self.build(
                    child, child_decl, f"{path_fragment}.{name}_{ordinal}", out)
                obj_sink.append((prop_iri, child_iri))
            else:
                data_sink.append(self.data_assertion(prop_iri, text_content(child)))

        for name, value in instance.attributes:
            if name.is_ns_decl:
                continue
            attr, use = content.attributes[name.local]
            data_sink = data_assertions if use is None else self.holder(
                instance, iri, use, holders, object_assertions)[3]
            prop_iri = self.resolution[self.view.path(attr)]
            data_sink.append(self.data_assertion(prop_iri, value))

        if content.mixed_types and any(isinstance(c, str) for c in instance.children):
            text_path = f"{self.view.path(content.mixed_types[0])}/text()"
            data_assertions.append(
                self.data_assertion(self.resolution[text_path], text_content(instance))
            )

        for use, synth_iri, obj, data in holders.values():
            out.append(Individual(
                synth_iri, self.resolution[self.view.path(use.decl)],
                tuple(obj), tuple(data),
            ))

        out[slot] = Individual(
            iri, self.resolution[self.view.path(ct)],
            tuple(object_assertions), tuple(data_assertions),
        )
        return iri


def populate(
    doc: XmlDocument,
    schema: SchemaModel,
    tbox: OntologyModel,
    trace: MappingTrace,
    naming: IndividualNaming = IndividualNaming.ID_ATTRIBUTE,
) -> OntologyModel:
    """TBox plus the individuals read off one document; raises
    DocumentInvalid when the document does not validate."""
    report = validate(doc, schema)
    if not report.ok:
        problems = "; ".join(str(v) for v in report.violations[:3])
        raise DocumentInvalid(
            f"document {doc.source_id!r} does not validate against the schema: "
            f"{problems}"
        )
    populator = _Populator(schema, tbox, trace, naming)
    root_decl = schema.element(doc.root.name.local)
    individuals: list[Individual] = []
    if populator.resolve_complex(root_decl.type) is not None:
        populator.build(doc.root, root_decl, f"{doc.root.name.local}_1", individuals)
    return replace(tbox, individuals=tuple(individuals))


def split_individuals(model: OntologyModel) -> tuple[OntologyModel, OntologyModel]:
    """Separate TBox and ABox documents; the ABox imports the TBox."""
    tbox = replace(model, individuals=())
    abox = OntologyModel(
        ontology_iri=model.ontology_iri + "/abox",
        individuals=model.individuals,
        imports=(model.ontology_iri,),
    )
    return tbox, abox
