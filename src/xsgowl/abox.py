"""Populate OWL individuals from XML instance data.

Every element instance whose declared type maps to a class becomes an
individual of that class; parent-child pairs become object-property
assertions resolved through the mapping trace, simple-typed children,
attributes and mixed text become data assertions. `populate` consumes the
validator's instance walk (`xsdmodel.walk_instances`), so one pass checks
the document and builds its individuals; it raises DocumentInvalid when
the document does not conform. Types' flattened content and the schema
paths that key the mapping trace come from the schema's shared resolved
view (`SchemaModel.resolved`).

Individual names: an element that carries an `id` attribute is named by
its sanitized value; any other is named by its root-to-node path with
1-based same-name sibling ordinals (bibliography_1.biblioentry_1.author_1).
Children reached through a group reference hang off one synthetic
individual of the group's class per instance, mirroring the
has<GroupClass> structure of the generated TBox.
"""

from __future__ import annotations

from dataclasses import replace
from xml.etree.ElementTree import Element

from .owlgen import MappingTrace
from .owlmodel import (
    RDFS_LITERAL,
    Individual,
    OntologyModel,
    sanitize_fragment,
)
from .xmldoc import XmlDocument, attribute, attributes, text_content
from .xsdmodel import (
    LEAVE,
    ComplexType,
    GroupUse,
    SchemaModel,
    TypeContent,
    Violation,
    walk_instances,
)


class NamingCollision(Exception):
    """Two element instances produced the same individual IRI."""


class DocumentInvalid(ValueError):
    """The document does not validate against the schema."""


class _Populator:
    """Builds individuals from the events of `walk_instances`, on its own
    stack of open individuals: one frame per open complex-typed element."""

    def __init__(self, doc: XmlDocument, schema: SchemaModel, tbox: OntologyModel,
                 trace: MappingTrace):
        self.position = doc.position
        self.view = schema.resolved
        self.resolution = trace.resolution
        # each datatype property's literal datatype, "" for a plain literal
        self.datatype = {p.iri: "" if p.range == RDFS_LITERAL else p.range
                         for p in tbox.datatype_properties}
        self.taken: dict[str, Element] = {}  # the instance that claimed each fragment
        self.collision: NamingCollision | None = None  # the first one seen
        self.out: list[Individual] = []
        # per open element: instance, IRI fragment, its step in the path name,
        # slot in `out`, object and data assertions, and its group holders
        # by GroupUse path
        self.open: list[tuple[Element, str, str, int, list, list, dict]] = []

    def claim(self, instance: Element, fragment: str) -> str:
        if fragment not in self.taken:
            self.taken[fragment] = instance
        elif self.collision is None:
            line, col = self.position(self.taken[fragment])
            here = self.position(instance)
            self.collision = NamingCollision(
                f"individual IRI fragment {fragment!r} produced twice: "
                f"at {line}:{col} and {here[0]}:{here[1]}"
            )
        return fragment

    def holder(self, frame: tuple, use: GroupUse) -> tuple[list, list]:
        """The object and data assertions of the synthetic member holder of
        one group reference on the open element `frame`; the holder is
        created, and linked from the element, on first use."""
        instance, iri, _, _, object_assertions, _, holders = frame
        found = holders.get(use.path)
        if found is None:
            synth_iri = self.claim(
                instance, f"{iri}.{sanitize_fragment(use.decl.name)}_1"
            )
            found = holders[use.path] = (use, synth_iri, [], [])
            object_assertions.append((self.resolution[use.path], synth_iri))
        return found[2], found[3]

    def build(self, events, violations: list[Violation]):
        """Consume the walk's events, building nothing once it has reported
        a violation. On enter, claim a complex-typed element's individual
        and link it from its parent's, or record a simple-typed element's
        value on its parent's; on leave, close the individual."""
        open_, resolution, path, datatype = (
            self.open, self.resolution, self.view.path, self.datatype)
        for event, instance, member, ct, content, ordinal, text in events:
            if violations:
                continue  # the walk still checks the rest of the document
            if event is LEAVE:  # only a complex-typed element leaves
                self.close(ct, content)
            elif member is None:  # the root
                if content is not None:
                    self.push(instance, f"{instance.tag.local}_{ordinal}")
            else:
                parent = open_[-1]
                particle, use, _ = member
                obj_sink, data_sink = (parent[4], parent[5]) if use is None \
                    else self.holder(parent, use)
                prop_iri = resolution[path(particle)]
                if content is None:  # the walk read its text for the check
                    data_sink.append((prop_iri, text, datatype[prop_iri]))
                else:
                    iri = self.push(instance, f"{instance.tag.local}_{ordinal}")
                    obj_sink.append((prop_iri, iri))

    def push(self, instance: Element, step: str) -> str:
        """Claim the instance's individual and open it. Its path name joins
        the open elements' steps and its own; it is built only when used,
        so a deep document named by ids costs no path strings."""
        id_value = attribute(instance, "id")
        if id_value is not None:
            fragment = sanitize_fragment(id_value)
        else:
            fragment = ".".join([frame[2] for frame in self.open] + [step])
        iri = self.claim(instance, fragment)
        self.open.append((instance, iri, step, len(self.out), [], [], {}))
        self.out.append(None)  # this instance's individual, set on close
        return iri

    def close(self, ct: ComplexType, content: TypeContent):
        """Close the open individual: its attributes, its mixed text, then
        its group holders after its descendants' individuals."""
        frame = self.open.pop()
        instance, iri, _, slot, object_assertions, data_assertions, holders = frame
        for name, value in attributes(instance):
            attr, use = content.attributes[name]
            data_sink = data_assertions if use is None else self.holder(frame, use)[1]
            prop_iri = self.resolution[self.view.path(attr)]
            data_sink.append((prop_iri, value, self.datatype[prop_iri]))

        text = text_content(instance) if content.mixed_types else ""
        if text:
            prop_iri = self.resolution[self.view.text_path(content.mixed_types[0])]
            data_assertions.append((prop_iri, text, self.datatype[prop_iri]))

        for use, synth_iri, obj, data in holders.values():
            self.out.append(Individual(
                synth_iri, self.resolution[self.view.path(use.decl)],
                tuple(obj), tuple(data),
            ))

        self.out[slot] = Individual(
            iri, self.resolution[self.view.path(ct)],
            tuple(object_assertions), tuple(data_assertions),
        )


def populate(
    doc: XmlDocument,
    schema: SchemaModel,
    tbox: OntologyModel,
    trace: MappingTrace,
) -> OntologyModel:
    """TBox plus the individuals read off one document, in one walk that
    also validates it; raises DocumentInvalid when the document does not
    validate, else NamingCollision when two individuals share an IRI."""
    violations: list[Violation] = []
    populator = _Populator(doc, schema, tbox, trace)
    populator.build(walk_instances(doc, schema, violations), violations)
    if violations:
        problems = "; ".join(str(v) for v in violations[:3])
        raise DocumentInvalid(
            f"document {doc.source_id!r} does not validate against the schema: "
            f"{problems}"
        )
    if populator.collision is not None:
        raise populator.collision
    return replace(tbox, individuals=tuple(populator.out))
