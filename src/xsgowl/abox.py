"""Populate OWL individuals from XML instance data.

Every element instance whose declared type maps to a class becomes an
individual of that class; parent-child pairs become object-property
assertions resolved through the mapping trace, simple-typed children,
attributes and mixed text become data assertions. `populate` is the sink
of the validator's instance pass (`xsdmodel.check_instances`), so one
pass checks the document and builds its individuals; it raises
DocumentInvalid when the document does not conform. Types' flattened
content and the schema paths that key the mapping trace come from the
schema's shared resolved view (`SchemaModel.resolved`); each path's
property and literal datatype is looked up once per call.

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
    _Memo,
    sanitize_fragment,
)
from .xmldoc import XmlDocument, text_content
from .xsdmodel import (
    ComplexType,
    GroupUse,
    SchemaModel,
    TypeContent,
    Violation,
    check_instances,
)


class NamingCollision(Exception):
    """Two element instances produced the same individual IRI."""


class DocumentInvalid(ValueError):
    """The document does not validate against the schema."""


class _Populator:
    """The sink of `check_instances` that builds individuals, on its own
    stack of open individuals: one frame per open complex-typed element."""

    def __init__(self, doc: XmlDocument, schema: SchemaModel, tbox: OntologyModel,
                 trace: MappingTrace):
        self.position = doc.position
        self.view = schema.resolved
        resolution = self.resolution = trace.resolution
        # each datatype property's literal datatype, "" for a plain literal
        datatype = {p.iri: "" if p.range == RDFS_LITERAL else p.range
                    for p in tbox.datatype_properties}
        # each schema path's datatype property and its literal datatype,
        # looked up on first use
        self.literal = _Memo(lambda path: (resolution[path], datatype[resolution[path]]))
        self.taken: dict[str, Element] = {}  # the instance that claimed each fragment
        self.collision: NamingCollision | None = None  # the first one seen
        self.out: list[Individual] = []
        # per open element: instance, IRI fragment, its step in the path name,
        # slot in `out`, object and data assertions, its group holders by
        # GroupUse path, and its attributes
        self.frames: list[tuple[Element, str, str, int, list, list, dict, list]] = []

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
        instance, iri, _, _, object_assertions, _, holders, _ = frame
        found = holders.get(use.path)
        if found is None:
            synth_iri = self.claim(
                instance, f"{iri}.{sanitize_fragment(use.decl.name)}_1"
            )
            found = holders[use.path] = (use, synth_iri, [], [])
            object_assertions.append((self.resolution[use.path], synth_iri))
        return found[2], found[3]

    def open(self, instance: Element, attrs: list[tuple[str, str]], member, ordinal: int):
        """Claim a complex-typed element's individual, link it from its
        parent's and open it. Its path name joins the open elements' steps
        and its own; it is built only when used, so a deep document named
        by ids costs no path strings."""
        frames = self.frames
        if member is not None:  # not the root
            use = member[1]
            links = frames[-1][4] if use is None else self.holder(frames[-1], use)[0]
        step = f"{instance.tag.local}_{ordinal}"
        for name, value in attrs:
            if name == "id":
                fragment = sanitize_fragment(value)
                break
        else:
            fragment = ".".join([frame[2] for frame in frames] + [step])
        iri = self.claim(instance, fragment)
        if member is not None:
            links.append((self.resolution[member[4]], iri))
        frames.append((instance, iri, step, len(self.out), [], [], {}, attrs))
        self.out.append(None)  # this instance's individual, set on close

    def value(self, member, text: str):
        """Record a simple-typed child's value on the open individual."""
        frame = self.frames[-1]
        prop, datatype = self.literal[member[4]]
        use = member[1]
        data = frame[5] if use is None else self.holder(frame, use)[1]
        data.append((prop, text, datatype))

    def close(self, ct: ComplexType, content: TypeContent):
        """Close the open individual: its attributes, its mixed text, then
        its group holders after its descendants' individuals."""
        frame = self.frames.pop()
        instance, iri, _, slot, object_assertions, data_assertions, holders, attrs = frame
        literal, table = self.literal, content.attributes
        for name, value in attrs:
            _, use, _, path = table[name]
            prop, datatype = literal[path]
            data = data_assertions if use is None else self.holder(frame, use)[1]
            data.append((prop, value, datatype))

        text = text_content(instance) if content.mixed_types else ""
        if text:
            prop, datatype = literal[self.view.text_path(content.mixed_types[0])]
            data_assertions.append((prop, text, datatype))

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
    check_instances(doc, schema, violations, populator)
    if violations:
        problems = "; ".join(str(v) for v in violations[:3])
        raise DocumentInvalid(
            f"document {doc.source_id!r} does not validate against the schema: "
            f"{problems}"
        )
    if populator.collision is not None:
        raise populator.collision
    return replace(tbox, individuals=tuple(populator.out))
