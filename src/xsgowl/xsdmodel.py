"""XML Schema component model: reader, writer and a structural validator.

The model covers exactly the construct set this toolchain emits or
consumes: global and local element declarations, ref= particles inside a
single xs:sequence, anonymous and named complex types, attributes, named
simple types with a restriction base, element/attribute groups,
complexContent extension/restriction, and mixed="true". Unsupported
constructs (xs:choice, xs:all, substitution groups, xs:any, imports,
simpleContent, ...) raise SchemaError naming the construct rather than
being dropped.

`walk` is the one traversal of a model's components: an explicit stack
that yields enter and leave events in document order, each with the
component's parent. The resolved view, the reference checks, the XSD
writer and the schema graph builder (xsg.py) all consume it, so no
schema depth or type chain runs into Python's recursion limit. The
reader keeps its own explicit stack over the XSD's XML elements.

`SchemaModel.resolved` is the one derived view of a model: each
component's schema path and each complex type's flattened content, with
that content's occurrence bounds and required names. The validator here,
the TBox generator and instance population all read it; the validator
keeps no facts of its own about a type.

`walk_instances` is the one traversal of an instance document, the
validator's: an explicit stack that checks each element and then yields
an enter event with the declaration member that admitted it, its
resolved type and content, its sibling ordinal and, when its type is not
complex, the text the check read; a complex-typed element also yields a
leave event after its children. `validate` drains it;
instance population (abox.py) builds individuals from the same events, so
no document depth runs into Python's recursion limit either.

Validation is deliberately structural, not a full XSD 1.0 validator: it
checks element/attribute presence, per-name occurrence counts, lexical
datatype fit and text placement. Child order is not enforced; occurrence
bounds other than 0/1/unbounded are accepted and checked as written.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from xml.etree.ElementTree import Element

from .datatypes import lexically_valid
from .xmldoc import XmlDocument, attributes, parse_xml, text_content

logger = logging.getLogger("xsgowl.xsd")

XSD_NS = "http://www.w3.org/2001/XMLSchema"

#: Built-in XSD datatype local names (primitive plus the derived ones that
#: show up in real schemas). Anything not listed here must resolve to a
#: schema-defined simple type.
XSD_BUILTINS = frozenset({
    "anyType", "anySimpleType",
    "string", "normalizedString", "token", "language",
    "Name", "NCName", "NMTOKEN", "ID", "IDREF", "ENTITY", "QName",
    "boolean", "decimal", "float", "double",
    "integer", "long", "int", "short", "byte",
    "nonNegativeInteger", "positiveInteger",
    "nonPositiveInteger", "negativeInteger",
    "unsignedLong", "unsignedInt", "unsignedShort", "unsignedByte",
    "duration", "dateTime", "time", "date",
    "gYearMonth", "gYear", "gMonthDay", "gDay", "gMonth",
    "hexBinary", "base64Binary", "anyURI", "NOTATION",
})


class SchemaError(Exception):
    """Unreadable, unresolved or unsupported schema content."""

    def __init__(self, position: tuple[int, int] | None, message: str):
        at = f"{position[0]}:{position[1]}: " if position else ""
        super().__init__(at + message)
        self.position = position
        self.message = message


@dataclass(slots=True)
class BuiltinRef:
    """Reference to a built-in XSD datatype by local name."""
    name: str


@dataclass(slots=True)
class NamedTypeRef:
    """Reference to a schema-defined global type by name."""
    name: str


@dataclass(slots=True)
class AttrDecl:
    name: str
    datatype: BuiltinRef | NamedTypeRef
    required: bool = False
    position: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class Particle:
    """One element particle of a content model: either a ref to a global
    element or a local declaration, never both."""
    ref: str | None
    decl: "ElementDecl | None"
    min_occurs: int = 1
    max_occurs: int | None = 1  # None = unbounded

    @property
    def name(self) -> str:
        return self.ref if self.ref is not None else self.decl.name


@dataclass(slots=True)
class ComplexType:
    name: str | None  # None iff anonymous (inline)
    particles: tuple[Particle, ...] = ()
    attributes: tuple[AttrDecl, ...] = ()
    group_refs: tuple[str, ...] = ()
    attr_group_refs: tuple[str, ...] = ()
    mixed: bool = False
    derivation: tuple[str, str] | None = None  # ("extension"|"restriction", base)
    position: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class SimpleType:
    name: str
    base: str  # built-in local name
    position: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class ElementDecl:
    name: str
    type: BuiltinRef | NamedTypeRef | ComplexType
    position: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class GroupDecl:
    name: str
    particles: tuple[Particle, ...]
    position: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(slots=True)
class AttrGroupDecl:
    name: str
    attributes: tuple[AttrDecl, ...]
    position: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class SchemaModel:
    global_elements: tuple[ElementDecl, ...]
    global_types: tuple[ComplexType | SimpleType, ...] = ()
    element_groups: tuple[GroupDecl, ...] = ()
    attribute_groups: tuple[AttrGroupDecl, ...] = ()
    source_id: str = field(compare=False, default="")

    def element(self, name: str) -> ElementDecl | None:
        return self._elements.get(name)

    def type_named(self, name: str) -> ComplexType | SimpleType | None:
        return self._types.get(name)

    def group(self, name: str) -> GroupDecl | None:
        return self._groups.get(name)

    def attr_group(self, name: str) -> AttrGroupDecl | None:
        return self._attr_groups.get(name)

    # Name indexes behind the four lookups, each built on first use. A
    # model read from XSD has unique names (`_check_references`), but a
    # model built by hand may not: the first declaration of a name wins.

    @cached_property
    def _elements(self) -> dict[str, ElementDecl]:
        return _first_wins(self.global_elements)

    @cached_property
    def _types(self) -> dict[str, ComplexType | SimpleType]:
        return _first_wins(self.global_types)

    @cached_property
    def _groups(self) -> dict[str, GroupDecl]:
        return _first_wins(self.element_groups)

    @cached_property
    def _attr_groups(self) -> dict[str, AttrGroupDecl]:
        return _first_wins(self.attribute_groups)

    @cached_property
    def resolved(self) -> "ResolvedSchema":
        """The schema facts every later stage reads, derived once."""
        return ResolvedSchema(self)

    @property
    def global_components(self) -> tuple:
        """Every global declaration: elements, types, groups, attributeGroups."""
        return (self.global_elements + self.global_types + self.element_groups
                + self.attribute_groups)


def _first_wins(components) -> dict:
    index = {}
    for c in components:
        index.setdefault(c.name, c)
    return index


# ---------------------------------------------------------------------------
# the component walk

ENTER = "enter"
LEAVE = "leave"

_GLOBAL_TAGS = {ElementDecl: "element", ComplexType: "complexType", SimpleType: "simpleType",
                GroupDecl: "group", AttrGroupDecl: "attributeGroup"}


def _children(c) -> tuple:
    kind = type(c)
    if kind is Particle:
        return () if c.decl is None else (c.decl,)
    if kind is ElementDecl:
        return (c.type,) if type(c.type) is ComplexType else ()
    if kind is ComplexType:
        return c.particles + c.attributes
    if kind is GroupDecl:
        return c.particles
    if kind is AttrGroupDecl:
        return c.attributes
    return ()


def walk(roots):
    """The global components `roots` and every component inside them,
    depth first in document order, on an explicit stack.

    Yields (ENTER, component, parent) before a component's children and
    (LEAVE, component, parent) after them; a root's parent is None. An
    element's child is its anonymous complex type; a complex type's
    children are its particles, then its attributes; a particle's child
    is its local element declaration."""
    stack = [(None, None, iter(roots))]  # the roots' frame yields no events
    while stack:
        c, parent, children = stack[-1]
        for child in children:
            yield ENTER, child, c
            below = _children(child)
            if below:  # resume `children` once the child's walk is done
                stack.append((child, c, iter(below)))
                break
            yield LEAVE, child, c
        else:
            stack.pop()
            if c is not None:
                yield LEAVE, c, parent


# ---------------------------------------------------------------------------
# resolved view


@dataclass(slots=True)
class GroupUse:
    """One complex type's reference to a group or attributeGroup."""
    decl: GroupDecl | AttrGroupDecl
    path: str  # under the body of the type that writes the reference


@dataclass(slots=True)
class TypeContent:
    """A complex type's content with its extension chain and group
    references flattened, base members first. Each member carries the
    GroupUse it came through, or None when a type declares it directly; a
    particle member also carries its element's declared type, read off the
    referenced global element once here rather than per instance.
    `bounds` holds each particle name's total (min, max) occurrences, max
    None when unbounded, in particle order; `required` holds the names
    whose min is above 0, in the same order, and `required_attributes` the
    names of the attributes declared use="required"."""
    particles: dict[str, list[tuple[Particle, GroupUse | None,
                                    BuiltinRef | NamedTypeRef | ComplexType]]]
    attributes: dict[str, tuple[AttrDecl, GroupUse | None]]  # first wins
    mixed_types: tuple[ComplexType, ...]  # most-derived first
    bounds: dict[str, tuple[int, int | None]]
    required: tuple[str, ...]
    required_attributes: tuple[str, ...]


class ResolvedSchema:
    """Stable XPath-like paths for every component of one SchemaModel
    (keyed by identity) and each complex type's flattened content, built
    on first use. The validator, the TBox generator and instance
    population all read this one view, so the bridges the generator
    records are the ones population looks up."""

    def __init__(self, model: SchemaModel):
        # The name indexes `_flatten` reads, not the model: the model caches
        # this view, and a reference back would make a cycle.
        self._elements = model._elements
        self._types = model._types
        self._groups = model._groups
        self._attr_groups = model._attr_groups
        self._paths: dict[int, str] = {}
        self._bodies: dict[int, str] = {}
        self._content: dict[int, TypeContent] = {}
        paths, bodies = self._paths, self._bodies
        for event, c, parent in walk(model.global_components):
            if event is LEAVE:
                continue
            kind = type(c)
            if parent is None:
                path = f"/xs:schema/xs:{_GLOBAL_TAGS[kind]}[{c.name}]"
            else:  # under the parent's path, or under a complex type's body
                path = (bodies if type(parent) is ComplexType else paths)[id(parent)]
                if kind is Particle:
                    path = f"{path}/xs:sequence/xs:element[{c.name}]"
                elif kind is AttrDecl:
                    path = f"{path}/xs:attribute[{c.name}]"
                elif kind is ComplexType:
                    path += "/xs:complexType"
                # a particle's local element declaration shares its path
            path = paths.setdefault(id(c), path)
            if kind is ComplexType:
                bodies.setdefault(id(c), path if c.derivation is None
                                  else f"{path}/xs:complexContent/xs:{c.derivation[0]}")

    def path(self, component) -> str:
        return self._paths[id(component)]

    def body_path(self, ct: ComplexType) -> str:
        """Path of the type's own content model, including the
        complexContent segment for derived types."""
        return self._bodies[id(ct)]

    def text_path(self, ct: ComplexType) -> str:
        """Path of a mixed type's text content."""
        return f"{self._paths[id(ct)]}/text()"

    def ref_path(self, ct: ComplexType, decl: GroupDecl | AttrGroupDecl) -> str:
        """Path of ct's own reference to a group or attributeGroup."""
        tag = "group" if isinstance(decl, GroupDecl) else "attributeGroup"
        return f"{self._bodies[id(ct)]}/xs:{tag}[{decl.name}]"

    def content(self, ct: ComplexType) -> TypeContent:
        """The type's flattened content, built on first use."""
        found = self._content.get(id(ct))
        if found is None:
            found = self._content[id(ct)] = self._flatten(ct)
        return found

    def _flatten(self, ct: ComplexType) -> TypeContent:
        chain = [ct]  # most-derived first; extension adds to its base
        while chain[-1].derivation is not None and chain[-1].derivation[0] == "extension":
            chain.append(self._types.get(chain[-1].derivation[1]))
        particles: dict[str, list] = {}
        attrs: dict[str, tuple[AttrDecl, GroupUse | None]] = {}

        def add(p: Particle, use: GroupUse | None):
            declared = p.decl.type if p.ref is None else self._elements[p.ref].type
            particles.setdefault(p.name, []).append((p, use, declared))

        for t in reversed(chain):
            for p in t.particles:
                add(p, None)
            for g in t.group_refs:
                decl = self._groups.get(g)
                use = GroupUse(decl, self.ref_path(t, decl))
                for p in decl.particles:
                    add(p, use)
            for a in t.attributes:
                attrs.setdefault(a.name, (a, None))
            for ag in t.attr_group_refs:
                decl = self._attr_groups.get(ag)
                use = GroupUse(decl, self.ref_path(t, decl))
                for a in decl.attributes:
                    attrs.setdefault(a.name, (a, use))
        bounds, required, required_attributes = {}, [], []
        for name, members in particles.items():  # max None when unbounded
            low = high = 0
            for p, _, _ in members:
                low += p.min_occurs
                high = None if high is None or p.max_occurs is None else high + p.max_occurs
            bounds[name] = low, high
            if low > 0:
                required.append(name)
        for name, (a, _) in attrs.items():
            if a.required:
                required_attributes.append(name)
        return TypeContent(particles, attrs, tuple(t for t in chain if t.mixed), bounds,
                           tuple(required), tuple(required_attributes))


# ---------------------------------------------------------------------------
# reference resolution


def _check_references(model: SchemaModel) -> None:
    """Raise SchemaError on duplicate global names or dangling references."""
    for kind, names in (
        ("element", [e.name for e in model.global_elements]),
        ("type", [t.name for t in model.global_types]),
        ("group", [g.name for g in model.element_groups]),
        ("attributeGroup", [g.name for g in model.attribute_groups]),
    ):
        seen = set()
        for n in names:
            if n in seen:
                raise SchemaError(None, f"duplicate global {kind} name {n!r}")
            seen.add(n)

    # how messages name each open complex type and group
    context: dict[int, str] = {}
    for event, c, parent in walk(model.global_components):
        kind = type(c)
        if event is LEAVE:
            if kind is not ComplexType:
                continue
            where = context[id(c)]
            for g in c.group_refs:
                if model.group(g) is None:
                    raise SchemaError(c.position, f"unresolved group reference {g!r} in {where}")
            for g in c.attr_group_refs:
                if model.attr_group(g) is None:
                    raise SchemaError(
                        c.position, f"unresolved attributeGroup reference {g!r} in {where}"
                    )
            if c.derivation is not None:
                base = model.type_named(c.derivation[1])
                if not isinstance(base, ComplexType):
                    raise SchemaError(
                        c.position,
                        f"derivation base {c.derivation[1]!r} of {where} is not a complex type",
                    )
        elif kind is Particle:
            if c.ref is not None and model.element(c.ref) is None:
                raise SchemaError(
                    None, f"unresolved element reference {c.ref!r} in {context[id(parent)]}"
                )
        elif kind is ElementDecl:
            if type(c.type) is not ComplexType:
                _check_type_ref(model, c.type, f"element {c.name!r}", c.position)
        elif kind is ComplexType:
            context[id(c)] = (f"type {c.name!r}" if c.name is not None
                              else f"element {parent.name!r}")
        elif kind is GroupDecl or kind is AttrGroupDecl:
            context[id(c)] = f"{_GLOBAL_TAGS[kind]} {c.name!r}"
        elif kind is AttrDecl:
            owner = context[id(parent)]
            where = f"attribute {c.name!r} of {owner}"
            # an unresolved type in an attributeGroup names the group alone
            _check_type_ref(model, c.datatype,
                            owner if type(parent) is AttrGroupDecl else where, c.position)
            if isinstance(c.datatype, NamedTypeRef):
                if not isinstance(model.type_named(c.datatype.name), SimpleType):
                    raise SchemaError(c.position, f"{where} must reference a simple type")

    # Derivation chains must terminate. Each link is followed once: a chain
    # stops at a type already known to terminate.
    terminates: set[str] = set()
    for t in model.global_types:
        if not isinstance(t, ComplexType):
            continue
        chain = {t.name}
        cur = t
        while cur.derivation is not None and cur.name not in terminates:
            cur = model.type_named(cur.derivation[1])
            if cur.name in chain:
                raise SchemaError(t.position, f"circular derivation involving {t.name!r}")
            chain.add(cur.name)
        terminates |= chain


def _check_type_ref(model: SchemaModel, ref, where: str, position):
    if isinstance(ref, NamedTypeRef) and model.type_named(ref.name) is None:
        raise SchemaError(position, f"unresolved type reference {ref.name!r} in {where}")


# ---------------------------------------------------------------------------
# reader


class _SchemaReader:
    """Reads an XSD document on an explicit stack of frames, one per open
    xs:element, xs:complexType, xs:sequence or global xs:group. A frame is
    a generator: to read a nested element, type or sequence it yields
    (reader, *args) and is sent back the component built; it returns its
    own component when it closes. Readers never call each other, so
    nesting depth costs stack entries, not Python frames."""

    def __init__(self, doc: XmlDocument):
        self.doc = doc
        self.position = doc.position
        self.xsd_prefixes: set[str] = set()
        self.default_is_xsd = False

    def read(self) -> SchemaModel:
        root = self.doc.root
        for name, value in root.items():
            if name.startswith("xmlns:") and value == XSD_NS:
                self.xsd_prefixes.add(name[6:])
            elif name == "xmlns" and value == XSD_NS:
                self.default_is_xsd = True
        if not self.is_xsd(root) or root.tag.local != "schema":
            raise SchemaError(self.position(root), "root element is not an XML Schema")

        elements: list[ElementDecl] = []
        types: list[ComplexType | SimpleType] = []
        groups: list[GroupDecl] = []
        attr_groups: list[AttrGroupDecl] = []
        for local, child in self.xsd_children(root):
            if local == "element":
                elements.append(self.build(self.read_element, child, "global"))
            elif local == "complexType":
                types.append(self.build(self.read_complex_type, child, True))
            elif local == "simpleType":
                types.append(self.read_simple_type(child))
            elif local == "group":
                groups.append(self.build(self.read_group, child))
            elif local == "attributeGroup":
                attr_groups.append(self.read_attr_group(child))
            else:
                raise SchemaError(self.position(child), f"unsupported construct xs:{local}")
        model = SchemaModel(
            tuple(elements), tuple(types), tuple(groups), tuple(attr_groups),
            source_id=self.doc.source_id,
        )
        _check_references(model)
        return model

    def build(self, reader, *args):
        """Run one reader and the frames it opens to completion."""
        stack, built = [reader(*args)], None
        while True:
            try:
                request = stack[-1].send(built)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                built = done.value
            else:
                stack.append(request[0](*request[1:]))
                built = None

    def is_xsd(self, el: Element) -> bool:
        if el.tag.prefix is None:
            return self.default_is_xsd
        return el.tag.prefix in self.xsd_prefixes

    def expect_xsd(self, el: Element) -> str:
        if not self.is_xsd(el):
            raise SchemaError(self.position(el), f"foreign-namespace element {el.tag} in schema")
        return el.tag.local

    def xsd_children(self, el: Element):
        """(local name, child) for each child element but xs:annotation; a
        foreign element raises when it is reached."""
        for child in el:
            local = self.expect_xsd(child)
            if local != "annotation":
                yield local, child

    def required(self, el: Element, name: str, message: str) -> str:
        value = el.get(name)
        if value is None:
            raise SchemaError(self.position(el), message)
        return value

    def type_ref(self, qname: str, position) -> BuiltinRef | NamedTypeRef:
        if ":" in qname:
            prefix, local = qname.split(":", 1)
            if prefix in self.xsd_prefixes:
                return BuiltinRef(local)
            raise SchemaError(position, f"cross-namespace type reference {qname!r}")
        if self.default_is_xsd and qname in XSD_BUILTINS:
            return BuiltinRef(qname)
        return NamedTypeRef(qname)

    def occurs(self, el: Element) -> tuple[int, int | None]:
        min_s = el.get("minOccurs")
        max_s = el.get("maxOccurs")
        try:
            min_o = 1 if min_s is None else int(min_s)
            max_o = 1 if max_s is None else (None if max_s == "unbounded" else int(max_s))
        except ValueError:
            raise SchemaError(self.position(el), "bad occurrence value") from None
        if min_o < 0 or (max_o is not None and max_o < min_o):
            raise SchemaError(self.position(el), "bad occurrence range")
        return min_o, max_o

    def read_element(self, el: Element, scope: str):
        name = self.required(el, "name", "element declaration without a name")
        if scope == "global" and (
            el.get("minOccurs") is not None or el.get("maxOccurs") is not None
        ):
            raise SchemaError(
                self.position(el), "occurrence facets are not allowed on global elements"
            )
        type_attr = el.get("type")
        inline: ComplexType | None = None
        for local, child in self.xsd_children(el):
            if local == "complexType":
                if type_attr is not None or inline is not None:
                    raise SchemaError(self.position(child), "element has two types")
                inline = yield self.read_complex_type, child, False
            elif local == "simpleType":
                raise SchemaError(
                    self.position(child), "unsupported construct: anonymous xs:simpleType"
                )
            else:
                raise SchemaError(self.position(child), f"unsupported construct xs:{local}")
        etype = inline or BuiltinRef("anyType")
        if type_attr is not None:  # then there is no inline type
            etype = self.type_ref(type_attr, self.position(el))
        return ElementDecl(name, etype, position=self.position(el))

    def read_particles(self, seq: Element):
        particles: list[Particle] = []
        group_refs: list[str] = []
        for local, child in self.xsd_children(seq):
            if local == "element":
                min_o, max_o = self.occurs(child)
                ref = child.get("ref")
                if ref is not None:
                    if child.get("name") is not None:
                        raise SchemaError(
                            self.position(child), "element particle has both ref and name"
                        )
                    particles.append(Particle(ref, None, min_o, max_o))
                else:
                    decl = yield self.read_element, child, "local"
                    particles.append(Particle(None, decl, min_o, max_o))
            elif local == "group":
                ref = self.required(child, "ref", "group particle without ref")
                if child.get("minOccurs") or child.get("maxOccurs"):
                    raise SchemaError(
                        self.position(child),
                        "occurrence facets on group references are not supported",
                    )
                group_refs.append(ref)
            elif local in ("choice", "all", "any", "sequence"):
                raise SchemaError(
                    self.position(child),
                    f"unsupported construct xs:{local} inside xs:sequence",
                )
            else:
                raise SchemaError(self.position(child), f"unsupported construct xs:{local}")
        return particles, group_refs

    def read_attribute(self, el: Element) -> AttrDecl:
        name = self.required(
            el, "name", "attribute references (ref=) are not supported"
        )
        type_attr = el.get("type")
        datatype = (
            BuiltinRef("string")
            if type_attr is None
            else self.type_ref(type_attr, self.position(el))
        )
        use = el.get("use") or "optional"
        if use not in ("optional", "required"):
            raise SchemaError(self.position(el), f"unsupported attribute use {use!r}")
        return AttrDecl(name, datatype, use == "required", position=self.position(el))

    def read_complex_type(self, el: Element, named: bool):
        name = el.get("name")
        if named and name is None:
            raise SchemaError(self.position(el), "global complexType without a name")
        if not named and name is not None:
            raise SchemaError(self.position(el), "local complexType must be anonymous")
        mixed = (el.get("mixed") or "false") == "true"

        derivation: tuple[str, str] | None = None
        body = el
        kids = [k for k in el if not (self.is_xsd(k) and k.tag.local == "annotation")]
        if len(kids) == 1 and self.is_xsd(kids[0]) and kids[0].tag.local == "complexContent":
            inner = list(kids[0])
            if len(inner) != 1:
                raise SchemaError(self.position(kids[0]), "malformed xs:complexContent")
            deriv_el = inner[0]
            kind = self.expect_xsd(deriv_el)
            if kind not in ("extension", "restriction"):
                raise SchemaError(self.position(deriv_el), f"unsupported construct xs:{kind}")
            base = self.required(deriv_el, "base", f"xs:{kind} without base")
            base_ref = self.type_ref(base, self.position(deriv_el))
            if isinstance(base_ref, BuiltinRef):
                raise SchemaError(
                    self.position(deriv_el), "complexContent base must be a complex type"
                )
            derivation = (kind, base_ref.name)
            body = deriv_el

        particles: list[Particle] = []
        attributes: list[AttrDecl] = []
        group_refs: list[str] = []
        attr_group_refs: list[str] = []
        seen_sequence = False
        for local, child in self.xsd_children(body):
            if local == "sequence":
                if seen_sequence:
                    raise SchemaError(self.position(child), "multiple content models in one type")
                seen_sequence = True
                particles, seq_groups = yield self.read_particles, child
                group_refs.extend(seq_groups)
            elif local == "attribute":
                attributes.append(self.read_attribute(child))
            elif local == "group":
                ref = self.required(child, "ref", "group reference without ref")
                group_refs.append(ref)
            elif local == "attributeGroup":
                ref = self.required(
                    child, "ref", "attributeGroup reference without ref"
                )
                attr_group_refs.append(ref)
            else:  # xs:choice, xs:all, xs:any, xs:simpleContent, ...
                raise SchemaError(self.position(child), f"unsupported construct xs:{local}")
        return ComplexType(
            name, tuple(particles), tuple(attributes), tuple(group_refs),
            tuple(attr_group_refs), mixed=mixed, derivation=derivation,
            position=self.position(el),
        )

    def read_simple_type(self, el: Element) -> SimpleType:
        name = self.required(el, "name", "global simpleType without a name")
        restr = None
        for local, child in self.xsd_children(el):
            if local == "restriction":
                restr = child
            else:
                raise SchemaError(self.position(child), f"unsupported construct xs:{local}")
        if restr is None:
            raise SchemaError(self.position(el), "simpleType without xs:restriction")
        base = self.required(restr, "base", "xs:restriction without base")
        base_ref = self.type_ref(base, self.position(restr))
        if not isinstance(base_ref, BuiltinRef):
            raise SchemaError(
                self.position(restr), "simpleType restriction base must be built-in"
            )
        # facets inside the restriction carry no structural information here
        return SimpleType(name, base_ref.name, position=self.position(el))

    def read_group(self, el: Element):
        name = self.required(el, "name", "global group without a name")
        particles: list[Particle] = []
        for local, child in self.xsd_children(el):
            if local == "sequence":
                seq_particles, seq_groups = yield self.read_particles, child
                if seq_groups:
                    raise SchemaError(
                        self.position(child), "nested group references are not supported"
                    )
                particles.extend(seq_particles)
            else:
                raise SchemaError(self.position(child), f"unsupported construct xs:{local}")
        return GroupDecl(name, tuple(particles), position=self.position(el))

    def read_attr_group(self, el: Element) -> AttrGroupDecl:
        name = self.required(el, "name", "global attributeGroup without a name")
        attributes: list[AttrDecl] = []
        for local, child in self.xsd_children(el):
            if local == "attribute":
                attributes.append(self.read_attribute(child))
            else:
                raise SchemaError(self.position(child), f"unsupported construct xs:{local}")
        return AttrGroupDecl(name, tuple(attributes), position=self.position(el))


def read_schema(data: bytes, source_id: str) -> SchemaModel:
    """Parse XSD bytes into a fully resolved SchemaModel."""
    return _SchemaReader(parse_xml(data, source_id)).read()


# ---------------------------------------------------------------------------
# writer


def _occurs_attrs(p: Particle) -> str:
    parts = []
    if p.min_occurs != 1:
        parts.append(f' minOccurs="{p.min_occurs}"')
    if p.max_occurs != 1:
        value = "unbounded" if p.max_occurs is None else str(p.max_occurs)
        parts.append(f' maxOccurs="{value}"')
    return "".join(parts)


def _type_text(ref: BuiltinRef | NamedTypeRef) -> str:
    return f"xs:{ref.name}" if isinstance(ref, BuiltinRef) else ref.name


def _attribute_line(a: AttrDecl, indent: str) -> str:
    use = ' use="required"' if a.required else ""
    return f'{indent}<xs:attribute name="{a.name}"{use} type="{_type_text(a.datatype)}"/>'


def serialize_schema(model: SchemaModel) -> str:
    """Write the model as XSD text: xs: prefix, two-space indentation,
    occurrence facets omitted when they equal the defaults."""
    lines: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<xs:schema xmlns:xs="{XSD_NS}">',
    ]
    # per open component: its children's indentation and its closing lines
    frames: list[tuple[str, tuple[str, ...] | list[str]]] = [("  ", ())]
    for event, c, parent in walk(model.global_components):
        if event is LEAVE:
            lines.extend(frames.pop()[1])
            continue
        indent = frames[-1][0]
        inner, closing = indent, ()
        kind = type(c)
        if kind is Particle:  # a local element is written at its own event
            if c.ref is not None:
                lines.append(f'{indent}<xs:element{_occurs_attrs(c)} ref="{c.ref}"/>')
        elif kind is ElementDecl:
            occurs = _occurs_attrs(parent) if type(parent) is Particle else ""
            if type(c.type) is ComplexType:
                lines.append(f'{indent}<xs:element{occurs} name="{c.name}">')
                inner, closing = indent + "  ", (f"{indent}</xs:element>",)
            else:
                lines.append(
                    f'{indent}<xs:element{occurs} name="{c.name}" type="{_type_text(c.type)}"/>'
                )
        elif kind is ComplexType:
            derived = c.derivation is not None
            body = indent + ("      " if derived else "  ")
            inner = body + "  "
            sequence = bool(c.particles or c.group_refs)
            attrs = (f' name="{c.name}"' if c.name is not None else "") + (
                ' mixed="true"' if c.mixed else "")
            if not (derived or sequence or c.attributes or c.attr_group_refs):
                lines.append(f"{indent}<xs:complexType{attrs}/>")
            else:
                # the sequence's group references, the attributes and the
                # attributeGroup references follow the particles
                lines.append(f"{indent}<xs:complexType{attrs}>")
                closing = [f'{body}  <xs:group ref="{g}"/>' for g in c.group_refs]
                if derived:
                    lines.append(f"{indent}  <xs:complexContent>")
                    lines.append(f'{indent}    <xs:{c.derivation[0]} base="{c.derivation[1]}">')
                if sequence:
                    lines.append(f"{body}<xs:sequence>")
                    closing.append(f"{body}</xs:sequence>")
                closing += [_attribute_line(a, body) for a in c.attributes]
                closing += [f'{body}<xs:attributeGroup ref="{g}"/>' for g in c.attr_group_refs]
                if derived:
                    closing.append(f"{indent}    </xs:{c.derivation[0]}>")
                    closing.append(f"{indent}  </xs:complexContent>")
                closing.append(f"{indent}</xs:complexType>")
        elif kind is GroupDecl:
            lines.append(f'{indent}<xs:group name="{c.name}">')
            lines.append(f"{indent}  <xs:sequence>")
            inner, closing = indent + "    ", (f"{indent}  </xs:sequence>", f"{indent}</xs:group>")
        elif kind is SimpleType:
            lines.append(f'{indent}<xs:simpleType name="{c.name}">')
            lines.append(f'{indent}  <xs:restriction base="xs:{c.base}"/>')
            lines.append(f"{indent}</xs:simpleType>")
        elif kind is AttrGroupDecl:  # a complex type writes its own attributes
            lines.append(f'{indent}<xs:attributeGroup name="{c.name}">')
            lines.extend(_attribute_line(a, indent + "  ") for a in c.attributes)
            lines.append(f"{indent}</xs:attributeGroup>")
        frames.append((inner, closing))
    lines.append("</xs:schema>")
    lines.append("")  # the final newline, without copying the document again
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# validation


@dataclass(slots=True)
class Violation:
    kind: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations


class _Validator:
    def __init__(self, model: SchemaModel, violations: list[Violation]):
        self.model = model
        self.view = model.resolved
        self.violations = violations
        # Where the walk is: the root's name, then a name and a same-name
        # sibling ordinal per level. It becomes a path string only when a
        # violation is reported, so a valid document formats none.
        self.trail: list[str | int] = []

    def complain(self, kind: str, message: str, suffix: str = ""):
        trail = self.trail
        steps = "".join(
            f"/{trail[i]}[{trail[i + 1]}]" for i in range(1, len(trail), 2)
        )
        self.violations.append(Violation(kind, f"/{trail[0]}{steps}{suffix}", message))

    def resolve_type(self, ref) -> ComplexType | SimpleType | BuiltinRef:
        if isinstance(ref, NamedTypeRef):
            return self.model.type_named(ref.name)
        return ref

    def check_simple_value(self, value: str, t, suffix: str = ""):
        """Check a value against the lexical space of the resolved type `t`:
        a built-in's own, or a simple type's base."""
        if isinstance(t, BuiltinRef):
            lex = None if t.name in ("anyType", "anySimpleType") else t.name
        else:
            lex = t.base if isinstance(t, SimpleType) else None
        if lex is not None and not lexically_valid(value, lex):
            self.complain("datatype", f"value {value!r} is not a valid xs:{lex}", suffix)

    def check(self, instance: Element, type_ref):
        """Check one element against its declared type, not its children:
        (resolved type, flattened content or None when the type is not
        complex, the element's text or None when the type is complex)."""
        resolved = self.resolve_type(type_ref)
        if isinstance(resolved, BuiltinRef) and resolved.name == "anyType":
            return resolved, None, text_content(instance)
        if isinstance(resolved, (BuiltinRef, SimpleType)):
            for name, _ in attributes(instance):
                self.complain(
                    "undeclared-attribute",
                    f"attribute {name!r} not allowed on simple-typed element",
                )
            for child in instance:
                self.complain(
                    "unknown-element",
                    f"element {child.tag.local!r} not allowed inside simple-typed element",
                )
            text = text_content(instance)
            self.check_simple_value(text, resolved)
            return resolved, None, text

        content = self.view.content(resolved)
        attrs = content.attributes

        present = attributes(instance)
        for name, value in present:
            member = attrs.get(name)
            if member is None:
                self.complain("undeclared-attribute", f"undeclared attribute {name!r}")
            else:
                self.check_simple_value(
                    value, self.resolve_type(member[0].datatype), f"/@{name}")
        if content.required_attributes:
            names = dict(present)
            for name in content.required_attributes:
                if name not in names:
                    self.complain("missing-attribute", f"required attribute {name!r} is missing")

        if not content.mixed_types and text_content(instance):
            self.complain("unexpected-text", "text content in non-mixed type")

        counts: dict[str, int] = {}
        for child in instance:
            name = child.tag.local
            counts[name] = counts.get(name, 0) + 1
        # Only required names and names present can be out of bounds, so
        # the check costs no more than the instance and the required names,
        # however many optional names the type declares. Reports follow
        # particle order.
        bounds = content.bounds
        off = [name for name in content.required if name not in counts]
        for name, n in counts.items():
            bound = bounds.get(name)
            if bound is not None and (n < bound[0] or (bound[1] is not None and n > bound[1])):
                off.append(name)
        if len(off) > 1:
            out = set(off)
            off = [name for name in bounds if name in out]
        for name in off:
            n = counts.get(name, 0)
            min_total, max_total = bounds[name]
            if n == 0:
                self.complain("missing-child", f"required child {name!r} is missing")
            elif n < min_total:
                self.complain(
                    "occurrence", f"child {name!r} occurs {n} times, minimum is {min_total}",
                )
            else:
                self.complain(
                    "occurrence", f"child {name!r} occurs {n} times, maximum is {max_total}",
                )
        return resolved, content, None


def walk_instances(doc: XmlDocument, schema: SchemaModel, violations: list[Violation]):
    """Check the document against the schema, depth first in document
    order on an explicit stack, appending each violation to `violations`
    as it is found. Yields (ENTER, instance, member, type, content, ordinal,
    text) once an element is checked and, for a complex-typed element only,
    (LEAVE, ...) after its children: the (particle, GroupUse or None,
    declared type) member that admitted it (None for the root), its
    resolved type, that type's flattened content (None unless the type is
    complex), its 1-based ordinal among same-name siblings and its trimmed
    text (None when the type is complex), read once for the check and its
    consumers. So ENTER
    and LEAVE pair up for complex-typed elements, and a simple-typed one,
    which has nothing to close, yields ENTER alone.
    An element that no declaration admits yields no events."""
    v = _Validator(schema, violations)
    root, trail = doc.root, v.trail
    name = root.tag.local
    trail.append(name)
    decl = schema.element(name)
    if decl is None:
        v.complain("unknown-element", f"no global element {name!r}")
        return
    resolved, content, text = v.check(root, decl.type)
    yield ENTER, root, None, resolved, content, 1, text
    # per open element: its event fields, its children left to walk and
    # the same-name counts of those walked; only a complex-typed element's
    # children are walked
    stack = [((root, None, resolved, content, 1, text),
              iter(root if content is not None else ()), {})]
    while stack:
        fields, children, ordinals = stack[-1]
        for child in children:
            name = child.tag.local
            ordinal = ordinals[name] = ordinals.get(name, 0) + 1
            trail += (name, ordinal)
            members = fields[3].particles.get(name)
            if members is None:
                v.complain("unknown-element", f"unexpected element {name!r}")
                del trail[-2:]
                continue
            member = members[0]
            resolved, content, text = v.check(child, member[2])
            yield ENTER, child, member, resolved, content, ordinal, text
            if content is not None and len(child):
                # resume `children` once the child's walk is done
                stack.append(((child, member, resolved, content, ordinal, text),
                              iter(child), {}))
                break
            del trail[-2:]
            if content is not None:
                yield LEAVE, child, member, resolved, content, ordinal, text
        else:
            stack.pop()
            del trail[-2:]
            if fields[3] is not None:  # only a simple-typed root has none
                yield (LEAVE, *fields)


def validate(doc: XmlDocument, schema: SchemaModel) -> ValidationReport:
    """Structurally check a document against the schema; an empty report
    means the document conforms (within the supported construct set)."""
    violations: list[Violation] = []
    for _ in walk_instances(doc, schema, violations):
        pass
    return ValidationReport(violations)
