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
that content's occurrence bounds, required names and per-member checks.
The instance pass here, the TBox generator and instance population all
read it; the pass keeps no facts of its own about a type.

`check_instances` is the one pass over an instance document: an explicit
stack of open complex-typed elements that checks each element against
the facts its type's content holds, once per type: each child name's
member, resolved type and value check, each attribute's value check. A
bare text leaf costs one strip and one check. `validate` runs the pass
alone; instance population (abox.py) runs it with a sink that is handed
each admitted element, so one walk checks a document and builds its
individuals, and no document depth runs into Python's recursion limit
either.

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

from .datatypes import lexical_check
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
    references flattened, base members first, and what checking and
    populating an instance of it needs, derived once per type.

    `particles` maps each child name to the member that admits it, the
    first particle of that name: (particle, the GroupUse it came through or
    None when a type declares it directly, the resolved type of its
    element, that type's value check, the particle's schema path). The
    resolved type is a ComplexType, a SimpleType or a BuiltinRef; the value
    check is `datatypes.lexical_check` of its lexical type, None when values
    go unchecked or the type is complex. `attributes` maps each attribute
    name to (declaration, GroupUse or None, value check, schema path), the
    first declaration winning. `bounds` holds each child name's total
    (min, max) occurrences, max None when unbounded, in particle order;
    `required` holds the names whose min is above 0, in the same order,
    and `required_attributes` the names of the attributes declared
    use="required"."""
    particles: dict[str, tuple[Particle, GroupUse | None,
                               ComplexType | SimpleType | BuiltinRef, object, str]]
    attributes: dict[str, tuple[AttrDecl, GroupUse | None, object, str]]
    mixed_types: tuple[ComplexType, ...]  # most-derived first
    bounds: dict[str, tuple[int, int | None]]
    required: tuple[str, ...]
    required_attributes: tuple[str, ...]


def _lexical_type(t: SimpleType | BuiltinRef) -> str:
    """The built-in whose lexical space a resolved simple type's values
    take: a built-in's own, or a simple type's base."""
    return t.base if type(t) is SimpleType else t.name


def _value_check(t):
    """The lexical check of a resolved type's values; None when the type
    is complex or its values go unchecked."""
    return None if type(t) is ComplexType else lexical_check(_lexical_type(t))


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

    def resolve(self, ref):
        """The type a declaration names: the schema's global type for a
        NamedTypeRef, else the BuiltinRef or ComplexType itself."""
        return self._types.get(ref.name) if type(ref) is NamedTypeRef else ref

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
        paths = self._paths
        particles: dict[str, tuple] = {}
        attrs: dict[str, tuple] = {}
        bounds: dict[str, tuple[int, int | None]] = {}  # max None when unbounded

        def add(p: Particle, use: GroupUse | None):
            name = p.name
            bound = bounds.get(name)
            if bound is None:
                declared = p.decl.type if p.ref is None else self._elements[p.ref].type
                t = self.resolve(declared)
                particles[name] = (p, use, t, _value_check(t), paths[id(p)])
                bound = 0, 0
            low, high = bound
            bounds[name] = (low + p.min_occurs, None if high is None or p.max_occurs is None
                            else high + p.max_occurs)

        def add_attribute(a: AttrDecl, use: GroupUse | None):
            if a.name not in attrs:
                attrs[a.name] = (a, use, _value_check(self.resolve(a.datatype)),
                                 paths[id(a)])

        for t in reversed(chain):
            for p in t.particles:
                add(p, None)
            for g in t.group_refs:
                decl = self._groups.get(g)
                use = GroupUse(decl, self.ref_path(t, decl))
                for p in decl.particles:
                    add(p, use)
            for a in t.attributes:
                add_attribute(a, None)
            for ag in t.attr_group_refs:
                decl = self._attr_groups.get(ag)
                use = GroupUse(decl, self.ref_path(t, decl))
                for a in decl.attributes:
                    add_attribute(a, use)
        return TypeContent(
            particles, attrs, tuple(t for t in chain if t.mixed), bounds,
            tuple(name for name, (low, _) in bounds.items() if low > 0),
            tuple(name for name, (a, *_) in attrs.items() if a.required))


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


class _InstanceCheck:
    """One check of one document against a schema, on an explicit stack of
    open complex-typed elements, handing what it admits to an optional
    sink (see `check_instances`). Every per-type fact comes from the
    schema's resolved view; the path of an element is formatted only when
    a violation there is reported."""

    def __init__(self, schema: SchemaModel, violations: list[Violation], sink):
        self.schema = schema
        self.view = schema.resolved
        self.violations = violations
        self.sink = sink
        # per open complex-typed element: its children left to check, its
        # type and content, the same-name counts of the children checked so
        # far, and its name and same-name ordinal (None for the root)
        self.stack: list[tuple] = []

    def complain(self, kind: str, message: str, name: str, ordinal: int | None,
                 suffix: str = ""):
        """Report a violation at the element `name`, the `ordinal`th of its
        name among its siblings, below the open elements."""
        levels = [(frame[4], frame[5]) for frame in self.stack]
        levels.append((name, ordinal))
        path = "".join(f"/{n}" if o is None else f"/{n}[{o}]" for n, o in levels)
        self.violations.append(Violation(kind, path + suffix, message))

    def simple_value(self, el: Element, t, check, name: str, ordinal: int | None) -> str:
        """The trimmed text of an element whose resolved type `t` is not
        complex, checked against `t` with the value check `check`. A bare
        text leaf, with no attribute, namespace declaration or child, costs
        one strip and the check."""
        text = el.text
        # `keys()`, not `attrib`: reading `attrib` would give each bare leaf
        # a dict of its own for the rest of the document's life
        if el.keys() or len(el):
            if type(t) is not BuiltinRef or t.name != "anyType":  # anyType admits both
                for attr, _ in attributes(el):
                    self.complain(
                        "undeclared-attribute",
                        f"attribute {attr!r} not allowed on simple-typed element",
                        name, ordinal,
                    )
                for child in el:
                    self.complain(
                        "unknown-element",
                        f"element {child.tag.local!r} not allowed inside simple-typed element",
                        name, ordinal,
                    )
            text = text_content(el)
        else:
            text = text.strip() if text else ""
        if check is not None and not check(text):
            self.complain("datatype", f"value {text!r} is not a valid xs:{_lexical_type(t)}",
                          name, ordinal)
        return text

    def complex_element(self, el: Element, attrs: list[tuple[str, str]],
                        content: TypeContent, name: str, ordinal: int | None):
        """Check an element of a complex type, but not its children: its
        attributes `attrs`, its text and how often each child name occurs."""
        table = content.attributes
        for attr, value in attrs:
            member = table.get(attr)
            if member is None:
                self.complain("undeclared-attribute", f"undeclared attribute {attr!r}",
                              name, ordinal)
            elif member[2] is not None and not member[2](value):
                lexical = _lexical_type(self.view.resolve(member[0].datatype))
                self.complain("datatype", f"value {value!r} is not a valid xs:{lexical}",
                              name, ordinal, f"/@{attr}")
        if content.required_attributes:
            present = dict(attrs)
            for attr in content.required_attributes:
                if attr not in present:
                    self.complain("missing-attribute",
                                  f"required attribute {attr!r} is missing", name, ordinal)

        # one loop counts the children and looks for text between them
        text = el.text
        stray = text and not text.isspace()
        counts: dict[str, int] = {}
        for child in el:
            child_name = child.tag.local
            counts[child_name] = counts.get(child_name, 0) + 1
            tail = child.tail
            if tail and not tail.isspace():
                stray = True
        if stray and not content.mixed_types:
            self.complain("unexpected-text", "text content in non-mixed type", name, ordinal)

        # Only required names and names present can be out of bounds, so
        # the check costs no more than the instance and the required names,
        # however many optional names the type declares. Reports follow
        # particle order.
        bounds = content.bounds
        off = [child_name for child_name in content.required if child_name not in counts]
        for child_name, n in counts.items():
            bound = bounds.get(child_name)
            if bound is not None and (n < bound[0] or (bound[1] is not None and n > bound[1])):
                off.append(child_name)
        if len(off) > 1:
            out = set(off)
            off = [child_name for child_name in bounds if child_name in out]
        for child_name in off:
            n = counts.get(child_name, 0)
            min_total, max_total = bounds[child_name]
            if n == 0:
                message = f"required child {child_name!r} is missing"
            elif n < min_total:
                message = f"child {child_name!r} occurs {n} times, minimum is {min_total}"
            else:
                message = f"child {child_name!r} occurs {n} times, maximum is {max_total}"
            self.complain("missing-child" if n == 0 else "occurrence", message, name, ordinal)

    def run(self, root: Element):
        view, stack, violations, sink = self.view, self.stack, self.violations, self.sink
        name = root.tag.local
        decl = self.schema.element(name)
        if decl is None:
            self.complain("unknown-element", f"no global element {name!r}", name, None)
            return
        t = view.resolve(decl.type)
        if type(t) is not ComplexType:
            self.simple_value(root, t, _value_check(t), name, None)
            return
        content = view.content(t)
        attrs = attributes(root)
        self.complex_element(root, attrs, content, name, None)
        if sink is not None and not violations:
            sink.open(root, attrs, None, 1)
        stack.append((iter(root), t, content, {}, name, None))

        complain, simple_value, complex_element, content_of = (
            self.complain, self.simple_value, self.complex_element, view.content)
        while stack:
            children, _, content, ordinals, _, _ = stack[-1]
            particles = content.particles
            for child in children:
                name = child.tag.local
                ordinal = ordinals[name] = ordinals.get(name, 0) + 1
                member = particles.get(name)
                if member is None:
                    complain("unknown-element", f"unexpected element {name!r}", name, ordinal)
                    continue
                t = member[2]
                if type(t) is not ComplexType:
                    text = simple_value(child, t, member[3], name, ordinal)
                    if sink is not None and not violations:
                        sink.value(member, text)
                    continue
                inner = content_of(t)
                attrs = attributes(child)
                complex_element(child, attrs, inner, name, ordinal)
                if sink is not None and not violations:
                    sink.open(child, attrs, member, ordinal)
                if len(child):  # resume `children` once the child's are checked
                    stack.append((iter(child), t, inner, {}, name, ordinal))
                    break
                if sink is not None and not violations:
                    sink.close(t, inner)
            else:
                _, t, content, *_ = stack.pop()
                if sink is not None and not violations:
                    sink.close(t, content)


def check_instances(doc: XmlDocument, schema: SchemaModel, violations: list[Violation],
                    sink=None):
    """Check the document against the schema, depth first in document
    order, appending each violation to `violations` as it is found. An
    element that no declaration admits is reported and not descended into.

    While no violation has been found, the sink, when given, is handed
    each admitted element once it is checked:
    - `sink.open(element, attributes, member, ordinal)` for an element of
      a complex type, with its (local name, value) attributes, the
      `TypeContent.particles` member that admitted it (None for the root)
      and its 1-based ordinal among same-name siblings; then
      `sink.close(type, content)` after its children, with its resolved
      type and flattened content;
    - `sink.value(member, text)` for a child element of any other type,
      with its trimmed text. A root of such a type is checked only."""
    _InstanceCheck(schema, violations, sink).run(doc.root)


def validate(doc: XmlDocument, schema: SchemaModel) -> ValidationReport:
    """Structurally check a document against the schema; an empty report
    means the document conforms (within the supported construct set)."""
    violations: list[Violation] = []
    check_instances(doc, schema, violations)
    return ValidationReport(violations)
