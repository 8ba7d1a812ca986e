"""Seeded random generators for documents and schema models.

Small name pools on purpose: the same name recurring in different roles
(leaf here, structured there, repeated elsewhere) is exactly what stresses
profile merging, occurrence inference and graph construction.
"""

from __future__ import annotations

import random

from xsgowl.xmldoc import XmlDocument, parse_xml
from xsgowl.xsdmodel import (
    AttrDecl,
    AttrGroupDecl,
    BuiltinRef,
    ComplexType,
    ElementDecl,
    GroupDecl,
    NamedTypeRef,
    Particle,
    SchemaModel,
    SimpleType,
)
from treeparse import TreeDocument, TreeElement, TreeName, parse_tree
from xmlwrite import serialize_xml

ELEMENT_NAMES = ["alpha", "beta", "gamma", "delta", "item", "note", "entry", "data"]
ATTR_NAMES = ["id", "kind", "n", "ref"]
VALUES = [
    "42", "-7", "3.14", "0.5", "true", "false", "Foo", "bar_1", "x-y.z",
    "hello world", "a:b", "1977", "", "  spaced  ", "line\nbreak", "<tag>&",
]
# attribute values: VALUES with a space for the newline, so the generated
# trees stay the ones data/snapshot_digests.json pins
ATTR_VALUES = [v.replace("\n", " ") for v in VALUES]


def random_element(rng: random.Random, depth: int) -> TreeElement:
    name = TreeName(None, rng.choice(ELEMENT_NAMES))
    attrs = []
    for attr in rng.sample(ATTR_NAMES, rng.randint(0, 2)):
        attrs.append((TreeName(None, attr), rng.choice(ATTR_VALUES)))
    children: list = []
    n_children = 0 if depth == 0 else rng.randint(0, 3)
    for _ in range(n_children):
        child = random_element(rng, depth - 1)
        if rng.random() < 0.3:  # repeats drive maxOccurs inference
            children.append(child)
        children.append(child)
    if not children and rng.random() < 0.6:
        children.append(rng.choice(VALUES))
    elif children and rng.random() < 0.15:  # mixed content
        children.insert(rng.randint(0, len(children)), rng.choice([v for v in VALUES if v.strip()]))
    return TreeElement(name, tuple(attrs), tuple(children))


def random_text(seed: int) -> bytes:
    rng = random.Random(seed)
    root = random_element(rng, depth=rng.randint(1, 3))
    return serialize_xml(TreeDocument(root, f"random-{seed}")).encode()


def random_document(seed: int) -> XmlDocument:
    return parse_xml(random_text(seed), f"random-{seed}")


def random_tree(seed: int) -> TreeDocument:
    """`random_document(seed)` as a tree of TreeElements, which tests edit;
    read by the oracle parser, so whitespace runs are normalized."""
    return parse_tree(random_text(seed), f"random-{seed}")


LATTICE = ["boolean", "integer", "decimal", "NCName", "string"]


def random_schema(seed: int) -> SchemaModel:
    """Resolvable random model: every named type and group ends up used,
    recursion is possible through element refs."""
    rng = random.Random(seed)
    element_names = rng.sample(ELEMENT_NAMES, rng.randint(2, 6))

    def particles(candidates: list[str]) -> tuple[Particle, ...]:
        chosen = rng.sample(candidates, min(len(candidates), rng.randint(0, 3)))
        out = []
        for name in chosen:
            min_o = rng.choice([0, 1])
            max_o = rng.choice([1, None, 3])
            if max_o is not None and max_o < min_o:
                max_o = min_o
            out.append(Particle(name, None, min_o, max_o))
        return tuple(out)

    def attributes() -> tuple[AttrDecl, ...]:
        return tuple(
            AttrDecl(a, BuiltinRef(rng.choice(LATTICE)), rng.random() < 0.5)
            for a in rng.sample(ATTR_NAMES, rng.randint(0, 2))
        )

    simple_types = tuple(
        SimpleType(f"st{i}", rng.choice(LATTICE)) for i in range(rng.randint(0, 2))
    )
    group_names = [f"g{i}" for i in range(rng.randint(0, 2))]
    groups = tuple(GroupDecl(g, particles(element_names)) for g in group_names)
    attr_group_names = [f"ag{i}" for i in range(rng.randint(0, 1))]
    attr_groups = tuple(AttrGroupDecl(ag, attributes()) for ag in attr_group_names)

    named_type_names = [f"t{i}" for i in range(rng.randint(0, 3))]
    named_types = []
    for i, tname in enumerate(named_type_names):
        derivation = None
        if i > 0 and rng.random() < 0.4:
            derivation = (rng.choice(["extension", "restriction"]),
                          named_type_names[rng.randrange(i)])
        named_types.append(ComplexType(
            name=tname,
            particles=particles(element_names),
            attributes=attributes(),
            group_refs=tuple(rng.sample(group_names, 1)) if group_names and rng.random() < 0.4 else (),
            attr_group_refs=(),
            mixed=rng.random() < 0.2,
            derivation=derivation,
        ))

    def inline_type() -> ComplexType:
        return ComplexType(
            name=None,
            particles=particles(element_names),
            attributes=attributes(),
            group_refs=tuple(rng.sample(group_names, 1)) if group_names and rng.random() < 0.3 else (),
            attr_group_refs=tuple(rng.sample(attr_group_names, 1)) if attr_group_names and rng.random() < 0.3 else (),
            mixed=rng.random() < 0.15,
        )

    elements = []
    for name in element_names:
        roll = rng.random()
        if roll < 0.45:
            etype = inline_type()
        elif roll < 0.6 and named_type_names:
            etype = NamedTypeRef(rng.choice(named_type_names))
        elif roll < 0.7 and simple_types:
            etype = NamedTypeRef(rng.choice([s.name for s in simple_types]))
        else:
            etype = BuiltinRef(rng.choice(LATTICE))
        elements.append(ElementDecl(name, etype))

    # guarantee every named component is referenced somewhere
    used_types = {t.name for e in elements for t in [e.type]
                  if isinstance(t, NamedTypeRef)}
    used_types |= {t.derivation[1] for t in named_types if t.derivation}
    used_groups = {g for t in named_types for g in t.group_refs}
    used_attr_groups = set()
    for e in elements:
        if isinstance(e.type, ComplexType):
            used_groups |= set(e.type.group_refs)
            used_attr_groups |= set(e.type.attr_group_refs)
    extra = []
    for i, tname in enumerate(n for n in named_type_names if n not in used_types):
        extra.append(ElementDecl(f"use_{tname}", NamedTypeRef(tname)))
    for st in simple_types:
        extra.append(ElementDecl(f"use_{st.name}", NamedTypeRef(st.name)))
    leftover_groups = [g for g in group_names if g not in used_groups]
    leftover_ags = [ag for ag in attr_group_names if ag not in used_attr_groups]
    if leftover_groups or leftover_ags:
        extra.append(ElementDecl(
            "use_groups",
            ComplexType(name=None, group_refs=tuple(leftover_groups),
                        attr_group_refs=tuple(leftover_ags)),
        ))

    return SchemaModel(
        tuple(elements + extra),
        tuple(list(named_types) + list(simple_types)),
        groups,
        attr_groups,
        source_id=f"random-schema-{seed}",
    )
