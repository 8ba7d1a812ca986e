"""Infer an XML Schema from instance documents.

One profile is accumulated per distinct element name across all input
documents, then turned into a salami-slice schema: every element becomes
a global declaration, structured elements get an inline anonymous
complexType whose xs:sequence references the children. Each instance is
folded in with one pass over its children, and a text leaf, the commonest
element, builds no child counts.

The merge rules are this implementation's own policy (different inference
tools resolve the same evidence differently):

* child order is first-seen document order; instances that contradict the
  accumulated order keep it and log a warning,
* occurrence bounds are binary — minOccurs drops to 0 once any instance
  lacks the child, maxOccurs becomes unbounded once any single instance
  repeats it; exact counts would overfit the sample,
* attribute and text datatypes are lattice joins over every observed
  value,
* an element seen both with child elements and as a pure text leaf merges
  into a mixed complex profile with a warning,
* an element that is always empty infers an empty complexType: absence of
  text is treated as evidence of no text.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from xml.etree.ElementTree import Element

from .datatypes import STRING, infer_datatype, join_datatype
from .xmldoc import XmlDocument, attributes, text_content
from .xsdmodel import (
    AttrDecl,
    BuiltinRef,
    ComplexType,
    ElementDecl,
    Particle,
    SchemaModel,
)

logger = logging.getLogger("xsgowl.infer")

UNBOUNDED = None


class RootMismatch(Exception):
    """Input documents do not share one root element name."""


@dataclass(slots=True)
class ElementProfile:
    """Accumulated facts about one element name."""

    name: str
    child_order: list[str] = field(default_factory=list)
    child_min: dict[str, int] = field(default_factory=dict)
    child_max: dict[str, int | None] = field(default_factory=dict)
    attr_required: dict[str, bool] = field(default_factory=dict)
    attr_type: dict[str, str] = field(default_factory=dict)
    text_type: str | None = None
    has_element_children: bool = False
    has_text: bool = False

    # bookkeeping, not part of the published profile
    instances: int = 0
    _child_presence: dict[str, int] = field(default_factory=dict)
    _child_rank: dict[str, int] = field(default_factory=dict)  # in child_order
    _attr_presence: dict[str, int] = field(default_factory=dict)
    _saw_text_leaf: bool = False
    _saw_textless: bool = False
    _order_warned: bool = False
    _merge_warned: bool = False


def _observe(profile: ElementProfile, e: Element, source_id: str):
    """Fold one instance into its profile, in one pass over its children: a
    leaf builds no child counts, an element without attributes no set."""
    profile.instances += 1
    counts: dict[str, int] | None = None  # per child name, first-seen order
    for child in e:
        name = child.tag.local
        if counts is None:
            counts = {name: 1}
        else:
            counts[name] = counts.get(name, 0) + 1
    value = text_content(e)
    has_text = value != ""

    is_text_leaf = counts is None and has_text
    if not profile._merge_warned and (
        (counts and profile._saw_text_leaf)
        or (is_text_leaf and profile.has_element_children)
    ):
        logger.warning(
            "%s: element %r is both structured and a text leaf; merging "
            "into a mixed complex profile", source_id, profile.name,
        )
        profile._merge_warned = True

    if has_text:
        profile.has_text = True
        t = infer_datatype(value)
        profile.text_type = t if profile.text_type is None \
            else join_datatype(profile.text_type, t)
    if is_text_leaf:
        profile._saw_text_leaf = True
    elif counts is None and not has_text:
        profile._saw_textless = True

    if counts is not None:
        profile.has_element_children = True
        for name, n in counts.items():
            if name not in profile.child_max:
                profile._child_rank[name] = len(profile.child_order)
                profile.child_order.append(name)
                profile.child_max[name] = 1
            if n >= 2:
                profile.child_max[name] = UNBOUNDED
            profile._child_presence[name] = profile._child_presence.get(name, 0) + 1
        if not profile._order_warned:
            ranks = [profile._child_rank[n] for n in counts]
            if any(a > b for a, b in zip(ranks, ranks[1:])):
                logger.warning(
                    "%s: children of %r appear in conflicting orders; keeping "
                    "first-seen order", source_id, profile.name,
                )
                profile._order_warned = True

    attrs = attributes(e)
    if attrs:
        counted: set[str] = set()  # p:id and q:id are one attribute, counted once
        for local, value in attrs:
            t = infer_datatype(value)
            profile.attr_type[local] = t if local not in profile.attr_type \
                else join_datatype(profile.attr_type[local], t)
            if local not in counted:
                counted.add(local)
                profile._attr_presence[local] = profile._attr_presence.get(local, 0) + 1


def accumulate_profiles(docs: list[XmlDocument]) -> dict[str, ElementProfile]:
    """Profiles keyed by element name, in first-appearance document order
    (the shared root name first)."""
    if not docs:
        raise ValueError("no input documents")
    root_names = {d.root.tag.local for d in docs}
    if len(root_names) > 1:
        raise RootMismatch(
            "documents have different root elements: " + ", ".join(sorted(root_names))
        )

    profiles: dict[str, ElementProfile] = {}
    for doc in docs:
        source_id = doc.source_id
        for e in doc.iter_elements():
            name = e.tag.local
            profile = profiles.get(name)
            if profile is None:
                profile = profiles[name] = ElementProfile(name)
            _observe(profile, e, source_id)

    for profile in profiles.values():
        for name in profile.child_order:
            present_in_all = profile._child_presence[name] == profile.instances
            profile.child_min[name] = 1 if present_in_all else 0
        for name in profile.attr_type:
            profile.attr_required[name] = (
                profile._attr_presence[name] == profile.instances
            )
        # a sometimes-empty text leaf must accept the empty string
        if profile.has_text and not profile.has_element_children \
                and profile._saw_textless:
            profile.text_type = STRING
    return profiles


def profiles_to_schema(
    profiles: dict[str, ElementProfile], source_id: str = ""
) -> SchemaModel:
    """Salami-slice schema: one global declaration per profile, in
    first-appearance order."""
    elements: list[ElementDecl] = []
    for name, p in profiles.items():
        attributes = tuple(
            AttrDecl(a, BuiltinRef(p.attr_type[a]), p.attr_required[a])
            for a in p.attr_type
        )
        if p.has_element_children or attributes:
            particles = tuple(
                Particle(c, None, p.child_min[c], p.child_max[c])
                for c in p.child_order
            )
            etype = ComplexType(
                name=None,
                particles=particles,
                attributes=attributes,
                mixed=p.has_text,
            )
        elif p.has_text:
            etype = BuiltinRef(p.text_type)
        else:
            etype = ComplexType(name=None)  # always empty: no text, no children
        elements.append(ElementDecl(name, etype))
    return SchemaModel(tuple(elements), source_id=source_id)


def infer_schema(docs: list[XmlDocument]) -> SchemaModel:
    """The full inference step: documents in, salami-slice schema out."""
    profiles = accumulate_profiles(docs)
    return profiles_to_schema(profiles, source_id=docs[0].source_id)
