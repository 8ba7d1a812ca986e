"""Infer an XML Schema from instance documents.

One profile is accumulated per distinct element name across all input
documents, then turned into a salami-slice schema: every element becomes
a global declaration, structured elements get an inline anonymous
complexType whose xs:sequence references the children.

The instances are first grouped by name, in document order, and each group
is then folded into its profile at once. Texts, child tags and attribute
values are read off the whole group by C-level passes. Child order, bounds
and the order-conflict test run once per distinct child-tag tuple, and
attribute presence once per attribute-name tuple. Each text or attribute
type is one `datatypes.join_inferred` over all its values. A name with one
instance, as every name of a wide schema is, reads its inputs off that
instance alone and goes through the same fold. Warnings are logged after
the fold, in document order of the instances that fire them.

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
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, filterfalse, islice, repeat
from operator import attrgetter, is_not
from xml.etree.ElementTree import Element

from .datatypes import STRING, join_inferred
from .xmldoc import XmlDocument, attribute_name, attributes, text_content
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
    # the instances at which the merge and order-conflict warnings fire
    _merge_warning: Element | None = None
    _order_warning: Element | None = None


_tag = attrgetter("tag")
_text = attrgetter("text")
_tail = attrgetter("tail")
_present = partial(is_not, None)


def _gather_one(e: Element):
    """`_gather` of a one-instance group, read off the instance alone."""
    attr_shapes: dict[tuple[str, ...], int] = {}
    attr_values: dict[str, list[str]] = {}
    if e.keys():
        for local, value in attributes(e):
            if local in attr_values:
                attr_values[local].append(value)
            else:
                attr_values[local] = [value]
        if attr_values:
            attr_shapes[tuple(attr_values)] = 1
    if len(e):
        value = text_content(e)
        return ({tuple(map(_tag, e)): 1}, 0, [], [value] if value else [],
                attr_shapes, attr_values)
    text = e.text
    value = text.strip() if text else ""
    return {}, 1, [value] if value else [], [], attr_shapes, attr_values


def _gather(group: list[Element]):
    """A group's inputs to `_fold`, in first-seen order: each distinct
    child-tag tuple of the structured instances, with its instance count;
    the number of leaf instances; the non-empty texts of the leaves, and of
    the structured instances; each distinct tuple of attribute local names
    (namespace declarations dropped, each name once), with its instance
    count; and each attribute's values. Element methods are called through
    the class, which costs less per call than through each instance."""
    lens = list(map(len, group))
    if not any(lens):
        structured, leaves = [], group
    elif 0 not in lens:
        structured, leaves = group, []
    else:
        structured = list(compress(group, lens))
        leaves = list(filterfalse(len, group))
        lens = list(filter(None, lens))
    children = list(chain.from_iterable(structured))
    shapes = _shapes(list(map(_tag, children)), lens) if structured else {}
    leaf_texts = list(filter(None, map(str.strip, filter(None, map(_text, leaves)))))
    runs = set(map(_text, structured))  # a mixed instance's text runs
    runs.update(map(_tail, children))
    mixed_texts = [] if all(map(str.isspace, filter(None, runs))) \
        else list(filter(None, map(text_content, structured)))
    raw_shapes = Counter(map(tuple, filter(None, map(Element.keys, group))))
    attr_shapes: dict[tuple[str, ...], int] = {}
    for keys, instances in raw_shapes.items():
        # p:id and q:id are one attribute, counted once
        names = tuple(dict.fromkeys(filter(None, map(attribute_name, keys))))
        if names:
            attr_shapes[names] = attr_shapes.get(names, 0) + instances
    attr_values: dict[str, list[str]] = {}
    for raw in dict.fromkeys(chain.from_iterable(raw_shapes)):
        local = attribute_name(raw)
        if local is not None:
            values = list(filter(_present, map(Element.get, group, repeat(raw))))
            attr_values[local] = attr_values[local] + values \
                if local in attr_values else values
    return shapes, len(leaves), leaf_texts, mixed_texts, attr_shapes, attr_values


def _shapes(tags: list[str], lens: list[int]) -> dict[tuple[str, ...], int]:
    """The child-tag tuple of each instance, with its instance count, in
    first-seen order, from all the instances' child tags in a row and each
    instance's number of children."""
    k = lens[0]
    if lens.count(k) == len(lens) and all(  # k children each, all alike
            len(set(tags[j::k])) == 1 for j in range(k)):
        return {tuple(tags[:k]): len(lens)}
    rest = iter(tags)
    return Counter(map(tuple, map(islice, repeat(rest), lens)))


def _fold(profile: ElementProfile, group: list[Element], shapes, leaves: int,
          leaf_texts: list[str], mixed_texts: list[str], attr_shapes,
          attr_values: dict[str, list[str]]):
    """Set a profile from its instances (`group`, in document order) and
    what `_gather` read off them: each rule works once per distinct child
    tuple or attribute tuple, or once over all the texts or values."""
    profile.instances = len(group)
    texts = leaf_texts + mixed_texts if mixed_texts else leaf_texts
    if shapes:
        profile.has_element_children = True
        if leaf_texts:  # both structured and a text leaf: warn at the later
            structured = next(i for i, e in enumerate(group) if len(e))
            text_leaf = next(i for i, e in enumerate(group)
                             if not len(e) and e.text and not e.text.isspace())
            profile._merge_warning = group[max(structured, text_leaf)]
        _fold_children(profile, group, shapes)
    if texts:
        profile.has_text = True
        # a sometimes-empty text leaf must accept the empty string
        profile.text_type = STRING if not shapes and leaves > len(leaf_texts) \
            else join_inferred(texts)
    if attr_shapes:
        _fold_attributes(profile, group, attr_shapes, attr_values)


def _fold_children(profile: ElementProfile, group: list[Element], shapes):
    """Child order, bounds and the order-conflict test, once per shape."""
    order, child_max = profile.child_order, profile.child_max
    presence: dict[str, int] = {}  # instances that have each child
    last: dict[str, tuple] = {}  # the last shape that counted each child
    for shape, instances in shapes.items():
        for tag in shape:
            name = tag.local
            if name not in last:
                order.append(name)
                child_max[name] = 1
                presence[name] = instances
            elif last[name] is not shape:
                presence[name] += instances
            else:  # repeated in one instance
                child_max[name] = UNBOUNDED
                continue
            last[name] = shape
    n = len(group)
    for name in order:
        profile.child_min[name] = 1 if presence[name] == n else 0
    if len(shapes) > 1:  # the first shape sets the order it is checked by
        rank = {name: i for i, name in enumerate(order)}
        for shape in shapes:
            ranks = list(dict.fromkeys([rank[tag.local] for tag in shape]))
            if ranks != sorted(ranks):  # its first instance is the first conflict
                profile._order_warning = next(
                    e for e in group if tuple(map(_tag, e)) == shape)
                break


def _fold_attributes(profile: ElementProfile, group: list[Element], attr_shapes,
                     attr_values: dict[str, list[str]]):
    """Attribute presence once per attribute-name tuple, and each
    attribute's type once over its values."""
    presence: dict[str, int] = {}
    for names, instances in attr_shapes.items():
        for name in names:
            presence[name] = presence.get(name, 0) + instances
    n = len(group)
    for name, values in attr_values.items():
        profile.attr_type[name] = join_inferred(values)
        profile.attr_required[name] = presence[name] == n


_MERGE_WARNING = ("%s: element %r is both structured and a text leaf; "
                  "merging into a mixed complex profile")
_ORDER_WARNING = ("%s: children of %r appear in conflicting orders; keeping "
                  "first-seen order")


def _log_warnings(docs: list[XmlDocument], profiles: dict[str, ElementProfile]):
    """Log each profile's warnings in document order of the instances that
    fire them: by the instance, the merge warning before the order one."""
    pending: dict[Element, list[tuple[str, str]]] = {}
    for profile in profiles.values():
        if profile._merge_warning is not None:
            pending[profile._merge_warning] = [(_MERGE_WARNING, profile.name)]
        if profile._order_warning is not None:
            pending.setdefault(profile._order_warning, []).append(
                (_ORDER_WARNING, profile.name))
    if not pending:
        return
    for doc in docs:
        for e in doc.iter_elements():
            warnings = pending.pop(e, None)
            if warnings is not None:
                for message, name in warnings:
                    logger.warning(message, doc.source_id, name)
                if not pending:
                    return


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

    groups: dict[str, list[Element]] = {}  # instances by name, document order
    for doc in docs:
        for e in doc.iter_elements():
            name = e.tag.local
            group = groups.get(name)
            if group is None:
                groups[name] = [e]
            else:
                group.append(e)

    profiles: dict[str, ElementProfile] = {}
    for name, group in groups.items():
        profile = profiles[name] = ElementProfile(name)
        _fold(profile, group,
              *(_gather_one(group[0]) if len(group) == 1 else _gather(group)))
    _log_warnings(docs, profiles)
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
