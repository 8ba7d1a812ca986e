"""The per-element inference that `infer.accumulate_profiles` replaced,
kept as an oracle for it.

`reference_profiles` is the earlier accumulation: one `_observe` call per
element, in document order, folding that instance into its name's
profile and logging a warning the first time a profile's instances
conflict. `accumulate_profiles` now groups the instances by name and
folds each group at once. The two must agree on every public profile
field, dict order included, and on the warnings: their text, their order
and the source each names.
"""

from __future__ import annotations

import dataclasses
import logging
import random
from dataclasses import dataclass, field
from xml.etree.ElementTree import Element

import pytest

from xsgowl.datatypes import STRING, infer_datatype, join_datatype
from xsgowl.infer import ElementProfile, accumulate_profiles
from xsgowl.xmldoc import XmlDocument, attributes, parse_xml, text_content
from randgen import ATTR_NAMES, VALUES, random_document, random_element
from treeparse import TreeDocument, TreeElement, TreeName
from xmlwrite import serialize_xml

UNBOUNDED = None


@dataclass(slots=True)
class ReferenceProfile:
    name: str
    child_order: list[str] = field(default_factory=list)
    child_min: dict[str, int] = field(default_factory=dict)
    child_max: dict[str, int | None] = field(default_factory=dict)
    attr_required: dict[str, bool] = field(default_factory=dict)
    attr_type: dict[str, str] = field(default_factory=dict)
    text_type: str | None = None
    has_element_children: bool = False
    has_text: bool = False
    instances: int = 0
    _child_presence: dict[str, int] = field(default_factory=dict)
    _child_rank: dict[str, int] = field(default_factory=dict)
    _attr_presence: dict[str, int] = field(default_factory=dict)
    _saw_text_leaf: bool = False
    _saw_textless: bool = False
    _order_warned: bool = False
    _merge_warned: bool = False


def _observe(profile: ReferenceProfile, e: Element, source_id: str,
             warnings: list[str]):
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
        warnings.append(
            f"{source_id}: element {profile.name!r} is both structured and a "
            "text leaf; merging into a mixed complex profile")
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
                warnings.append(
                    f"{source_id}: children of {profile.name!r} appear in "
                    "conflicting orders; keeping first-seen order")
                profile._order_warned = True

    attrs = attributes(e)
    if attrs:
        counted: set[str] = set()
        for local, value in attrs:
            t = infer_datatype(value)
            profile.attr_type[local] = t if local not in profile.attr_type \
                else join_datatype(profile.attr_type[local], t)
            if local not in counted:
                counted.add(local)
                profile._attr_presence[local] = profile._attr_presence.get(local, 0) + 1


def reference_profiles(docs: list[XmlDocument]):
    """The profiles and the warnings of the per-element accumulation."""
    profiles: dict[str, ReferenceProfile] = {}
    warnings: list[str] = []
    for doc in docs:
        for e in doc.iter_elements():
            name = e.tag.local
            profile = profiles.get(name)
            if profile is None:
                profile = profiles[name] = ReferenceProfile(name)
            _observe(profile, e, doc.source_id, warnings)
    for profile in profiles.values():
        for name in profile.child_order:
            present_in_all = profile._child_presence[name] == profile.instances
            profile.child_min[name] = 1 if present_in_all else 0
        for name in profile.attr_type:
            profile.attr_required[name] = (
                profile._attr_presence[name] == profile.instances
            )
        if profile.has_text and not profile.has_element_children \
                and profile._saw_textless:
            profile.text_type = STRING
    return profiles, warnings


PUBLIC_FIELDS = [f.name for f in dataclasses.fields(ElementProfile)
                 if not f.name.startswith("_")]


def published(profile) -> dict:
    """Every public field, dicts as item lists so their order counts."""
    return {name: list(value.items()) if isinstance(value, dict) else value
            for name in PUBLIC_FIELDS for value in [getattr(profile, name)]}


class Captured(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def assert_agrees(docs: list[XmlDocument]):
    expected, expected_warnings = reference_profiles(docs)
    handler = Captured()
    logger = logging.getLogger("xsgowl.infer")
    logger.addHandler(handler)
    try:
        profiles = accumulate_profiles(docs)
    finally:
        logger.removeHandler(handler)
    assert list(profiles) == list(expected)
    for name, profile in profiles.items():
        assert published(profile) == published(expected[name]), name
    assert handler.messages == expected_warnings


def test_public_fields_are_the_published_profile():
    assert PUBLIC_FIELDS == [
        "name", "child_order", "child_min", "child_max", "attr_required",
        "attr_type", "text_type", "has_element_children", "has_text",
        "instances",
    ]


def test_agrees_on_random_documents():
    for seed in range(1200):
        assert_agrees([random_document(seed)])


def shared_root_documents(seed: int) -> list[XmlDocument]:
    """Two to four documents of random elements under one root name."""
    rng = random.Random(seed)
    docs = []
    for k in range(rng.randint(2, 4)):
        children = tuple(random_element(rng, rng.randint(0, 2))
                         for _ in range(rng.randint(0, 4)))
        root = TreeElement(TreeName(None, "root"), (), children)
        text = serialize_xml(TreeDocument(root, f"merge-{seed}-{k}"))
        docs.append(parse_xml(text.encode(), f"merge-{seed}-{k}"))
    return docs


def test_agrees_on_multi_document_merges():
    for seed in range(300):
        assert_agrees(shared_root_documents(seed))


def records_text(rng: random.Random, n: int) -> str:
    """`records`-shaped, with some records perturbed: a child missing,
    repeated or out of order, text beside the children, an extra or
    prefixed attribute, an empty or structured leaf."""
    out = ['<recs xmlns:p="urn:p">']
    for k in range(n):
        name = f"<name>{rng.choice(VALUES[:12])}</name>"
        val = f"<val>{rng.choice(['1', '-2', '3.5', '+4', '.5', '77'])}</val>"
        attrs = f' id="r{k:05d}"'
        body = name + val
        roll = rng.random()
        if roll < 0.05:
            body = val
        elif roll < 0.10:
            body = name + val + val
        elif roll < 0.13:
            body = val + name
        elif roll < 0.16:
            body = f"{name}x{val}"
        elif roll < 0.19:
            attrs += f' p:id="{rng.choice(ATTR_NAMES)}" xmlns:q="urn:q"'
        elif roll < 0.22:
            body = "<name/>" + val
        elif roll < 0.24:
            body = "<name><val>1</val></name>" + val
        elif roll < 0.26:
            attrs = ""
        out.append(f"<rec{attrs}>{body}</rec>")
    out.append("</recs>")
    return "\n".join(out)


def wide_text(rng: random.Random, n: int) -> str:
    """`wide`-shaped: every child and leaf name distinct, one shared
    attribute name, so every group holds one instance."""
    out = ["<wide>"]
    for k in range(n):
        value = rng.choice(VALUES[:12])
        out.append(f'<c{k:05d} a="v{rng.randrange(100)}">'
                   f"<l{k:05d}>{value}</l{k:05d}></c{k:05d}>")
    out.append("</wide>")
    return "\n".join(out)


@pytest.mark.parametrize("seed", range(8))
def test_agrees_on_records_and_wide_shapes(seed):
    rng = random.Random(seed)
    records = parse_xml(records_text(rng, 300).encode(), f"records-{seed}")
    assert_agrees([records])
    assert_agrees([records, parse_xml(records_text(rng, 50).encode(), "more")])
    assert_agrees([parse_xml(wide_text(rng, 200).encode(), f"wide-{seed}")])


@pytest.mark.parametrize("texts", [
    # prefixed tags and attributes that share a local name
    ['<r xmlns:p="urn:p"><p:a p:id="1" id="x"/><a id="2"/><a/></r>'],
    ['<r xmlns:p="urn:p"><a><p:b/><b/></a><a><b/></a></r>'],
    # order conflicts: in a later document, and twice in one profile
    ["<r><a/><b/></r>", "<r><b/><a/></r>", "<r><c/><a/></r>"],
    ["<r><x><a/><b/><a/></x><x><b/><a/></x><y><p/><q/></y><y><q/><p/></y></r>"],
    # a merge and an order conflict on the same instance
    ["<r><x>t</x><x><a/></x><x><b/><a/></x></r>",
     "<r><y><b/></y><y>t</y><x><b/><a/></x></r>"],
    # leaves of every kind, and text beside children
    ["<r><x>5</x><x/><x>  </x><x>a<b/></x><x><b/>b</x></r>"],
    ['<r><x xmlns="urn:d">é</x><x>名前</x><y a="true"/><y a="1"/><y a="é"/></r>'],
], ids=["prefixed-attributes", "prefixed-children", "order-across-documents",
        "order-twice", "merge-and-order", "texts", "names"])
def test_agrees_on_hand_written_cases(texts):
    assert_agrees([parse_xml(t.encode(), f"doc-{i}") for i, t in enumerate(texts)])


def test_agrees_on_one_document_passed_twice():
    # each warning names the first pass over the instance that fires it
    doc = parse_xml(b"<r><x><a/></x><x>t</x><x><b/><a/></x></r>", "twice")
    assert_agrees([doc, doc])
    assert_agrees([doc, XmlDocument(doc.root, "again")])


def test_warnings_follow_the_instances_that_fire_them():
    # the root's conflict fires at the second document's root, before the
    # merge that a later `y` fires
    docs = [parse_xml(t.encode(), f"doc-{i}") for i, t in enumerate([
        "<r><x>t</x><x><a/></x><x><b/><a/></x></r>",
        "<r><y><b/></y><y>t</y><x><b/><a/></x></r>"])]
    assert reference_profiles(docs)[1] == [
        "doc-0: element 'x' is both structured and a text leaf; merging into "
        "a mixed complex profile",
        "doc-0: children of 'x' appear in conflicting orders; keeping "
        "first-seen order",
        "doc-1: children of 'r' appear in conflicting orders; keeping "
        "first-seen order",
        "doc-1: element 'y' is both structured and a text leaf; merging into "
        "a mixed complex profile",
    ]
    assert_agrees(docs)
