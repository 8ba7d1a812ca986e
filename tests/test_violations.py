"""Pinned validator messages on mutated random documents.

Each `random_document(seed)` validates against the schema inferred from
it. Every mutation below breaks one copy of it at a seeded random site,
and the test compares one SHA-256 per seed and mutation over the full
`[(kind, path, message)]` list with data/violation_digests.json, so a
change to a violation's kind, path, message or order shows. A mutation
with no site in a document is recorded as "n/a". `populate` must refuse
each mutated document with the first three of the same violations.
After a deliberate message change, rewrite the file with

    PYTHONPATH=src:tests python tests/test_violations.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from xsgowl.abox import DocumentInvalid, populate
from xsgowl.infer import infer_schema
from xsgowl.owlgen import GenOptions, generate_tbox
from xsgowl.xmldoc import parse_xml
from xsgowl.xsdmodel import BuiltinRef, ComplexType, validate
from xsgowl.xsg import build_xsg
from randgen import random_document, random_tree
from treeparse import TreeDocument, TreeElement, TreeName
from xmlwrite import serialize_xml

DIGESTS = Path(__file__).parent / "data" / "violation_digests.json"
SEEDS = range(100)
BASE = "http://example.org/onto/violations"


def walk(root: TreeElement):
    """(index path, element, same-name sibling ordinal) in preorder."""
    stack = [((), root, 1)]
    while stack:
        where, el, ordinal = stack.pop()
        yield where, el, ordinal
        seen: dict[str, int] = {}
        found = []
        for i, c in enumerate(el.children):
            if isinstance(c, TreeElement):
                seen[c.name.local] = seen.get(c.name.local, 0) + 1
                found.append((where + (i,), c, seen[c.name.local]))
        stack.extend(reversed(found))


def edit(el: TreeElement, where: tuple[int, ...], change) -> TreeElement:
    """A copy of the tree with the element at `where` replaced by
    change(element)."""
    if not where:
        return change(el)
    children = list(el.children)
    children[where[0]] = edit(children[where[0]], where[1:], change)
    return replace(el, children=tuple(children))


def type_of(schema, el: TreeElement):
    decl = schema.element(el.name.local)
    return None if decl is None else decl.type  # None: an added `extra`


def particles(schema, el: TreeElement):
    t = type_of(schema, el)
    return t.particles if isinstance(t, ComplexType) else ()


def add_attribute(el):
    # A second `zz` on one element (the "all" case) takes a prefix, so the
    # text stays well-formed; the validator names both by the local name.
    name = TreeName(None if el.attribute("zz") is None else "q", "zz")
    return replace(el, attributes=el.attributes + ((name, "1"),))


# Each mutation: (expected kind, sites(schema, root) -> [(where, change)]).


def drop_required(schema, root):
    return [
        (where, lambda el, n=p.ref: replace(el, children=tuple(
            c for c in el.children
            if not (isinstance(c, TreeElement) and c.name.local == n))))
        for where, el, _ in walk(root)
        for p in particles(schema, el) if p.min_occurs >= 1
    ]


def extra_unknown_child(schema, root):
    extra = TreeElement(TreeName(None, "extra"), (), ())
    return [(where, lambda el: replace(el, children=el.children + (extra,)))
            for where, _, _ in walk(root)]


def extra_repeated_child(schema, root):
    sites = []
    for where, el, _ in walk(root):
        single = {p.ref for p in particles(schema, el) if p.max_occurs == 1}
        for c in el.children:
            if isinstance(c, TreeElement) and c.name.local in single:
                sites.append((where, lambda el, c=c: replace(
                    el, children=el.children + (c,))))
    return sites


def undeclared_attribute(schema, root):
    return [(where, add_attribute) for where, _, _ in walk(root)]


def bad_integer(schema, root):
    sites = []
    for where, el, _ in walk(root):
        t = type_of(schema, el)
        if isinstance(t, BuiltinRef) and t.name == "integer":
            sites.append((where, lambda el: replace(el, children=("x1",))))
        if isinstance(t, ComplexType):
            for a in t.attributes:
                if a.datatype.name == "integer" and el.attribute(a.name) is not None:
                    sites.append((where, lambda el, n=a.name: replace(el, attributes=tuple(
                        (k, "x1" if k.local == n else v) for k, v in el.attributes))))
    return sites


def text_in_non_mixed(schema, root):
    return [(where, lambda el: replace(el, children=("stray",) + el.children))
            for where, el, _ in walk(root)
            if isinstance(type_of(schema, el), ComplexType)
            and not type_of(schema, el).mixed]


def later_sibling(schema, root):
    return [(where, add_attribute) for where, _, ordinal in walk(root) if ordinal > 1]


MUTATIONS = {
    "drop-required-child": ("missing-child", drop_required),
    "extra-unknown-child": ("unknown-element", extra_unknown_child),
    "extra-repeated-child": ("occurrence", extra_repeated_child),
    "undeclared-attribute": ("undeclared-attribute", undeclared_attribute),
    "bad-integer": ("datatype", bad_integer),
    "text-in-non-mixed": ("unexpected-text", text_in_non_mixed),
    "later-sibling": ("undeclared-attribute", later_sibling),
}


def reparsed(root: TreeElement, source_id: str):
    """The edited tree as a document, read back from its text."""
    return parse_xml(serialize_xml(TreeDocument(root, source_id)).encode(), source_id)


def mutated_documents():
    """[(key, schema, document, violations)]: "seed/mutation" keys, each
    with the seed's inferred schema, its mutated document and what
    `validate` reports for it, or None for the document and violations
    when the mutation has no site. "seed/all" applies every mutation that
    has a site, one after another."""
    cases = []
    for seed in SEEDS:
        doc = random_document(seed)
        schema = infer_schema([doc])
        assert validate(doc, schema).ok, f"seed {seed}"
        tree = random_tree(seed).root
        rng = random.Random(seed)
        combined = tree
        for label, (_, sites) in MUTATIONS.items():
            found = sites(schema, tree)
            if not found:
                cases.append((f"{seed}/{label}", schema, None, None))
                continue
            where, change = rng.choice(found)
            mutated = reparsed(edit(tree, where, change), doc.source_id)
            cases.append((f"{seed}/{label}", schema, mutated,
                          validate(mutated, schema).violations))
            again = sites(schema, combined)
            if again:
                where, change = rng.choice(again)
                combined = edit(combined, where, change)
        mutated = reparsed(combined, doc.source_id)
        cases.append((f"{seed}/all", schema, mutated, validate(mutated, schema).violations))
    return cases


def mutated_reports(cases):
    """{"seed/mutation": [(kind, path, message), ...] or None}."""
    return {key: None if violations is None
            else [(v.kind, v.path, v.message) for v in violations]
            for key, _, _, violations in cases}


def digest(violations) -> str:
    if violations is None:
        return "n/a"
    return hashlib.sha256(json.dumps(violations).encode()).hexdigest()


@pytest.fixture(scope="module")
def cases():
    return mutated_documents()


@pytest.fixture(scope="module")
def reports(cases):
    return mutated_reports(cases)


def test_violations_match_digests(reports):
    expected = json.loads(DIGESTS.read_text())
    actual = {key: digest(v) for key, v in reports.items()}
    changed = sorted(k for k in expected if actual.get(k) != expected[k])
    assert actual.keys() == expected.keys()
    assert changed == [], f"violations changed for {changed[:10]}"


@pytest.mark.parametrize("label", sorted(MUTATIONS))
def test_each_mutation_reports_its_kind(reports, label):
    kind = MUTATIONS[label][0]
    applied = {k: v for k, v in reports.items() if k.endswith(f"/{label}") and v is not None}
    assert len(applied) >= 20, f"{label}: only {len(applied)} seeds have a site"
    for key, violations in applied.items():
        assert kind in [v[0] for v in violations], f"{key}: {violations}"


def test_later_sibling_paths_carry_ordinals(reports):
    paths = [v[1] for key, vs in reports.items() if key.endswith("/later-sibling")
             for v in vs or ()]
    assert any("[2]" in p or "[3]" in p for p in paths)


def test_populate_reports_the_first_three_violations(cases):
    # validation and population check a document in the same pass, so
    # population refuses each mutated document with validate's first three
    # violations, in order
    tboxes = {}
    for key, schema, doc, violations in cases:
        if doc is None:
            continue
        if id(schema) not in tboxes:
            tboxes[id(schema)] = generate_tbox(
                schema, build_xsg(schema), GenOptions(base_iri=BASE))
        problems = "; ".join(str(v) for v in violations[:3])
        with pytest.raises(DocumentInvalid) as raised:
            populate(doc, schema, *tboxes[id(schema)])
        assert str(raised.value) == (
            f"document {doc.source_id!r} does not validate against the schema: "
            f"{problems}"), key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {key: digest(v) for key, v in mutated_reports(mutated_documents()).items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
