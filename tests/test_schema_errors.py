"""Pinned schema reader errors.

Every case below is an XSD with one fault. The test compares one SHA-256
per case over the first SchemaError's (message, position) with
data/schema_error_digests.json, so a change to which error is reported,
its wording or its position shows. A case that reads without error is
hashed as "ok"; a mutation with no site in a schema is recorded as "n/a".

The cases are single-fault mutations of the XSD text of
`random_schema(seed)`, plus hand-written inputs that reach every
`raise SchemaError` in the reader and in the reference checks. After a
deliberate message change, rewrite the file with

    PYTHONPATH=src:tests python tests/test_schema_errors.py --write
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from xsgowl import xsdmodel
from treeparse import TreeDocument, TreeElement, TreeName, parse_tree
from xmlwrite import serialize_xml
from xsgowl.xsdmodel import SchemaError, read_schema, serialize_schema
from randgen import random_schema
from test_violations import edit

DIGESTS = Path(__file__).parent / "data" / "schema_error_digests.json"
SEEDS = range(100)
XS = 'xmlns:xs="http://www.w3.org/2001/XMLSchema"'


def first_error(text: str) -> tuple[str, tuple[int, int] | None] | None:
    try:
        read_schema(text.encode(), "t")
    except SchemaError as exc:
        return exc.message, exc.position
    return None


def digest(error) -> str:
    if error is None:
        return "ok"
    return hashlib.sha256(json.dumps(error).encode()).hexdigest()


# ---------------------------------------------------------------------------
# mutations of random schemas


def elements(root: TreeElement):
    """(index path, element, parent) for every element, in document order."""
    stack = [((), root, None)]
    while stack:
        where, el, parent = stack.pop()
        yield where, el, parent
        stack.extend(reversed([
            ((*where, i), c, el) for i, c in enumerate(el.children)
            if isinstance(c, TreeElement)
        ]))


def xs(local: str, **attrs: str) -> TreeElement:
    return TreeElement(TreeName("xs", local),
                       tuple((TreeName(None, k), v) for k, v in attrs.items()), ())


def put(el: TreeElement, name: str, value: str) -> TreeElement:
    kept = tuple((k, v) for k, v in el.attributes if k.local != name)
    return replace(el, attributes=kept + ((TreeName(None, name), value),))


def drop(el: TreeElement, name: str) -> TreeElement:
    return replace(el, attributes=tuple((k, v) for k, v in el.attributes
                                        if k.local != name))


def add(el: TreeElement, child: TreeElement) -> TreeElement:
    return replace(el, children=el.children + (child,))


def kids(el: TreeElement) -> list[TreeElement]:
    return el.child_elements()


def is_(el, *locals_: str) -> bool:
    return el is not None and el.name.local in locals_


def has(el, name: str) -> bool:
    return el.attribute(name) is not None


def particle(e, p) -> bool:
    return is_(e, "element") and is_(p, "sequence")


def derivation(e, p) -> bool:
    return is_(e, "extension", "restriction") and is_(p, "complexContent")


def own_base(ct: TreeElement) -> TreeElement:
    """A named complexType deriving from itself."""
    content = kids(ct)[0]
    step = put(kids(content)[0], "base", ct.attribute("name"))
    return replace(ct, children=(replace(content, children=(step,)),))


def duplicate(schema: TreeElement) -> TreeElement:
    named = [c for c in kids(schema) if has(c, "name")]
    return add(schema, named[len(named) // 2])


# name -> (site test on (element, parent), change)
MUTATIONS = {
    "element-without-name": (lambda e, p: is_(e, "element") and has(e, "name"),
                             lambda e: drop(e, "name")),
    "global-element-occurs": (lambda e, p: is_(e, "element") and is_(p, "schema"),
                              lambda e: put(e, "minOccurs", "0")),
    "occurs-value": (particle, lambda e: put(e, "maxOccurs", "many")),
    "occurs-range": (particle, lambda e: put(put(e, "minOccurs", "4"), "maxOccurs", "2")),
    "ref-and-name": (lambda e, p: is_(e, "element") and has(e, "ref"),
                     lambda e: put(e, "name", "x")),
    "two-types": (lambda e, p: is_(e, "element") and any(is_(k, "complexType") for k in kids(e)),
                  lambda e: put(e, "type", "xs:string")),
    "foreign-child": (lambda e, p: True,
                      lambda e: add(e, TreeElement(TreeName(None, "foo"), (), ()))),
    "unsupported-child": (lambda e, p: True, lambda e: add(e, xs("notation"))),
    "choice-in-sequence": (lambda e, p: is_(e, "sequence"), lambda e: add(e, xs("choice"))),
    "second-content-model": (lambda e, p: is_(e, "complexType") or derivation(e, p),
                             lambda e: add(e, xs("sequence"))),
    "group-ref-without-ref": (lambda e, p: is_(e, "group") and has(e, "ref"),
                              lambda e: drop(e, "ref")),
    "group-ref-occurs": (lambda e, p: is_(e, "group") and has(e, "ref"),
                         lambda e: put(e, "minOccurs", "0")),
    "attribute-ref": (lambda e, p: is_(e, "attribute"),
                      lambda e: put(drop(e, "name"), "ref", "x")),
    "attribute-use": (lambda e, p: is_(e, "attribute"), lambda e: put(e, "use", "prohibited")),
    "named-local-type": (lambda e, p: is_(e, "complexType") and not has(e, "name"),
                         lambda e: put(e, "name", "x")),
    "unnamed-global": (lambda e, p: is_(p, "schema") and has(e, "name"),
                       lambda e: drop(e, "name")),
    "derivation-kind": (derivation, lambda e: replace(e, name=TreeName("xs", "list"))),
    "derivation-builtin-base": (derivation, lambda e: put(e, "base", "xs:string")),
    "derivation-simple-base": (derivation, lambda e: put(e, "base", "st0")),
    "circular-derivation": (lambda e, p: is_(e, "complexType") and has(e, "name")
                            and any(is_(k, "complexContent") for k in kids(e)), own_base),
    "cross-namespace-type": (lambda e, p: has(e, "type"), lambda e: put(e, "type", "q:T")),
    "dangling-type": (lambda e, p: has(e, "type"), lambda e: put(e, "type", "nosuch")),
    "attribute-complex-type": (lambda e, p: is_(e, "attribute"), lambda e: put(e, "type", "t0")),
    "dangling-ref": (lambda e, p: has(e, "ref"), lambda e: put(e, "ref", "nosuch")),
    "duplicate-global": (lambda e, p: p is None, duplicate),
    "simple-type-named-base": (lambda e, p: is_(e, "restriction") and is_(p, "simpleType"),
                               lambda e: put(e, "base", "t0")),
    "nested-group-ref": (lambda e, p: is_(e, "sequence") and is_(p, "group"),
                         lambda e: add(e, xs("group", ref="g0"))),
}


def mutated_errors():
    """{"seed/mutation": (message, position) or None, or "n/a"}."""
    errors = {}
    for seed in SEEDS:
        text = serialize_schema(random_schema(seed))
        assert first_error(text) is None, f"seed {seed}"
        doc = parse_tree(text.encode(), f"random-schema-{seed}")
        found = list(elements(doc.root))
        for label, (site, change) in MUTATIONS.items():
            sites = [where for where, e, p in found if site(e, p)]
            if not sites:
                errors[f"{seed}/{label}"] = "n/a"
                continue
            where = random.Random(f"{seed}/{label}").choice(sites)
            root = edit(doc.root, where, change)
            errors[f"{seed}/{label}"] = first_error(serialize_xml(TreeDocument(root, "t")))
    return errors


# ---------------------------------------------------------------------------
# hand-written inputs, one per raise site

EL = '<xs:element name="a">{}</xs:element>'
CT = EL.format("<xs:complexType>{}</xs:complexType>")
SEQ = CT.format("<xs:sequence>{}</xs:sequence>")
DERIVED = ('<xs:element name="a" type="d"/><xs:complexType name="b"/>'
           '<xs:complexType name="d">{}</xs:complexType>')
EXT = DERIVED.format('<xs:complexContent><xs:extension base="b">{}'
                     '</xs:extension></xs:complexContent>')
SIMPLE = '<xs:element name="a" type="s"/><xs:simpleType name="s">{}</xs:simpleType>'
GROUP = EL.format("") + "<xs:group {}</xs:group>"
AGROUP = EL.format("") + "<xs:attributeGroup {}</xs:attributeGroup>"

CASES = {
    # _SchemaReader
    "root-not-schema": "<schema/>",
    "foreign-top": "<foo/>",
    "unsupported-top": "<xs:import/>",
    "occurs-value": SEQ.format('<xs:element ref="a" minOccurs="x"/>'),
    "occurs-range": SEQ.format('<xs:element ref="a" minOccurs="2" maxOccurs="1"/>'),
    "cross-namespace-type": '<xs:element name="a" type="q:t"/>',
    "element-without-name": "<xs:element/>",
    "global-element-occurs": '<xs:element name="a" maxOccurs="2"/>',
    "element-two-types": EL.format("<xs:complexType/><xs:complexType/>"),
    "element-type-and-inline": '<xs:element name="a" type="xs:string"><xs:complexType/>'
                               "</xs:element>",
    "anonymous-simple-type": EL.format("<xs:simpleType/>"),
    "element-unsupported-child": EL.format("<xs:unique/>"),
    "ref-and-name": SEQ.format('<xs:element ref="a" name="b"/>'),
    "sequence-group-without-ref": SEQ.format("<xs:group/>"),
    "sequence-group-occurs": SEQ.format('<xs:group ref="g" maxOccurs="2"/>'),
    "sequence-choice": SEQ.format("<xs:choice/>"),
    "sequence-nested": SEQ.format("<xs:sequence/>"),
    "sequence-unsupported-child": SEQ.format("<xs:attribute/>"),
    "attribute-ref": CT.format('<xs:attribute ref="x"/>'),
    "attribute-use": CT.format('<xs:attribute name="x" use="prohibited"/>'),
    "multiple-content-models": CT.format("<xs:sequence/><xs:sequence/>"),
    "body-group-without-ref": CT.format("<xs:group/>"),
    "body-attribute-group-without-ref": CT.format("<xs:attributeGroup/>"),
    "body-simple-content": CT.format("<xs:simpleContent/>"),
    "body-unsupported-child": CT.format("<xs:element/>"),
    "global-type-without-name": "<xs:complexType/>",
    "local-type-named": EL.format('<xs:complexType name="t"/>'),
    "malformed-complex-content": DERIVED.format("<xs:complexContent/>"),
    "derivation-unsupported": DERIVED.format("<xs:complexContent><xs:list/>"
                                             "</xs:complexContent>"),
    "derivation-without-base": DERIVED.format("<xs:complexContent><xs:extension/>"
                                              "</xs:complexContent>"),
    "derivation-builtin-base": DERIVED.format('<xs:complexContent><xs:restriction '
                                              'base="xs:anyType"/></xs:complexContent>'),
    "simple-type-without-name": "<xs:simpleType/>",
    "simple-type-unsupported-child": SIMPLE.format("<xs:list/>"),
    "simple-type-without-restriction": SIMPLE.format(""),
    "restriction-without-base": SIMPLE.format("<xs:restriction/>"),
    "restriction-named-base": SIMPLE.format('<xs:restriction base="t"/>'),
    "group-without-name": "<xs:group/>",
    "group-nested-ref": GROUP.format('name="g"><xs:sequence><xs:group ref="g"/>'
                                     "</xs:sequence>"),
    "group-unsupported-child": GROUP.format('name="g"><xs:choice/>'),
    "attribute-group-without-name": "<xs:attributeGroup/>",
    "attribute-group-unsupported-child": AGROUP.format('name="g"><xs:element/>'),
    # _check_references
    "duplicate-element": '<xs:element name="a"/><xs:element name="a"/>',
    "duplicate-type": '<xs:element name="a"/><xs:complexType name="t"/>'
                      '<xs:simpleType name="t"><xs:restriction base="xs:string"/>'
                      "</xs:simpleType>",
    "duplicate-group": EL.format("") + '<xs:group name="g"/><xs:group name="g"/>',
    "duplicate-attribute-group": EL.format("") + '<xs:attributeGroup name="g"/>'
                                                 '<xs:attributeGroup name="g"/>',
    "unresolved-element-type": '<xs:element name="a" type="t"/>',
    "unresolved-attribute-type": CT.format('<xs:attribute name="x" type="t"/>'),
    "unresolved-attribute-group-type": AGROUP.format('name="g"><xs:attribute name="x" '
                                                     'type="t"/>'),
    "attribute-complex-type": CT.format('<xs:attribute name="x" type="t"/>')
                              + '<xs:complexType name="t"/>',
    "attribute-group-complex-type": AGROUP.format('name="g"><xs:attribute name="x" '
                                                  'type="t"/>') + '<xs:complexType name="t"/>',
    "unresolved-element-ref": SEQ.format('<xs:element ref="b"/>'),
    "unresolved-group-element-ref": GROUP.format('name="g"><xs:sequence>'
                                                 '<xs:element ref="b"/></xs:sequence>'),
    "unresolved-group-ref": SEQ.format('<xs:group ref="g"/>'),
    "unresolved-attribute-group-ref": CT.format('<xs:attributeGroup ref="g"/>'),
    "derivation-base-not-complex": EXT.format("").replace('base="b"', 'base="s"')
                                   + '<xs:simpleType name="s"><xs:restriction '
                                     'base="xs:string"/></xs:simpleType>',
    "circular-derivation": EXT.format("").replace('<xs:complexType name="b"/>', "")
                           .replace('base="b"', 'base="d"'),
    "circular-derivation-reached": '<xs:element name="a" type="c"/>'
                                   + "".join(
                                       f'<xs:complexType name="{t}"><xs:complexContent>'
                                       f'<xs:extension base="{b}"/></xs:complexContent>'
                                       "</xs:complexType>"
                                       for t, b in (("c", "d"), ("d", "e"), ("e", "d"))),
    "nested-local-error": SEQ.format(EL.format("<xs:complexType><xs:sequence>"
                                               '<xs:element name="b" maxOccurs="x"/>'
                                               "</xs:sequence></xs:complexType>")),
}


def case_errors():
    out = {}
    for name, body in CASES.items():
        text = body if name == "root-not-schema" else f"<xs:schema {XS}>{body}</xs:schema>"
        out[name] = first_error(text)
    return out


def all_digests() -> dict[str, dict[str, str]]:
    mutations = {k: v if v == "n/a" else digest(v) for k, v in mutated_errors().items()}
    return {"cases": {k: digest(v) for k, v in case_errors().items()},
            "mutations": mutations}


# ---------------------------------------------------------------------------
# tests


@pytest.fixture(scope="module")
def digests():
    return all_digests()


@pytest.mark.parametrize("family", ["cases", "mutations"])
def test_errors_match_digests(digests, family):
    expected = json.loads(DIGESTS.read_text())[family]
    actual = digests[family]
    changed = sorted(k for k in expected if actual.get(k) != expected[k])
    assert actual.keys() == expected.keys()
    assert changed == [], f"{family}: errors changed for {changed[:10]}"


def test_every_hand_written_case_fails():
    assert [name for name, error in case_errors().items() if error is None] == []


def test_attribute_group_attribute_must_be_simple():
    message, _ = case_errors()["attribute-group-complex-type"]
    assert message == "attribute 'x' of attributeGroup 'g' must reference a simple type"


def test_mutations_find_sites_and_errors():
    errors = mutated_errors()
    for label in MUTATIONS:
        found = [v for k, v in errors.items() if k.endswith(f"/{label}") and v != "n/a"]
        assert found, f"{label}: no seed has a site"
        assert any(v is not None for v in found), f"{label}: never an error"


def _raise_lines() -> set[int]:
    """Line numbers of every `raise SchemaError` in the reader and the
    reference checks (`_check_references` and its `_check_*` helpers)."""
    tree = ast.parse(inspect.getsource(xsdmodel))
    scopes = [n for n in tree.body if getattr(n, "name", "") == "_SchemaReader"
              or getattr(n, "name", "").startswith("_check_")]
    assert {"_SchemaReader", "_check_references"} <= {n.name for n in scopes}
    return {
        node.lineno for scope in scopes for node in ast.walk(scope)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "SchemaError"
    }


def test_hand_written_cases_reach_every_raise_site():
    wanted = _raise_lines()
    source = xsdmodel.__file__
    hit = set()

    def lines(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename == source else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        case_errors()
    finally:
        sys.settrace(previous)
    assert sorted(wanted - hit) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
