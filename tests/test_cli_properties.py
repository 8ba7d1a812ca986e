"""Seeded property suite for `xsgowl generate`.

Each shape below builds one input per seed. A run must end with exit 0,
or with the documented code of the input's failure class (2: malformed
XML; 3: schema error, or two individuals with one IRI), and never with 4,
which is kept for bugs. Populated `random_document` outputs must also
give the same triple set in Turtle and in RDF/XML.
"""

from __future__ import annotations

import itertools
import random

import pytest

from xsgowl import cli
from randgen import ATTR_VALUES, ELEMENT_NAMES, VALUES, random_tree
from treeparse import TreeDocument, TreeElement, TreeName
from triples import parse_rdfxml, parse_turtle
from xmlwrite import serialize_xml

SEEDS = range(12)
FLAGS = ["--with-instances", "--format", "both"]
XS = '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'


def qname(name: str) -> TreeName:
    prefix, _, local = name.rpartition(":")
    return TreeName(prefix or None, local)


def element(name: str, attrs=(), children=()) -> TreeElement:
    return TreeElement(qname(name), tuple((qname(n), v) for n, v in attrs), tuple(children))


def xml(root: TreeElement) -> str:
    return serialize_xml(TreeDocument(root, "t"))


# Each shape: rng -> (suffix, text, expected exit code).


def deep(rng):
    """A chain of one name, past the depth that once ran out of frames,
    with or without ids on its levels."""
    depth = rng.choice([1, 2, rng.randint(3, 50), rng.randint(1000, 1500)])
    ids = rng.random() < 0.5
    node = element("a", children=[rng.choice(VALUES)] if rng.random() < 0.5 else [])
    for i in range(depth - 1, 0, -1):
        node = element("a", [("id", f"n{i}")] if ids else [], [node])
    return ".xml", xml(element("a", children=[node])), 0


def wide(rng):
    """A root with many children, distinct names or a few repeated ones."""
    n = rng.randint(1, 300)
    distinct = rng.random() < 0.5
    children = [
        element(f"c{i}" if distinct else rng.choice(ELEMENT_NAMES),
                [("k", rng.choice(ATTR_VALUES))] if rng.random() < 0.3 else [],
                [rng.choice(VALUES)])
        for i in range(n)
    ]
    return ".xml", xml(element("wide", children=children)), 0


def attribute_only(rng):
    """Elements that carry attributes and no content at all."""
    def attrs():
        names = rng.sample(["id", "k", "n", "ref"], rng.randint(1, 3))
        return [(a, f"v{rng.randrange(10**6)}" if a == "id" else rng.choice(ATTR_VALUES))
                for a in names]
    children = [element(rng.choice(ELEMENT_NAMES), attrs()) for _ in range(rng.randint(0, 8))]
    ids = [v for c in children for n, v in c.attributes if n.local == "id"]
    code = 0 if len(ids) == len(set(ids)) else 3
    return ".xml", xml(element("r", attrs(), children)), code


def empty_content(rng):
    """A bare root, or a root whose children are all empty."""
    children = [element(rng.choice(ELEMENT_NAMES)) for _ in range(rng.randint(0, 6))]
    return ".xml", xml(element("r", children=children)), 0


def namespaced(rng):
    """Prefixed and default-namespace names; one local name may come with
    several prefixes."""
    decls = [("xmlns:p", "urn:p"), ("xmlns:q", "urn:q")]
    if rng.random() < 0.5:
        decls.append(("xmlns", "urn:d"))
    names = ["p:a", "q:a", "a", "p:b", "q:c"]

    def node(depth):
        kids = [node(depth - 1) for _ in range(rng.randint(0, 3))] if depth else []
        attrs = [("p:x", rng.choice(ATTR_VALUES))] if rng.random() < 0.3 else []
        return element(rng.choice(names), attrs, kids or [rng.choice(VALUES)])

    root = node(3)
    return ".xml", xml(element("p:root", decls, [root])), 0


def prefixed_attributes(rng):
    """One attribute local name under several prefixes on one element, and
    absent from another element of the same name."""
    values = itertools.count()

    def attrs():
        names = rng.sample(["id", "p:id", "q:id", "k", "p:k"], rng.randint(0, 3))
        return [(a, f"v{next(values)}") for a in names]
    children = [element("b", attrs(), [element("c", attrs())] if rng.random() < 0.5 else [])
                for _ in range(rng.randint(1, 6))]
    return ".xml", xml(element("r", [("xmlns:p", "urn:p"), ("xmlns:q", "urn:q")],
                               children)), 0


def sanitized_names(rng):
    """Names with `-`, `.`, `_` and non-ASCII letters, and ids that are not
    NCNames. One id prefix per document keeps the sanitized ids apart."""
    names = ["é-1", "a.b", "_x", "naïve", "名前", "z-z.z"]
    prefix = rng.choice(["1 ", "x/", "é#", "-", "", "a b:"])
    children = [
        element(rng.choice(names), [("id", f"{prefix}{i}")],
                [element(rng.choice(names[:3]), children=[rng.choice(VALUES)])])
        for i in range(rng.randint(1, 8))
    ]
    return ".xml", xml(element("root", children=children)), 0


def renames(rng):
    """An XSD whose local elements share names but not types, so classes
    take `_2`, `_3` suffixes."""
    members = "".join(
        f'<xs:element name="{rng.choice(["item", "item", "Item", "x"])}">'
        '<xs:complexType><xs:sequence><xs:element name="v" type="xs:string"/>'
        "</xs:sequence></xs:complexType></xs:element>"
        for _ in range(rng.randint(2, 8))
    )
    return ".xsd", (f'{XS}<xs:element name="root"><xs:complexType><xs:sequence>'
                    f"{members}</xs:sequence></xs:complexType></xs:element>"
                    "</xs:schema>"), 0


def duplicate_ids(rng):
    """Two structured elements with one id: two individuals, one IRI."""
    twin = element("e", [("id", "same")], [element("v", children=["1"])])
    others = [element("e", [("id", f"e{i}")], [element("v", children=["2"])])
              for i in range(rng.randint(0, 4))]
    children = others + [twin]
    children.insert(rng.randint(0, len(children)), twin)
    return ".xml", xml(element("r", children=children)), 3


def malformed(rng):
    """A well-formed document cut short."""
    text = xml(random_tree(rng.randrange(1000)).root)
    return ".xml", text[:rng.randint(1, len(text) - 3)], 2


def schema_error(rng):
    """An XSD with a dangling type reference."""
    place = rng.choice(['<xs:element name="r" type="nosuch"/>',
                        '<xs:element name="r"><xs:complexType>'
                        '<xs:attribute name="a" type="nosuch"/></xs:complexType></xs:element>'])
    return ".xsd", f"{XS}{place}</xs:schema>", 3


SHAPES = [deep, wide, attribute_only, empty_content, namespaced, prefixed_attributes,
          sanitized_names, renames, duplicate_ids, malformed, schema_error]


@pytest.mark.parametrize("shape", SHAPES, ids=[s.__name__ for s in SHAPES])
def test_generate_exits_with_documented_code(tmp_path, capsys, shape):
    codes = []
    for seed in SEEDS:
        suffix, text, expected = shape(random.Random(f"{shape.__name__}:{seed}"))
        path = tmp_path / f"in{seed}{suffix}"
        path.write_text(text, encoding="utf-8")
        argv = ["generate", str(path), "--out-dir", str(tmp_path / "out"), *FLAGS]
        codes.append((seed, expected, cli.main(argv)))
    capsys.readouterr()
    assert [(seed, code) for seed, expected, code in codes if code != expected] == []


def first_ids_only(el: TreeElement, seen: set[str]) -> TreeElement:
    """A copy of the tree in which an `id` value already used in document
    order is dropped, so the individuals' IRIs stay distinct."""
    attrs = []
    for name, value in el.attributes:
        if name.local == "id":
            if value in seen:
                continue
            seen.add(value)
        attrs.append((name, value))
    children = [c if isinstance(c, str) else first_ids_only(c, seen) for c in el.children]
    return TreeElement(el.name, tuple(attrs), tuple(children))


HAND_WRITTEN = [
    # a carriage return in a text value and in an attribute value
    '<r k="p&#13;q"><a>x&#13;y</a><a>z</a></r>',
    # a name and an id ending in ".", and ids with characters outside
    # XML's NameChar, none of them a Turtle local name as it stands
    '<r><a.>1</a.><b id="k."><c>2</c></b><b id="x²"><c>3</c></b>'
    '<b id="qª"><c>4</c></b></r>',
]


def test_populated_random_documents_agree_across_syntaxes(tmp_path, capsys):
    texts = [xml(first_ids_only(random_tree(seed).root, set()))
             for seed in range(40)] + HAND_WRITTEN
    for n, text in enumerate(texts):
        path = tmp_path / f"r{n}.xml"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["generate", str(path), "--out-dir", str(tmp_path), *FLAGS]) == 0
        turtle = parse_turtle((tmp_path / f"r{n}.ttl").read_text(encoding="utf-8"))
        rdfxml = parse_rdfxml((tmp_path / f"r{n}.rdf").read_text(encoding="utf-8"))
        assert turtle == rdfxml, f"input {n}"
        assert any(p.endswith("#type") and o.endswith("NamedIndividual")
                   for _, p, o in turtle if isinstance(o, str)), f"input {n}"
    capsys.readouterr()
