"""An oracle for the instance mapping that shares no code with it.

`generate --with-instances --emit-trace` writes the populated ontology as
Turtle and the mapping trace (schema path, entity kind, rule, IRI) as TSV.
The checks here read the Turtle back with `triples.py` and compare it with
the input document, linked by the trace alone, and call nothing in `abox`.
So a value that population gets wrong the same way in both syntaxes, and
that a snapshot pins, still fails here:

- each complex-typed element is one individual with one class, the class
  the trace maps its type to;
- each datatype property holds, per subject class, the multiset of leaf
  texts, attribute values and mixed texts that the trace maps to it;
- each object property holds the multiset of (parent class, child class)
  pairs of the document's element/child pairs that the trace maps to it.

An inferred schema declares every element name once, as a global element
that content models refer to, which gives the paths looked up below. It
has no groups, so the synthetic group-holder individuals are not covered.
The trace records a merged property under its first path only, so the
runs keep one property per (class, name) pair (`--literal-domains`): then
every path that population resolves has a trace line of its own.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from xsgowl import cli
from randgen import random_tree
from test_cli_properties import (
    SEEDS,
    attribute_only,
    deep,
    first_ids_only,
    prefixed_attributes,
    sanitized_names,
    xml,
)
from treeparse import parse_tree, tree_text
from triples import RDF, OWL, turtle_statements

RANDOM_SEEDS = range(300)
FLAGS = ["--with-instances", "--emit-trace", "--literal-domains", "--log-level", "quiet"]


def expected_abox(doc, trace: dict[str, str]):
    """(individual classes, data assertions, object assertions) as
    multisets, read off the document through the trace."""
    def class_of(name):
        return trace.get(f"/xs:schema/xs:element[{name}]/xs:complexType")

    classes, data, objects = Counter(), Counter(), Counter()
    for el in doc.iter_elements():
        owner = class_of(el.name.local)
        if owner is None:  # a simple-typed element is a value of its parent
            continue
        classes[owner] += 1
        body = f"/xs:schema/xs:element[{el.name.local}]/xs:complexType"
        for name, value in el.attributes:
            if not name.is_ns_decl:
                data[trace[f"{body}/xs:attribute[{name.local}]"], owner, value] += 1
        if any(isinstance(c, str) for c in el.children):
            data[trace[f"{body}/text()"], owner, tree_text(el)] += 1
        for child in el.child_elements():
            prop = trace[f"{body}/xs:sequence/xs:element[{child.name.local}]"]
            child_class = class_of(child.name.local)
            if child_class is None:
                data[prop, owner, tree_text(child)] += 1
            else:
                objects[prop, owner, child_class] += 1
    return classes, data, objects


def written_abox(turtle: str):
    """The same three multisets, read off the Turtle."""
    statements = turtle_statements(turtle)
    types: dict[str, list] = {}
    for s, p, o in statements:
        if p == RDF + "type":
            types.setdefault(s, []).append(o)
    object_props = {s for s, kinds in types.items() if OWL + "ObjectProperty" in kinds}
    data_props = {s for s, kinds in types.items() if OWL + "DatatypeProperty" in kinds}
    class_of = {}
    for s, kinds in types.items():
        if OWL + "NamedIndividual" in kinds:
            classes = [k for k in kinds if k != OWL + "NamedIndividual"]
            assert len(classes) == 1, f"individual {s} has classes {classes}"
            class_of[s] = classes[0]
    data, objects = Counter(), Counter()
    for s, p, o in statements:
        if p in data_props:
            data[p, class_of[s], o[1]] += 1
        elif p in object_props:
            objects[p, class_of[s], class_of[o]] += 1
    return Counter(class_of.values()), data, objects


def check_abox(text: str, out_dir, stem: str):
    path = out_dir / f"{stem}.xml"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["generate", str(path), "--out-dir", str(out_dir), *FLAGS]) == 0, stem
    trace = {}
    for line in (out_dir / f"{stem}.trace.tsv").read_text(encoding="utf-8").splitlines():
        schema_path, _, _, iri = line.split("\t")
        trace[schema_path] = iri
    doc = parse_tree(text.encode("utf-8"), stem)
    want = expected_abox(doc, trace)
    got = written_abox((out_dir / f"{stem}.ttl").read_text(encoding="utf-8"))
    for what, w, g in zip(("individual classes", "data assertions", "object assertions"),
                          want, got):
        assert g == w, f"{stem}: {what}: missing {w - g}, extra {g - w}"


def test_random_documents_match_their_abox(tmp_path, capsys):
    for seed in RANDOM_SEEDS:
        text = xml(first_ids_only(random_tree(seed).root, set()))
        check_abox(text, tmp_path, f"random{seed}")
    capsys.readouterr()


ID_SHAPES = [deep, attribute_only, prefixed_attributes, sanitized_names]


@pytest.mark.parametrize("shape", ID_SHAPES, ids=[s.__name__ for s in ID_SHAPES])
def test_id_carrying_shapes_match_their_abox(tmp_path, capsys, shape):
    for seed in SEEDS:
        _, text, code = shape(random.Random(f"{shape.__name__}:{seed}"))
        if code == 0:  # the others name two individuals alike, and stop
            check_abox(text, tmp_path, f"{shape.__name__}{seed}")
    capsys.readouterr()
