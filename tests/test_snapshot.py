"""Byte-identity snapshot of everything `generate` writes.

One SHA-256 per input over its Turtle, RDF/XML, trace, DOT and XSD
outputs, compared with the digests in data/snapshot_digests.json. A
refactor must leave every digest as it is. After a deliberate output
change, rewrite the file with

    PYTHONPATH=src:tests python tests/test_snapshot.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from xsgowl.abox import NamingCollision, populate
from xsgowl.infer import infer_schema
from xsgowl.owlgen import GenOptions, generate_tbox, write_trace
from xsgowl.owlmodel import serialize_rdfxml, serialize_turtle
from xsgowl.xmldoc import parse_xml
from xsgowl.xsdmodel import read_schema, serialize_schema
from xsgowl.xsg import build_xsg, to_dot
from randgen import random_document, random_schema

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "snapshot_digests.json"
BASE = "http://example.org/onto/snapshot"
SEEDS = range(100)
# the flag set of the xsd benchmark workload, beside the defaults
LITERAL = GenOptions(base_iri=BASE, union_domains=False,
                     emit_cardinality=True, strict_dl=True)


def digest(schema, doc=None, opts=GenOptions(base_iri=BASE)) -> str:
    graph = build_xsg(schema)
    model, trace = generate_tbox(schema, graph, opts)
    try:
        if doc is not None:
            model = populate(doc, schema, model, trace)
        outputs = (serialize_turtle(model), serialize_rdfxml(model),
                   write_trace(trace), to_dot(graph), serialize_schema(schema))
    except NamingCollision as exc:  # random id values repeat
        outputs = (f"NamingCollision: {exc}",)
    return hashlib.sha256("\0".join(outputs).encode()).hexdigest()


def _inferred(doc):
    return digest(infer_schema([doc]), doc)


FAMILIES = {
    "bibliography.xml": lambda: {
        "instances": _inferred(
            parse_xml((DATA / "bibliography.xml").read_bytes(), "bibliography.xml")
        ),
    },
    "bibliography.xsd": lambda: {
        "tbox": digest(read_schema((DATA / "bibliography.xsd").read_bytes(), "b")),
    },
    "bibliography_nested.xsd": lambda: {
        "tbox": digest(
            read_schema((DATA / "bibliography_nested.xsd").read_bytes(), "n")
        ),
    },
    "random_schema": lambda: {
        f"{seed}/{label}": digest(random_schema(seed), opts=opts)
        for seed in SEEDS
        for label, opts in (("union", GenOptions(base_iri=BASE)),
                            ("literal", LITERAL))
    },
    "random_document": lambda: {
        f"{seed}/id-attribute": _inferred(random_document(seed))
        for seed in SEEDS
    },
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_outputs_match_snapshot(family):
    expected = json.loads(DIGESTS.read_text())[family]
    actual = FAMILIES[family]()
    changed = sorted(k for k in expected if actual.get(k) != expected[k])
    assert actual.keys() == expected.keys()
    assert changed == [], f"{family}: outputs changed for {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {family: compute() for family, compute in sorted(FAMILIES.items())}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
