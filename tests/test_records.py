"""The schema, graph and entity records are slotted dataclasses, built
with plain slot stores rather than a frozen dataclass's per-field
`object.__setattr__`. OntologyModel stays frozen: its model check runs on
construction and must stay true after it."""

import dataclasses

import pytest

from xsgowl.infer import ElementProfile
from xsgowl.owlgen import KIND_CLASS, Bridge
from xsgowl.owlmodel import (
    XSD_ANYTYPE,
    DatatypeProperty,
    Individual,
    ObjectProperty,
    OntologyModel,
    OwlClass,
)
from xsgowl.xsdmodel import (
    AttrDecl,
    AttrGroupDecl,
    BuiltinRef,
    ComplexType,
    ElementDecl,
    GroupDecl,
    GroupUse,
    NamedTypeRef,
    Particle,
    SimpleType,
    TypeContent,
    Violation,
)
from xsgowl.xsg import EDGE_MEMBER, ELEMENT, XsgEdge, XsgVertex

R = "r"

RECORDS = [
    BuiltinRef("string"),
    NamedTypeRef("t"),
    AttrDecl("a", BuiltinRef("string")),
    Particle("e", None),
    ComplexType(None),
    SimpleType("s", "string"),
    ElementDecl("e", BuiltinRef("string")),
    GroupDecl("g", ()),
    AttrGroupDecl("ag", ()),
    GroupUse(GroupDecl("g", ()), "/g"),
    TypeContent({}, {}, (), {}, (), ()),
    Violation("kind", "/r", "message"),
    XsgVertex(0, ELEMENT, "r"),
    XsgEdge(0, 0, 1, EDGE_MEMBER),
    Bridge("/r", KIND_CLASS, "R1", R),
    OwlClass(R, "r"),
    ObjectProperty(R, (R,), R),
    DatatypeProperty(R, (R,), XSD_ANYTYPE),
    Individual(R, R),
    ElementProfile("r"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_slotted_and_not_frozen(record):
    assert not hasattr(record, "__dict__")
    first = dataclasses.fields(record)[0].name
    setattr(record, first, getattr(record, first))  # a frozen class raises


def test_ontology_model_stays_frozen():
    model = OntologyModel("http://example.org/onto/test", classes=(OwlClass(R, "r"),))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.classes = ()
