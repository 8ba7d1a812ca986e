"""XML-to-OWL toolchain: infer a schema from XML instance documents,
build the schema graph, and map it to an OWL-DL ontology with a
mapping trace and optional individuals."""

from .abox import NamingCollision, populate
from .datatypes import infer_datatype, join_datatype
from .infer import (
    ElementProfile,
    RootMismatch,
    accumulate_profiles,
    infer_schema,
    profiles_to_schema,
)
from .owlgen import GenOptions, MappingTrace, generate_tbox, write_trace
from .owlmodel import (
    Individual,
    ObjectProperty,
    DatatypeProperty,
    OntologyModel,
    OwlClass,
    check_dl_profile,
    serialize_rdfxml,
    serialize_turtle,
)
from .xmldoc import ParseError, XmlDocument, XmlName, parse_xml, text_content
from .xsdmodel import (
    SchemaError,
    SchemaModel,
    ValidationReport,
    read_schema,
    serialize_schema,
    validate,
)
from .xsg import EmptySchema, SchemaGraph, build_xsg, is_tree, to_dot

__version__ = "0.1.0"

__all__ = [
    "GenOptions",
    "Individual",
    "MappingTrace",
    "NamingCollision",
    "ObjectProperty",
    "DatatypeProperty",
    "OntologyModel",
    "OwlClass",
    "ParseError",
    "RootMismatch",
    "SchemaError",
    "SchemaGraph",
    "SchemaModel",
    "ValidationReport",
    "XmlDocument",
    "XmlName",
    "EmptySchema",
    "ElementProfile",
    "accumulate_profiles",
    "build_xsg",
    "check_dl_profile",
    "generate_tbox",
    "infer_datatype",
    "infer_schema",
    "is_tree",
    "join_datatype",
    "parse_xml",
    "populate",
    "profiles_to_schema",
    "read_schema",
    "serialize_rdfxml",
    "serialize_schema",
    "serialize_turtle",
    "text_content",
    "to_dot",
    "validate",
    "write_trace",
]
