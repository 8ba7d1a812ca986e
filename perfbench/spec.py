"""What the benchmark runs and reports: workload flags, metric names and
units, and the span names the traced run records."""

from __future__ import annotations

# generate flags per workload; README.md gives each workload's shape and why
WORKLOADS = {
    "wide": ["--with-instances", "--format", "both"],
    "records": ["--with-instances", "--format", "both"],
    "xsd": ["--literal-domains", "--with-cardinality", "--strict-dl", "--format",
            "both", "--emit-schema", "--emit-dot", "--emit-trace"],
}

# (metric, unit) reported with tracing off
END_TO_END = [
    ("source_s", "s"),
    ("input_mb_s", "MB/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Spans the traced run records, in pipeline order. Each wraps the public
# function at the name its callers look it up under, because cli.py,
# abox.py and owlgen.py bind them with `from ... import`.
WRAPPED_FUNCTIONS = [
    ("xsgowl.cli", "parse_xml", "xmldoc.parse_xml"),
    ("xsgowl.xsdmodel", "parse_xml", "xmldoc.parse_xml"),
    ("xsgowl.cli", "infer_schema", "infer.infer_schema"),
    ("xsgowl.cli", "read_schema", "xsdmodel.read_schema"),
    ("xsgowl.cli", "serialize_schema", "xsdmodel.serialize_schema"),
    ("xsgowl.cli", "build_xsg", "xsg.build_xsg"),
    ("xsgowl.cli", "to_dot", "xsg.to_dot"),
    ("xsgowl.owlgen", "build_path_map", "paths.build_path_map"),
    ("xsgowl.abox", "build_path_map", "paths.build_path_map"),
    ("xsgowl.cli", "generate_tbox", "owlgen.generate_tbox"),
    ("xsgowl.cli", "write_trace", "owlgen.write_trace"),
    ("xsgowl.cli", "check_dl_profile", "owlmodel.check_dl_profile"),
    ("xsgowl.cli", "validate", "xsdmodel.validate"),
    ("xsgowl.abox", "validate", "xsdmodel.validate"),
    ("xsgowl.cli", "populate", "abox.populate"),
    ("xsgowl.cli", "serialize_turtle", "owlmodel.serialize_turtle"),
    ("xsgowl.cli", "serialize_rdfxml", "owlmodel.serialize_rdfxml"),
]
WRAPPED_METHODS = [
    ("xsgowl.xsdmodel", "SchemaModel", "element", "xsdmodel.lookup"),
    ("xsgowl.xsdmodel", "SchemaModel", "type_named", "xsdmodel.lookup"),
    ("xsgowl.xsdmodel", "SchemaModel", "group", "xsdmodel.lookup"),
    ("xsgowl.xsdmodel", "SchemaModel", "attr_group", "xsdmodel.lookup"),
    ("xsgowl.xsg", "SchemaGraph", "out_edges", "xsg.scan"),
    ("xsgowl.xsg", "SchemaGraph", "in_degree", "xsg.scan"),
    ("xsgowl.xsg", "SchemaGraph", "vertex_of", "xsg.scan"),
    ("xsgowl.owlmodel", "OntologyModel", "__post_init__", "owlmodel.model_check"),
]
SOURCE_SPAN = "cli.source"  # one generate call; its self time is the rest
GC_SPAN = "gc.pause"
COUNT_SPAN = "trace.count"  # the tracer's own counting, excluded from layers

STAGE_SPANS = [
    "xmldoc.parse_xml", "infer.infer_schema", "xsdmodel.read_schema",
    "xsdmodel.serialize_schema", "xsdmodel.validate", "xsdmodel.lookup",
    "xsg.build_xsg", "xsg.to_dot", "xsg.scan", "paths.build_path_map",
    "owlgen.generate_tbox", "owlgen.write_trace", "owlmodel.model_check",
    "owlmodel.serialize_turtle", "owlmodel.serialize_rdfxml",
    "owlmodel.check_dl_profile", "abox.populate", SOURCE_SPAN,
]
CALL_COUNTED = [
    "xsdmodel.validate", "xsdmodel.lookup", "xsg.scan", "paths.build_path_map",
]
COUNTERS = [
    "xmldoc.elements", "xsg.vertices", "xsg.edges", "xsg.back_edges",
    "owlgen.bridges", "owlmodel.out_bytes", "abox.individuals", "gc.collections",
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(metric, unit) reported by the traced run, per source."""
    metrics = [(f"{span}.self_s", "s") for span in STAGE_SPANS]
    metrics.append(("gc.pause_s", "s"))
    metrics += [(f"{span}.calls", "count") for span in CALL_COUNTED]
    metrics += [(name, "bytes" if name.endswith("_bytes") else "count")
                for name in COUNTERS]
    metrics += [(f"{span}.scale_exp", "log2") for span in STAGE_SPANS + [GC_SPAN]]
    metrics += [("trace.source_s", "s"), ("trace.overhead", "ratio")]
    return metrics

