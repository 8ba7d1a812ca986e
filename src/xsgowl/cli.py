"""Command-line pipeline: XML (or XSD) sources in, ontology files out.

Each input is processed independently into its own local ontology under
<base-iri>/<stem>; nothing is merged across sources, and inputs whose
stems collide are rejected before any is processed. Exit codes: 0 ok,
1 usage or an output that cannot be written, 2 XML parse error or
unreadable input, 3 schema error or two individuals with one IRI,
4 internal invariant violation (a bug; a document that fails the schema
inferred from it is one). With several inputs every source is attempted
and the first nonzero code in input order wins.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

from .abox import NamingCollision, populate
from .infer import infer_schema
from .owlgen import GenOptions, MappingTrace, generate_tbox, write_trace
from .owlmodel import (
    OntologyModel,
    check_dl_profile,
    serialize_rdfxml,
    serialize_turtle,
)
from .xmldoc import ParseError, parse_xml
from .xsdmodel import SchemaError, SchemaModel, read_schema, serialize_schema
from .xsg import EmptySchema, build_xsg, to_dot

logger = logging.getLogger("xsgowl")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_INTERNAL = 4

# The characters Turtle's IRIREF excludes. An input's stem is percent-encoded
# where it has one of them, or "#", "%" or "?", which would end or escape
# its IRI's path; the base IRI may not contain them, nor a fragment.
_IRIREF_EXCLUDED = r'\x00-\x20<>"{}|^`\\'
_NOT_IN_STEM = re.compile(f"[{_IRIREF_EXCLUDED}#%?]")
_NOT_IN_BASE_IRI = re.compile(f"[{_IRIREF_EXCLUDED}#]")


@dataclass
class RunConfig:
    inputs: list[str]
    out_dir: str = "."
    base_iri: str = "http://example.org/onto"
    format: str = "turtle"  # turtle | rdfxml | both
    emit_schema: bool = False
    emit_dot: bool = False
    emit_trace: bool = False
    with_instances: bool = False
    with_cardinality: bool = False
    strict_dl: bool = False
    literal_domains: bool = False
    input_kind: str | None = None  # xml | xsd | None = by extension


class _SourceFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# The exit code of each library error an input can cause, looked up by exact
# type. abox.DocumentInvalid is left out: `generate` validates a document
# only against the schema inferred from it, so a failure there is a bug.
_EXIT_CODES: dict[type[Exception], int] = {
    ParseError: EXIT_PARSE,
    SchemaError: EXIT_SCHEMA,
    EmptySchema: EXIT_SCHEMA,
    NamingCollision: EXIT_SCHEMA,
}


def _attempt(path: str, step: Callable[[], object]) -> int:
    """Run `step` on the source `path` and return its exit code. Every
    subcommand decides its exit codes here and nowhere else."""
    try:
        step()
    except _SourceFailure as exc:
        logger.error("%s", exc)
        return exc.code
    except Exception as exc:
        code = _EXIT_CODES.get(type(exc))
        if code is None:
            logger.exception("internal error while processing %s", path)
            return EXIT_INTERNAL
        logger.error("%s: %s", path, exc)
        return code
    return EXIT_OK


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def _atomic_write(path: Path, content: str):
    """Write `content` to a temporary file beside `path`, then rename it
    over `path`. The temporary file is created with mode 0o666, so the
    kernel applies the process umask as it does to any new file; its name
    ends in the process id and 64 random bits, and O_EXCL refuses a name
    that is already taken. A file that cannot be written is a usage error
    and leaves no temporary file behind."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.{os.urandom(8).hex()}"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
                f.write(content)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _SourceFailure(EXIT_USAGE, f"cannot write {path}: {exc.strerror}")


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _SourceFailure(EXIT_PARSE, f"cannot read {path}: {exc.strerror}")


def _source_kind(path: str, override: str | None) -> str:
    if override is not None:
        return override
    suffix = Path(path).suffix.lower()
    if suffix == ".xsd":
        return "xsd"
    if suffix == ".xml":
        return "xml"
    raise _SourceFailure(
        EXIT_USAGE,
        f"cannot tell whether {path} is XML data or a schema; pass --input-kind",
    )


def _load_schema(path: str, kind: str):
    """(schema, document-or-None) for one source file; the source's bytes
    are freed once it is parsed."""
    if kind == "xsd":
        return read_schema(_read_bytes(path), path), None
    doc = parse_xml(_read_bytes(path), path)
    return infer_schema([doc]), doc


def _graph(stem: str, schema: SchemaModel, cfg: RunConfig):
    """One source's schema graph, after writing its DOT file if asked."""
    graph = build_xsg(schema)
    if cfg.emit_dot:
        _atomic_write(Path(cfg.out_dir) / f"{stem}.dot", to_dot(graph))
    return graph


def _tbox(stem: str, schema: SchemaModel,
          cfg: RunConfig) -> tuple[OntologyModel, MappingTrace]:
    """(TBox, mapping trace) of one source's schema, writing the schema
    graph's DOT file if asked. No local name holds the graph, so
    `generate_tbox` frees it after its last read."""
    segment = _NOT_IN_STEM.sub(lambda m: f"%{ord(m[0]):02X}", stem)  # one byte each
    opts = GenOptions(
        base_iri=f"{cfg.base_iri}/{segment}",
        emit_cardinality=cfg.with_cardinality,
        union_domains=not cfg.literal_domains,
        strict_dl=cfg.strict_dl,
    )
    return generate_tbox(schema, _graph(stem, schema, cfg), opts)


def _ontology(path: str, stem: str, cfg: RunConfig) -> OntologyModel:
    """One source's ontology, populated if asked, writing the schema and
    trace files if asked. Only the ontology outlives this call: the
    document, the schema and the mapping trace are freed on return, before
    any ontology writer runs."""
    out_dir = Path(cfg.out_dir)
    schema, doc = _load_schema(path, _source_kind(path, cfg.input_kind))
    if cfg.emit_schema:
        _atomic_write(out_dir / f"{stem}.xsd", serialize_schema(schema))

    ontology, trace = _tbox(stem, schema, cfg)
    for warning in check_dl_profile(ontology):
        logger.warning("%s: %s", stem, warning)
    if cfg.emit_trace:
        _atomic_write(out_dir / f"{stem}.trace.tsv", write_trace(trace))

    if not cfg.with_instances:
        return ontology
    if doc is None:
        logger.warning(
            "%s: --with-instances has no effect on schema inputs", stem
        )
        return ontology
    return populate(doc, schema, ontology, trace)


def _process_source(path: str, cfg: RunConfig):
    """Write one source's ontology and print its summary line."""
    stem = Path(path).stem
    out_dir = Path(cfg.out_dir)
    counter = _WarningCounter()
    logger.addHandler(counter)
    try:
        ontology = _ontology(path, stem, cfg)
        if cfg.format in ("turtle", "both"):
            _atomic_write(out_dir / f"{stem}.ttl", serialize_turtle(ontology))
        if cfg.format in ("rdfxml", "both"):
            _atomic_write(out_dir / f"{stem}.rdf", serialize_rdfxml(ontology))
    finally:
        logger.removeHandler(counter)
    print(
        f"{stem}: {len(ontology.classes)} classes, "
        f"{len(ontology.object_properties)} object properties, "
        f"{len(ontology.datatype_properties)} datatype properties, "
        f"{len(ontology.individuals)} individuals, {counter.count} warnings"
    )


def _stem_problem(inputs: list[str]) -> str | None:
    """A message naming an input whose stem is not valid UTF-8, and so
    cannot be written into its IRI, or two inputs whose outputs would share
    a stem, and so overwrite each other in the output directory; None if
    there is neither."""
    seen: dict[str, str] = {}  # stem -> the first input with it
    for path in inputs:
        stem = Path(path).stem
        try:
            stem.encode("utf-8")
        except UnicodeEncodeError:
            return f"the stem of {path!r} is not valid UTF-8"
        if stem in seen:
            return (f"inputs {seen[stem]} and {path} share the stem {stem!r}, "
                    f"so their outputs would overwrite each other")
        seen[stem] = path
    return None


def cmd_generate(cfg: RunConfig) -> int:
    problem = _stem_problem(cfg.inputs)
    if problem is not None:
        logger.error("%s", problem)
        return EXIT_USAGE
    try:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        logger.error("cannot create %s: %s", cfg.out_dir, exc.strerror)
        return EXIT_USAGE
    exit_code = EXIT_OK
    for path in cfg.inputs:
        code = _attempt(path, lambda: _process_source(path, cfg))
        exit_code = exit_code or code
    return exit_code


def cmd_infer_schema(input_path: str, output_path: str) -> int:
    def step():
        schema, _ = _load_schema(input_path, "xml")
        _atomic_write(Path(output_path), serialize_schema(schema))
    return _attempt(input_path, step)


def cmd_graph(input_path: str, output_path: str,
              input_kind: str | None = None) -> int:
    def step():
        schema, _ = _load_schema(input_path, _source_kind(input_path, input_kind))
        _atomic_write(Path(output_path), to_dot(build_xsg(schema)))
    return _attempt(input_path, step)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _setup_logging(level_name: str):
    level_name = os.environ.get("XSGOWL_LOG", level_name)
    display = {"quiet": logging.ERROR, "normal": logging.WARNING,
               "verbose": logging.DEBUG}.get(level_name, logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(display)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    logger.handlers = [h for h in logger.handlers
                       if not isinstance(h, logging.StreamHandler)]
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)  # handlers filter; counters see warnings


def _build_parser() -> _Parser:
    parser = _Parser(prog="xsgowl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="XML/XSD sources to OWL ontologies")
    gen.add_argument("inputs", nargs="+", metavar="INPUT")
    gen.add_argument("--out-dir", default=".")
    gen.add_argument("--base-iri", default="http://example.org/onto")
    gen.add_argument("--format", choices=["turtle", "rdfxml", "both"],
                     default="turtle")
    gen.add_argument("--emit-schema", action="store_true")
    gen.add_argument("--emit-dot", action="store_true")
    gen.add_argument("--emit-trace", action="store_true")
    gen.add_argument("--with-instances", action="store_true")
    gen.add_argument("--with-cardinality", action="store_true")
    gen.add_argument("--strict-dl", action="store_true")
    gen.add_argument("--literal-domains", action="store_true")

    inf = sub.add_parser("infer-schema", help="infer an XSD from an XML document")
    gr = sub.add_parser("graph", help="write the schema graph as Graphviz DOT")
    for command in (inf, gr):
        command.add_argument("input", metavar="INPUT")
        command.add_argument("output", metavar="OUTPUT")
    for command in (gen, gr):
        command.add_argument("--input-kind", choices=["xml", "xsd"])
    for command in (gen, inf, gr):
        command.add_argument("--log-level", choices=["quiet", "normal", "verbose"],
                             default="normal")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _setup_logging(args.log_level)
    if args.command == "generate":
        cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
        if (not cfg.base_iri.startswith(("http://", "https://", "urn:", "file://"))
                or _NOT_IN_BASE_IRI.search(cfg.base_iri)):
            logger.error("--base-iri must be absolute, with no space, control "
                         'character or any of #<>"{}|^`\\, got %r', cfg.base_iri)
            return EXIT_USAGE
        return cmd_generate(cfg)
    if args.command == "infer-schema":
        return cmd_infer_schema(args.input, args.output)
    return cmd_graph(args.input, args.output, args.input_kind)


if __name__ == "__main__":
    sys.exit(main())
