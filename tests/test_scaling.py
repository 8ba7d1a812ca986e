"""Deterministic scaling guard for `generate` and `infer-schema`.

Counts the line events the interpreter reports inside the xsgowl package,
plus the package's calls into Python code outside it, while
`cli.main(["generate", ...])` runs on an input of size n and of size 2n.
Linear work doubles the count; a per-component scan of all components
(quadratic work) shows up as a ratio well above 2. Counting events instead
of timing keeps the test independent of machine load.
"""

import os
import sys
from pathlib import Path

import pytest

import xsgowl
from xsgowl import cli
from xsgowl.infer import infer_schema
from xsgowl.owlgen import _PropRecord
from xsgowl.owlmodel import FragmentAllocator
from xsgowl.xmldoc import parse_xml
from xsgowl.xsdmodel import read_schema, serialize_schema
from xsgowl.xsg import build_xsg, is_tree

PACKAGE_DIR = str(Path(xsgowl.__file__).parent) + os.sep
SIZES = (200, 400)
MAX_RATIO = 2.3


def wide_document(n: int) -> str:
    """A root with n distinct structured children, each holding one
    attribute (same name everywhere) and one distinct leaf child."""
    children = "".join(
        f'<c{i:05d} a="v{i:05d}"><l{i:05d}>{10000 + i}</l{i:05d}></c{i:05d}>'
        for i in range(n)
    )
    return f"<wide>{children}</wide>\n"


def item_schema(n: int) -> str:
    """n local `item` elements, each with its own inline type, so n
    classes all want the fragment `item`."""
    members = "".join(
        f'<xs:element name="g{i:05d}"><xs:complexType><xs:sequence>'
        f'<xs:element name="item"><xs:complexType><xs:sequence>'
        f'<xs:element name="v" type="xs:string"/>'
        f"</xs:sequence></xs:complexType></xs:element>"
        f"</xs:sequence></xs:complexType></xs:element>"
        for i in range(n)
    )
    return (
        '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'
        f'<xs:element name="root"><xs:complexType><xs:sequence>{members}'
        "</xs:sequence></xs:complexType></xs:element></xs:schema>\n"
    )


XS_SCHEMA = '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">'


def nested_schema(n: int) -> str:
    """n levels of anonymous element/complexType/sequence nesting."""
    opening = "".join(
        f'<xs:element name="e{i}"><xs:complexType><xs:sequence>' for i in range(n)
    )
    closing = "</xs:sequence></xs:complexType></xs:element>" * n
    return (f'{XS_SCHEMA}{opening}<xs:element name="leaf" type="xs:string"/>'
            f"{closing}</xs:schema>\n")


def type_chain_schema(n: int) -> str:
    """n named types, each holding one element of the next type."""
    types = "".join(
        f'<xs:complexType name="T{i}"><xs:sequence>'
        f'<xs:element name="e" type="T{i + 1}"/></xs:sequence></xs:complexType>'
        for i in range(n)
    )
    return (f'{XS_SCHEMA}<xs:element name="root" type="T0"/>{types}'
            f'<xs:complexType name="T{n}"/></xs:schema>\n')


def derivation_chain_schema(n: int) -> str:
    """n named types, each extending the next."""
    types = "".join(
        f'<xs:complexType name="T{i}"><xs:complexContent>'
        f'<xs:extension base="T{i + 1}"/></xs:complexContent></xs:complexType>'
        for i in range(n)
    )
    return (f'{XS_SCHEMA}<xs:element name="root" type="T0"/>{types}'
            f'<xs:complexType name="T{n}"/></xs:schema>\n')


def records_document(n: int) -> str:
    """n `<rec id><name/><val/></rec>` records under one root: instance
    volume, not schema size, grows."""
    records = "".join(
        f'<rec id="r{i:05d}"><name>n{i:05d}</name><val>{10000 + i}</val></rec>'
        for i in range(n)
    )
    return f"<recs>{records}</recs>\n"


def sparse_records_document(n: int) -> str:
    """n records, each with one child whose name no other record uses, so
    the `rec` profile gains a new optional child on every instance."""
    records = "".join(f"<rec><f{i:05d}>1</f{i:05d}></rec>" for i in range(n))
    return f"<r>{records}</r>\n"


def deep_document(n: int) -> str:
    """n `a` elements, each inside the one before, each with its own id so
    that individual IRIs stay short (path-ordinal names grow with depth)."""
    return "".join(f'<a id="n{i:06d}">' for i in range(n)) + "</a>" * n + "\n"


def work_events(run) -> int:
    """Line events inside the package while `run()` runs, plus the calls
    the package makes into Python code outside it (dataclass-generated
    `__eq__`/`__hash__`, the standard library), where a scan hidden in a
    C-level loop such as `x in some_list` shows up."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename.startswith(PACKAGE_DIR):
            return local
        caller = frame.f_back
        if caller is not None and caller.f_code.co_filename.startswith(PACKAGE_DIR):
            count += 1
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def assert_linear(counts: list[int]):
    ratio = counts[1] / counts[0]
    assert ratio <= MAX_RATIO, f"events {counts[0]} -> {counts[1]}: ratio {ratio:.2f}"


@pytest.mark.parametrize("source, flags", [
    pytest.param(wide_document, ["--with-instances", "--format", "both"],
                 id="wide-instances"),
    pytest.param(wide_document, ["--literal-domains"], id="wide-literal-domains"),
    pytest.param(item_schema, [], id="xsd-items"),
    pytest.param(nested_schema, [], id="xsd-nested"),
    pytest.param(type_chain_schema, [], id="xsd-type-chain"),
    pytest.param(derivation_chain_schema, [], id="xsd-derivation-chain"),
    pytest.param(records_document, ["--with-instances", "--format", "both"],
                 id="records-instances"),
    pytest.param(sparse_records_document, ["--with-instances"],
                 id="sparse-records-instances"),
    pytest.param(deep_document, ["--with-instances", "--format", "both"],
                 id="deep-instances"),
])
def test_generate_work_grows_linearly(tmp_path, source, flags):
    suffix = ".xsd" if source.__name__.endswith("_schema") else ".xml"
    exit_codes = []
    counts = []
    for n in SIZES:
        path = tmp_path / f"in{n}{suffix}"
        path.write_text(source(n))
        argv = ["generate", str(path), "--out-dir", str(tmp_path / f"out{n}")] + flags
        counts.append(work_events(lambda: exit_codes.append(cli.main(argv))))
    assert exit_codes == [0, 0]
    assert_linear(counts)



# Depth: no schema stage recurses (tests/test_no_recursion.py), so neither
# nesting depth nor type-chain length may end in exit 4.

DEEP = 5000
EMIT_ALL = ["--emit-schema", "--emit-dot", "--emit-trace", "--format", "both"]


@pytest.mark.parametrize("source, depth", [
    pytest.param(type_chain_schema, DEEP, id="type-chain"),
    # A nested level's schema path and XSD indentation grow with its depth,
    # so the trace and the XSD grow with depth squared: the trace alone is
    # about a gigabyte at 5000 levels. 1000 levels took 3000 to 4000 Python
    # frames in each recursive schema walk.
    pytest.param(nested_schema, 1000, id="nested"),
])
def test_deep_schema_generates(tmp_path, source, depth):
    path = tmp_path / "deep.xsd"
    path.write_text(source(depth))
    out = tmp_path / "out"
    assert cli.main(["generate", str(path), "--out-dir", str(out), *EMIT_ALL]) == 0
    # compared as text: the dataclass `__eq__` of a deep model recurses
    text = serialize_schema(read_schema(path.read_bytes(), "deep"))
    assert (out / "deep.xsd").read_text() == text
    assert serialize_schema(read_schema(text.encode(), "deep")) == text


@pytest.mark.parametrize("source", [type_chain_schema, nested_schema],
                         ids=["type-chain", "nested"])
def test_deep_schema_graph(tmp_path, source):
    path = tmp_path / "deep.xsd"
    path.write_text(source(DEEP))
    assert cli.main(["graph", str(path), str(tmp_path / "deep.dot")]) == 0
    assert (tmp_path / "deep.dot").read_text().count("->") >= 2 * DEEP


# Nor may the depth of an instance document: validation and population
# share one explicit-stack pass (`xsdmodel.check_instances`).


@pytest.mark.parametrize("document", [
    # the `<a>`-in-`<a>` shape that once ran out of frames at 1000 levels;
    # without ids each IRI is the path, so the output grows with depth squared
    pytest.param(lambda: "<a>" * 2000 + "</a>" * 2000 + "\n", id="2000"),
    pytest.param(lambda: deep_document(100000), id="100000"),
])
def test_deep_document_populates(tmp_path, document):
    limit = sys.getrecursionlimit()
    path = tmp_path / "deep.xml"
    path.write_text(document())
    out = tmp_path / "out"
    argv = ["generate", str(path), "--out-dir", str(out), "--with-instances",
            "--format", "both"]
    assert cli.main(argv) == 0
    assert sys.getrecursionlimit() == limit
    depth = path.read_text().count("</a>")
    assert (out / "deep.ttl").read_text().count("owl:NamedIndividual") == depth


def test_infer_schema_many_optional_children_grows_linearly(tmp_path):
    # inference alone: in `generate` the rest of the pipeline hides its share
    exit_codes = []
    counts = []
    for n in SIZES:
        path = tmp_path / f"in{n}.xml"
        path.write_text(sparse_records_document(n))
        argv = ["infer-schema", str(path), str(tmp_path / f"out{n}.xsd")]
        counts.append(work_events(lambda: exit_codes.append(cli.main(argv))))
    assert exit_codes == [0, 0]
    assert_linear(counts)


# Below, one component each, driven on its own: a scan in it would cost
# too little next to the rest of `generate` to move the ratios above, or
# `generate` does not call it at all (`is_tree`).


def test_is_tree_grows_linearly():
    graphs = [build_xsg(infer_schema([parse_xml(wide_document(n).encode(), "w")]))
              for n in SIZES]
    assert_linear([work_events(lambda: is_tree(g)) for g in graphs])


def test_fragment_allocator_shared_label_grows_linearly():
    def allocate(n):
        alloc = FragmentAllocator("class")
        for _ in range(n):
            alloc.allocate("item")

    assert_linear([work_events(lambda: allocate(n)) for n in (1000, 2000)])


def test_property_record_shared_name_grows_linearly():
    def merge(n):
        rec = _PropRecord("a", "c0", "r", None, "p", "rule")
        for i in range(1, n):
            rec.add(f"c{i}", "r", None, "p")

    assert_linear([work_events(lambda: merge(n)) for n in (1000, 2000)])
