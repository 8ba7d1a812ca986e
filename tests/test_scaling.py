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
from xsgowl.owlmodel import FragmentAllocator, Iri
from xsgowl.xmldoc import parse_xml
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
    pytest.param(records_document, ["--with-instances", "--format", "both"],
                 id="records-instances"),
    pytest.param(sparse_records_document, ["--with-instances"],
                 id="sparse-records-instances"),
])
def test_generate_work_grows_linearly(tmp_path, source, flags):
    suffix = ".xsd" if source is item_schema else ".xml"
    exit_codes = []
    counts = []
    for n in SIZES:
        path = tmp_path / f"in{n}{suffix}"
        path.write_text(source(n))
        argv = ["generate", str(path), "--out-dir", str(tmp_path / f"out{n}")] + flags
        counts.append(work_events(lambda: exit_codes.append(cli.main(argv))))
    assert exit_codes == [0, 0]
    assert_linear(counts)



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
        rec = _PropRecord("a", Iri("b", "c0"), "r", None, "p", "rule")
        for i in range(1, n):
            rec.add(Iri("b", f"c{i}"), "r", None, "p")

    assert_linear([work_events(lambda: merge(n)) for n in (1000, 2000)])
