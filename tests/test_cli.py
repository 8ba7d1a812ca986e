import gc
import os
import re
import shutil
import subprocess
import weakref

import pytest

from xsgowl.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_USAGE,
    RunConfig,
    cmd_generate,
    cmd_graph,
    cmd_infer_schema,
    main,
)
from triples import entity_inventory, parse_rdfxml, parse_turtle


def run(argv):
    return main(argv)


def test_generate_golden(tmp_path, data_dir, capsys):
    code = run([
        "generate", str(data_dir / "bibliography.xml"),
        "--base-iri", "http://example.org/onto",
        "--out-dir", str(tmp_path),
        "--emit-trace",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "4 classes, 3 object properties, 7 datatype properties" in out
    ttl = (tmp_path / "bibliography.ttl").read_text()
    inventory = entity_inventory(parse_turtle(ttl))
    assert len(inventory["classes"]) == 4
    assert len(inventory["object_properties"]) == 3
    assert len(inventory["datatype_properties"]) == 7
    trace = (tmp_path / "bibliography.trace.tsv").read_text()
    assert len(trace.splitlines()) == 14


def test_generate_all_outputs(tmp_path, data_dir):
    code = run([
        "generate", str(data_dir / "bibliography.xml"),
        "--out-dir", str(tmp_path),
        "--format", "both",
        "--emit-schema", "--emit-dot", "--emit-trace", "--with-instances",
    ])
    assert code == EXIT_OK
    for suffix in (".ttl", ".rdf", ".xsd", ".dot", ".trace.tsv"):
        assert (tmp_path / f"bibliography{suffix}").exists(), suffix


def test_generate_two_sources_no_merge(tmp_path, data_dir):
    a = tmp_path / "a.xml"
    b = tmp_path / "b.xml"
    a.write_bytes(b"<r><xray>1</xray></r>")
    b.write_bytes(b"<s><bravo>hi</bravo></s>")
    code = run(["generate", str(a), str(b), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_OK
    ttl_a = (tmp_path / "out" / "a.ttl").read_text()
    ttl_b = (tmp_path / "out" / "b.ttl").read_text()
    assert "onto/a#" in ttl_a and "onto/b#" in ttl_b
    assert "bravo" in ttl_b and "bravo" not in ttl_a


def test_per_source_isolation(tmp_path, data_dir):
    solo = tmp_path / "solo"
    pair = tmp_path / "pair"
    extra = tmp_path / "extra.xml"
    extra.write_bytes(b"<other><z>3</z></other>")
    assert run(["generate", str(data_dir / "bibliography.xml"),
                "--out-dir", str(solo)]) == EXIT_OK
    assert run(["generate", str(data_dir / "bibliography.xml"), str(extra),
                "--out-dir", str(pair)]) == EXIT_OK
    assert (solo / "bibliography.ttl").read_bytes() == \
        (pair / "bibliography.ttl").read_bytes()


def test_generate_deterministic(tmp_path, data_dir):
    first = tmp_path / "first"
    second = tmp_path / "second"
    argv = ["generate", str(data_dir / "bibliography.xml"),
            "--format", "both", "--emit-schema", "--emit-dot", "--emit-trace",
            "--with-instances"]
    assert run(argv + ["--out-dir", str(first)]) == EXIT_OK
    assert run(argv + ["--out-dir", str(second)]) == EXIT_OK
    for name in ("bibliography.ttl", "bibliography.rdf", "bibliography.xsd",
                 "bibliography.dot", "bibliography.trace.tsv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_missing_input_exit_2(tmp_path, capsys):
    code = run(["generate", str(tmp_path / "missing.xml"),
                "--out-dir", str(tmp_path)])
    assert code == EXIT_PARSE
    assert "missing.xml" in capsys.readouterr().err


def test_malformed_xml_exit_2(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"<a><b></a>")
    assert run(["generate", str(bad), "--out-dir", str(tmp_path)]) == EXIT_PARSE


def test_unsupported_construct_exit_3(tmp_path, capsys):
    bad = tmp_path / "choice.xsd"
    bad.write_bytes(b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a"><xs:complexType><xs:sequence>
        <xs:choice/>
      </xs:sequence></xs:complexType></xs:element>
    </xs:schema>""")
    code = run(["generate", str(bad), "--out-dir", str(tmp_path)])
    assert code == EXIT_SCHEMA
    assert "choice" in capsys.readouterr().err


def test_invalid_document_exit_4(tmp_path, monkeypatch, capsys):
    # generate validates a document only against the schema inferred from
    # it, so a document that fails there is a bug in inference
    import xsgowl.cli as cli_module
    from xsgowl.xsdmodel import read_schema
    strict = read_schema(b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="r"><xs:complexType><xs:sequence>
        <xs:element name="b" type="xs:integer"/>
      </xs:sequence></xs:complexType></xs:element>
    </xs:schema>""", "strict")
    monkeypatch.setattr(cli_module, "infer_schema", lambda docs: strict)
    src = tmp_path / "r.xml"
    src.write_bytes(b"<r><a>1</a></r>")
    code = run(["generate", str(src), "--out-dir", str(tmp_path),
                "--with-instances"])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error while processing" in err and "does not validate" in err


def test_namespace_declaration_is_not_an_id(tmp_path):
    # xmlns:id declares a prefix; it is no id attribute to name individuals by
    src = tmp_path / "r.xml"
    src.write_bytes(b'<r><rec xmlns:id="urn:a"><v>1</v></rec>'
                    b'<rec xmlns:id="urn:a"><v>2</v></rec></r>')
    code = run(["generate", str(src), "--out-dir", str(tmp_path),
                "--with-instances"])
    assert code == EXIT_OK
    ttl = (tmp_path / "r.ttl").read_text()
    assert ":r_1.rec_1 " in ttl and ":r_1.rec_2 " in ttl
    assert "urn_a" not in ttl


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate"])  # missing inputs
    assert exc.value.code == EXIT_USAGE


def test_relative_base_iri_rejected(tmp_path, data_dir):
    code = run(["generate", str(data_dir / "bibliography.xml"),
                "--out-dir", str(tmp_path), "--base-iri", "not-absolute"])
    assert code == EXIT_USAGE


def test_failure_does_not_stop_other_sources(tmp_path, data_dir, capsys):
    code = run(["generate", str(tmp_path / "nope.xml"),
                str(data_dir / "bibliography.xml"), "--out-dir", str(tmp_path)])
    assert code == EXIT_PARSE  # first failure wins
    assert (tmp_path / "bibliography.ttl").exists()  # second still processed


def test_xsd_input_skips_inference(tmp_path, data_dir):
    code = run(["generate", str(data_dir / "bibliography.xsd"),
                "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "bibliography.ttl").exists()


def test_with_instances_on_xsd_warns(tmp_path, data_dir, capsys):
    code = run(["generate", str(data_dir / "bibliography.xsd"),
                "--out-dir", str(tmp_path), "--with-instances"])
    assert code == EXIT_OK
    assert "no effect" in capsys.readouterr().err


def test_unknown_extension_needs_input_kind(tmp_path, data_dir, capsys):
    mystery = tmp_path / "data.txt"
    mystery.write_bytes((data_dir / "bibliography.xml").read_bytes())
    assert run(["generate", str(mystery),
                "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert run(["generate", str(mystery), "--input-kind", "xml",
                "--out-dir", str(tmp_path)]) == EXIT_OK


def test_literal_domains_flag(tmp_path, data_dir):
    code = run(["generate", str(data_dir / "bibliography.xml"),
                "--out-dir", str(tmp_path), "--literal-domains"])
    assert code == EXIT_OK
    inventory = entity_inventory(
        parse_turtle((tmp_path / "bibliography.ttl").read_text())
    )
    assert len(inventory["datatype_properties"]) == 8


def test_with_cardinality_flag(tmp_path, data_dir):
    code = run(["generate", str(data_dir / "bibliography.xml"),
                "--out-dir", str(tmp_path), "--with-cardinality"])
    assert code == EXIT_OK
    ttl = (tmp_path / "bibliography.ttl").read_text()
    assert "owl:minCardinality" in ttl


def test_infer_schema_command(tmp_path, data_dir):
    out = tmp_path / "out.xsd"
    code = run(["infer-schema", str(data_dir / "bibliography.xml"), str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == (data_dir / "bibliography.xsd").read_bytes()


def test_infer_schema_single_empty_element(tmp_path):
    src = tmp_path / "one.xml"
    src.write_bytes(b"<a/>")
    out = tmp_path / "one.xsd"
    assert run(["infer-schema", str(src), str(out)]) == EXIT_OK
    text = out.read_text()
    assert '<xs:element name="a">' in text
    assert "<xs:complexType/>" in text


def test_infer_schema_malformed_exit_2(tmp_path):
    src = tmp_path / "bad.xml"
    src.write_bytes(b"<a>")
    assert run(["infer-schema", str(src), str(tmp_path / "o.xsd")]) == EXIT_PARSE


def test_graph_command_counts(tmp_path, data_dir):
    out = tmp_path / "g.dot"
    code = run(["graph", str(data_dir / "bibliography.xsd"), str(out)])
    assert code == EXIT_OK
    dot = out.read_text()
    assert len(re.findall(r"^\s*v\d+ \[label=", dot, re.M)) == 16
    assert len(re.findall(r"^\s*v\d+ -> v\d+", dot, re.M)) == 15


def test_graph_from_xml(tmp_path, data_dir):
    out = tmp_path / "g.dot"
    assert run(["graph", str(data_dir / "bibliography.xml"), str(out)]) == EXIT_OK
    dot = out.read_text()
    assert len(re.findall(r"^\s*v\d+ \[label=", dot, re.M)) == 16


def test_graph_recursive_dashed(tmp_path):
    src = tmp_path / "rec.xsd"
    src.write_bytes(b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="part">
        <xs:complexType><xs:sequence>
          <xs:element minOccurs="0" ref="part"/>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:schema>""")
    out = tmp_path / "rec.dot"
    assert run(["graph", str(src), str(out)]) == EXIT_OK
    assert out.read_text().count("style=dashed") == 1


def test_graph_unsupported_construct_exit_3(tmp_path, capsys):
    src = tmp_path / "all.xsd"
    src.write_bytes(b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a"><xs:complexType><xs:sequence>
        <xs:all/>
      </xs:sequence></xs:complexType></xs:element>
    </xs:schema>""")
    code = run(["graph", str(src), str(tmp_path / "o.dot")])
    assert code == EXIT_SCHEMA
    assert "all" in capsys.readouterr().err


def test_env_var_overrides_log_level(tmp_path, data_dir, monkeypatch, capsys):
    monkeypatch.setenv("XSGOWL_LOG", "quiet")
    code = run(["generate", str(data_dir / "bibliography.xsd"),
                "--out-dir", str(tmp_path), "--with-instances",
                "--log-level", "verbose"])
    assert code == EXIT_OK
    assert "no effect" not in capsys.readouterr().err  # warning suppressed


def test_internal_error_exit_4(tmp_path, data_dir, monkeypatch):
    import xsgowl.cli as cli_module
    def boom(_):
        raise RuntimeError("invariant breached")
    monkeypatch.setattr(cli_module, "check_dl_profile", boom)
    code = run(["generate", str(data_dir / "bibliography.xml"),
                "--out-dir", str(tmp_path), "--log-level", "quiet"])
    assert code == 4


UNSUPPORTED_XSD = b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a"><xs:complexType><xs:sequence>
    <xs:choice/>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>"""


@pytest.mark.parametrize("command, failure, code, message", [
    ("generate", "missing", EXIT_PARSE, "cannot read"),
    ("infer-schema", "missing", EXIT_PARSE, "cannot read"),
    ("graph", "missing", EXIT_PARSE, "cannot read"),
    ("generate", "malformed", EXIT_PARSE, "bad.xml: "),
    ("infer-schema", "malformed", EXIT_PARSE, "bad.xml: "),
    ("graph", "malformed", EXIT_PARSE, "bad.xml: "),
    ("generate", "unsupported", EXIT_SCHEMA, "choice.xsd: "),
    ("graph", "unsupported", EXIT_SCHEMA, "choice.xsd: "),
    ("generate", "stem with a space", EXIT_OK, ""),
    ("generate", "stem not UTF-8", EXIT_USAGE, "is not valid UTF-8"),
    ("generate", "base IRI with a space", EXIT_USAGE, "--base-iri"),
    ("generate", "base IRI with a fragment", EXIT_USAGE, "--base-iri"),
])
def test_exit_code_per_subcommand_and_failure(tmp_path, capsys, command, failure,
                                              code, message):
    src = {"missing": tmp_path / "missing.xml", "malformed": tmp_path / "bad.xml",
           "unsupported": tmp_path / "choice.xsd",
           "stem with a space": tmp_path / "a b.xml",
           "stem not UTF-8": tmp_path / os.fsdecode(b"x\xff.xml"),
           }.get(failure, tmp_path / "r.xml")
    if failure == "malformed":
        src.write_bytes(b"<a><b></a>")
    elif failure == "unsupported":
        src.write_bytes(UNSUPPORTED_XSD)
    elif failure != "missing":
        src.write_bytes(b"<r><a>1</a></r>")
    base_iri = {"base IRI with a space": "http://example.org/a b",
                "base IRI with a fragment": "http://example.org/a#"}.get(failure)
    if command == "generate":
        argv = [command, str(src), "--out-dir", str(tmp_path / "out")]
        argv += ["--base-iri", base_iri] if base_iri else []
    else:
        argv = [command, str(src), str(tmp_path / "out.txt")]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    for turtle in (tmp_path / "out").glob("*.ttl"):  # IRIs a Turtle parser accepts
        parse_turtle(turtle.read_text(encoding="utf-8"))


def test_plain_value_error_is_internal(tmp_path, data_dir, monkeypatch, capsys):
    # a ValueError from the model check is a bug, whatever its message
    import xsgowl.cli as cli_module
    def boom(*args):
        raise ValueError("range of p is not a declared class")
    monkeypatch.setattr(cli_module, "populate", boom)
    code = run(["generate", str(data_dir / "bibliography.xml"),
                "--out-dir", str(tmp_path), "--with-instances"])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error while processing" in err and "Traceback" in err


def test_turtle_and_rdfxml_agree(tmp_path, data_dir):
    run(["generate", str(data_dir / "bibliography.xml"),
         "--out-dir", str(tmp_path), "--format", "both", "--with-instances"])
    turtle = parse_turtle((tmp_path / "bibliography.ttl").read_text())
    rdfxml = parse_rdfxml((tmp_path / "bibliography.rdf").read_text())
    assert turtle == rdfxml


def test_console_script_installed(tmp_path, data_dir):
    exe = shutil.which("xsgowl")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "generate", str(data_dir / "bibliography.xml"),
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "4 classes" in proc.stdout


def test_api_entry_points(tmp_path, data_dir):
    cfg = RunConfig(inputs=[str(data_dir / "bibliography.xml")],
                    out_dir=str(tmp_path))
    assert cmd_generate(cfg) == EXIT_OK
    assert cmd_infer_schema(str(data_dir / "bibliography.xml"),
                            str(tmp_path / "i.xsd")) == EXIT_OK
    assert cmd_graph(str(data_dir / "bibliography.xsd"),
                     str(tmp_path / "g.dot")) == EXIT_OK


def test_stage_data_freed_after_last_consumer(tmp_path, data_dir, monkeypatch):
    # With the collector off only reference counts free a stage's data, so
    # whatever a later stage finds alive is still referenced by the pipeline.
    import xsgowl.cli as cli_module
    import xsgowl.owlgen as owlgen_module

    refs: dict[str, weakref.ref] = {}
    dead_at: dict[str, dict[str, bool]] = {}

    def keep(stage, name, pick=lambda args, result: result):
        real = getattr(cli_module, stage)

        def wrapper(*args):
            result = real(*args)
            refs[name] = weakref.ref(pick(args, result))
            return result
        monkeypatch.setattr(cli_module, stage, wrapper)

    def check(module, stage, names):
        real = getattr(module, stage)

        def wrapper(*args, **kwargs):
            dead_at[stage] = {name: refs[name]() is None for name in names}
            return real(*args, **kwargs)
        monkeypatch.setattr(module, stage, wrapper)

    keep("parse_xml", "document")
    keep("infer_schema", "schema")
    keep("build_xsg", "graph")
    # not from generate_tbox: a wrapper there would hold the graph, its
    # argument, until the call returns
    keep("write_trace", "trace", pick=lambda args, result: args[0])
    every = ["document", "schema", "graph", "trace"]
    check(owlgen_module, "OntologyModel", ["graph"])  # the TBox, built once
    check(cli_module, "populate", ["graph"])
    check(cli_module, "serialize_turtle", every)
    check(cli_module, "serialize_rdfxml", every)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = run(["generate", str(data_dir / "bibliography.xml"),
                    "--out-dir", str(tmp_path), "--with-instances",
                    "--format", "both", "--emit-dot", "--emit-trace"])
    finally:
        if was_enabled:
            gc.enable()
    assert code == EXIT_OK
    assert dead_at == {
        "OntologyModel": {"graph": True},
        "populate": {"graph": True},
        "serialize_turtle": dict.fromkeys(every, True),
        "serialize_rdfxml": dict.fromkeys(every, True),
    }


def test_inputs_sharing_a_stem_rejected(tmp_path, data_dir, capsys):
    xml = str(data_dir / "bibliography.xml")
    xsd = str(data_dir / "bibliography.xsd")
    code = run(["generate", xml, xsd, "--out-dir", str(tmp_path / "out"),
                "--with-instances", "--format", "both"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert xml in captured.err and xsd in captured.err
    assert not (tmp_path / "out").exists()  # nothing processed


def test_output_mode_follows_umask(tmp_path, data_dir):
    old = os.umask(0o022)
    try:
        code = run(["generate", str(data_dir / "bibliography.xml"),
                    "--out-dir", str(tmp_path), "--format", "both"])
    finally:
        os.umask(old)
    assert code == EXIT_OK
    for name in ("bibliography.ttl", "bibliography.rdf"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name


def test_failed_write_leaves_no_temporary_file(tmp_path):
    from xsgowl.cli import _atomic_write
    target = tmp_path / "out.ttl"
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(target, "a lone surrogate \ud800 cannot be encoded")
    assert list(tmp_path.iterdir()) == []


def test_generate_never_changes_the_umask(tmp_path, data_dir, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "umask", lambda *args: calls.append(args))
    code = run(["generate", str(data_dir / "bibliography.xml"),
                "--out-dir", str(tmp_path), "--format", "both",
                "--emit-schema", "--emit-dot", "--emit-trace"])
    assert code == EXIT_OK
    assert calls == []


def _file_in_the_way(tmp_path, data_dir):
    (tmp_path / "taken").write_bytes(b"")
    return (["generate", str(data_dir / "bibliography.xml"),
             "--out-dir", str(tmp_path / "taken")], tmp_path / "taken")


def _schema_into_missing_dir(tmp_path, data_dir):
    out = tmp_path / "nodir" / "x.xsd"
    return ["infer-schema", str(data_dir / "bibliography.xml"), str(out)], out


def _graph_into_missing_dir(tmp_path, data_dir):
    out = tmp_path / "nodir" / "x.dot"
    return ["graph", str(data_dir / "bibliography.xml"), str(out)], out


def _directory_in_the_way(tmp_path, data_dir):
    (tmp_path / "bibliography.ttl").mkdir()
    return (["generate", str(data_dir / "bibliography.xml"),
             "--out-dir", str(tmp_path)], tmp_path / "bibliography.ttl")


@pytest.mark.parametrize("case", [_file_in_the_way, _schema_into_missing_dir,
                                  _graph_into_missing_dir, _directory_in_the_way])
def test_unwritable_output_exit_1(tmp_path, data_dir, capsys, case):
    argv, path = case(tmp_path, data_dir)
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.rglob(".*")) == []  # no temporary file left


def test_library_warnings_name_their_source(tmp_path, capsys):
    mixed = tmp_path / "mixed.xml"
    mixed.write_bytes(b"<r><x>text</x><x><y/></x></r>")
    two_roots = tmp_path / "roots.xsd"
    two_roots.write_bytes(b"""<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="a" type="xs:string"/>
      <xs:element name="b" type="xs:string"/>
    </xs:schema>""")
    code = run(["generate", str(mixed), str(two_roots),
                "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    merge = [line for line in err if "text leaf" in line]
    roots = [line for line in err if "multiple roots" in line]
    assert merge == [f"WARNING {mixed}: element 'x' is both structured and a "
                     f"text leaf; merging into a mixed complex profile"]
    assert roots == [f"WARNING {two_roots}: 2 unreferenced global elements; "
                     f"graph has multiple roots"]


@pytest.mark.parametrize("flags", [[], ["--literal-domains"]], ids=["union", "literal"])
def test_element_named_like_an_object_property_is_renamed(tmp_path, capsys, flags):
    # hasFoo is both Foo's object property and an element's name; OWL 2 DL
    # forbids one IRI as both kinds of property
    src = tmp_path / "r.xml"
    src.write_bytes(b"<r><Foo><x>1</x></Foo><hasFoo>2</hasFoo></r>")
    code = run(["generate", str(src), "--out-dir", str(tmp_path), "--format", "both",
                "--with-instances", *flags])
    assert code == EXIT_OK
    out, err = capsys.readouterr()
    assert out.endswith("2 individuals, 1 warnings\n")
    assert err == "WARNING r: datatype property name 'hasFoo' already used; " \
                  "renamed to hasFoo_2\n"
    base = "http://example.org/onto/r#"
    triples = parse_turtle((tmp_path / "r.ttl").read_text())
    assert triples == parse_rdfxml((tmp_path / "r.rdf").read_text())
    inventory = entity_inventory(triples)
    assert inventory["object_properties"] == {base + "hasFoo"}
    assert inventory["datatype_properties"] == {base + "hasFoo_2", base + "x"}
    # population resolves each assertion to its own property
    individual = base + "r_1"
    assert {(p, o) for s, p, o in triples if s == individual and p.startswith(base)} \
        == {(base + "hasFoo", base + "r_1.Foo_1"),
            (base + "hasFoo_2", ("lit", "2", "http://www.w3.org/2001/XMLSchema#integer"))}


def test_qualified_property_name_equal_to_another_is_renamed(tmp_path, capsys):
    # under --literal-domains hasY is qualified as hasX.hasY, the name of
    # the property to class X.hasY
    src = tmp_path / "c.xml"
    src.write_bytes(b"<r><hasX><Y><a>1</a></Y></hasX><Z><Y><a>2</a></Y></Z>"
                    b"<X.hasY><b>1</b></X.hasY></r>")
    code = run(["generate", str(src), "--out-dir", str(tmp_path), "--format", "both",
                "--with-instances", "--literal-domains"])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ("WARNING c: object property name 'hasX.hasY' "
                                       "already used; renamed to hasX.hasY_2\n")
    base = "http://example.org/onto/c#"
    triples = parse_turtle((tmp_path / "c.ttl").read_text())
    assert triples == parse_rdfxml((tmp_path / "c.rdf").read_text())
    assert (base + "r_1", base + "hasX.hasY", base + "r_1.X.hasY_1") in triples
    assert (base + "r_1.hasX_1", base + "hasX.hasY_2", base + "r_1.hasX_1.Y_1") in triples
