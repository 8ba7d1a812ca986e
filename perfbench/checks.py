"""Output checks: a source passes only if `generate` exited 0, its summary
line reports the inventory the generator predicted, and the Turtle and
RDF/XML files declare exactly that many classes, properties and
individuals."""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET
from pathlib import Path

from corpus import Inventory

OWL = "{http://www.w3.org/2002/07/owl#}"
_SUMMARY = re.compile(
    r"(?P<stem>\S+): (?P<classes>\d+) classes, (?P<object_properties>\d+) object "
    r"properties, (?P<datatype_properties>\d+) datatype properties, "
    r"(?P<individuals>\d+) individuals, \d+ warnings"
)
_KINDS = {  # inventory field -> (Turtle declaration, RDF/XML element)
    "classes": ("owl:Class", OWL + "Class"),
    "object_properties": ("owl:ObjectProperty", OWL + "ObjectProperty"),
    "datatype_properties": ("owl:DatatypeProperty", OWL + "DatatypeProperty"),
    "individuals": ("owl:NamedIndividual", OWL + "NamedIndividual"),
}
_TTL_DECL = re.compile(r"^:\S+ a (owl:\w+)", re.MULTILINE)


def _ttl_counts(text: str) -> dict[str, int]:
    found: dict[str, int] = {}
    for kind in _TTL_DECL.findall(text):
        found[kind] = found.get(kind, 0) + 1
    return {field: found.get(decl, 0) for field, (decl, _) in _KINDS.items()}


def _rdf_counts(path: Path) -> dict[str, int]:
    # only top-level declarations: anonymous owl:Class nodes inside union
    # domains are not declarations
    root = ET.parse(path).getroot()
    found: dict[str, int] = {}
    for child in root:
        found[child.tag] = found.get(child.tag, 0) + 1
    return {field: found.get(tag, 0) for field, (_, tag) in _KINDS.items()}


def check_source(exit_code: int, stdout: str, stem: str, out_dir: Path,
                 expected: Inventory) -> list[str]:
    """Problems found with one source's run; empty when it passes."""
    if exit_code != 0:
        return [f"{stem}: generate exited {exit_code}"]
    match = _SUMMARY.search(stdout)
    if match is None or match["stem"] != stem:
        return [f"{stem}: no summary line in {stdout!r}"]
    want = vars(expected)
    problems = []
    reported = {field: int(match[field]) for field in _KINDS}
    if reported != want:
        problems.append(f"{stem}: summary reports {reported}, expected {want}")
    ttl = _ttl_counts((out_dir / f"{stem}.ttl").read_text(encoding="utf-8"))
    if ttl != want:
        problems.append(f"{stem}.ttl declares {ttl}, expected {want}")
    rdf = _rdf_counts(out_dir / f"{stem}.rdf")
    if rdf != want:
        problems.append(f"{stem}.rdf declares {rdf}, expected {want}")
    return problems


def digest_outputs(out_dir: Path) -> dict[str, str]:
    """File name -> SHA-256 of every output file, to compare two runs of
    the same source byte for byte."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file()
    }
