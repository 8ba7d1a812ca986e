"""Independent triple readers for the Turtle and RDF/XML the writers emit.

Deliberately not built on the package's serializers: these parse the
concrete syntaxes back into one canonical triple representation so the
two outputs can be compared against each other. Blank nodes only occur
as objects (union classes, restrictions), so they canonicalize to nested
structures; RDF collections become ("list", items); literals become
("lit", value, datatype) with plain literals normalized to xsd:string.
The Turtle reader also rejects an IRI or a prefixed name that the Turtle
grammar does not allow.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

_TOKEN = re.compile(
    r'"((?:[^"\\]|\\.)*)"(\^\^\S+)?'  # literal with optional datatype
    r"|<[^>]*>"                        # IRI
    r"|\S+"                            # everything else
)

# Turtle's IRIREF, and the local part of a prefixed name (PN_LOCAL)
_IRIREF = re.compile(r'<[^\x00-\x20<>"{}|^`\\]*>')
_PN_CHARS_U = ("A-Za-z_\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u02ff\u0370-\u037d"
               "\u037f-\u1fff\u200c-\u200d\u2070-\u218f\u2c00-\u2fef"
               "\u3001-\ud7ff\uf900-\ufdcf\ufdf0-\ufffd\U00010000-\U000effff")
_PN_CHARS = _PN_CHARS_U + "\\-0-9\u00b7\u0300-\u036f\u203f-\u2040"
_PLX = r"%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%]"
_PN_LOCAL = re.compile(
    f"(?:[{_PN_CHARS_U}:0-9]|{_PLX})"
    f"(?:(?:[{_PN_CHARS}.:]|{_PLX})*(?:[{_PN_CHARS}:]|{_PLX}))?"
)

_UNESCAPE = {"\\\\": "\\", '\\"': '"', "\\n": "\n", "\\r": "\r", "\\t": "\t"}


def _unescape(s: str) -> str:
    return re.sub(r"\\.", lambda m: _UNESCAPE.get(m.group(0), m.group(0)), s)


def parse_turtle(text: str) -> set:
    return set(turtle_statements(text))


def turtle_statements(text: str) -> list:
    """Every triple the Turtle text states, in order, repeats included: a
    graph is a set, but what a writer wrote twice was asserted twice."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(1) is not None:
            tokens.append(("lit-token", _unescape(m.group(1)), m.group(2)))
        else:
            tokens.append(m.group(0))

    prefixes: dict[str, str] = {}
    triples: list = []
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def resolve(tok) -> str:
        if isinstance(tok, tuple):
            raise ValueError(f"literal used as IRI: {tok}")
        if tok.startswith("<"):
            assert _IRIREF.fullmatch(tok), f"not an IRIREF: {tok!r}"
            return tok[1:-1]
        if tok == "a":
            return RDF + "type"
        prefix, _, local = tok.partition(":")
        assert not local or _PN_LOCAL.fullmatch(local), f"not a local name: {tok!r}"
        return prefixes[prefix] + local

    def obj_term():
        tok = take()
        if isinstance(tok, tuple):
            _, value, dt = tok
            datatype = resolve(dt[2:]) if dt else XSD_STRING
            return ("lit", value, datatype)
        if tok == "[":
            pairs = []
            while peek() != "]":
                pred = resolve(take())
                pairs.append((pred, obj_term()))
                if peek() == ";":
                    take()
            take()  # ]
            return ("bnode", frozenset(pairs))
        if tok == "(":
            items = []
            while peek() != ")":
                items.append(obj_term())
            take()  # )
            return ("list", tuple(items))
        return resolve(tok)

    while pos < len(tokens):
        tok = take()
        if tok == "@prefix":
            name = take()
            iri = resolve(take())
            assert take() == "."
            prefixes[name[:-1]] = iri
            continue
        subject = resolve(tok)
        while True:
            predicate = resolve(take())
            while True:
                triples.append((subject, predicate, obj_term()))
                if peek() == ",":
                    take()
                    continue
                break
            tok = take()
            if tok == ".":
                break
            assert tok == ";", f"unexpected token {tok!r}"
    return triples


def parse_rdfxml(text: str) -> set:
    triples: set = set()
    root = ET.fromstring(text)
    assert root.tag == f"{{{RDF}}}RDF"

    def split(tag: str) -> str:
        ns, _, local = tag[1:].partition("}")
        return ns + local

    def node_pairs(el) -> list:
        """(predicate, object) pairs of one node element, including the
        type implied by a non-Description tag."""
        pairs = []
        tag_iri = split(el.tag)
        if tag_iri != RDF + "Description":
            pairs.append((RDF + "type", tag_iri))
        for prop in el:
            predicate = split(prop.tag)
            resource = prop.get(f"{{{RDF}}}resource")
            datatype = prop.get(f"{{{RDF}}}datatype")
            parse_type = prop.get(f"{{{RDF}}}parseType")
            children = list(prop)
            if resource is not None:
                pairs.append((predicate, resource))
            elif parse_type == "Collection":
                items = tuple(c.get(f"{{{RDF}}}about") for c in children)
                pairs.append((predicate, ("list", items)))
            elif children:
                assert len(children) == 1
                pairs.append((predicate, ("bnode", frozenset(node_pairs(children[0])))))
            else:
                pairs.append((predicate, ("lit", prop.text or "", datatype or XSD_STRING)))
        return pairs

    for el in root:
        about = el.get(f"{{{RDF}}}about")
        for predicate, obj in node_pairs(el):
            triples.add((about, predicate, obj))
    return triples


OWL = "http://www.w3.org/2002/07/owl#"


def entity_inventory(triples: set) -> dict[str, set]:
    """Named entities per category, read off rdf:type triples."""
    inventory = {"classes": set(), "object_properties": set(),
                 "datatype_properties": set(), "individuals": set()}
    categories = {
        OWL + "Class": "classes",
        OWL + "ObjectProperty": "object_properties",
        OWL + "DatatypeProperty": "datatype_properties",
        OWL + "NamedIndividual": "individuals",
    }
    for s, p, o in triples:
        if p == RDF + "type" and isinstance(o, str) and o in categories:
            if isinstance(s, str):
                inventory[categories[o]].add(s)
    return inventory
