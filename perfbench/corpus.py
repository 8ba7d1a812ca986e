"""Seeded source generators for the three benchmark workloads.

Each generator returns the source text together with the inventory the
`generate` summary line must report for it. The inventory is derived from
the structure the generator built, never from xsgowl's own output. A seed
changes names and values but not shape: every name and value has a fixed
length, so two seeds give sources of the same size.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

WIDE_CHILDREN = 2000
RECORDS = 20000
XSD_TYPES = 1000

# xsd shape: chains of derived named types; every CHAIN-th type is a base
XSD_CHAIN = 5
XSD_SIMPLE_TYPES = 40
XSD_GROUPS = 40
XSD_ATTR_GROUPS = 40
XSD_LOCAL_NAMES = 20  # shared local element names, so properties clash
XSD_ATTR_NAMES = 10
XSD_RECURSIVE_EVERY = 40  # tail types that reference their own element
XSD_FORWARD_EVERY = 7  # tail types that reference the next chain's element
SIMPLE_BASES = ("string", "integer", "decimal", "boolean", "date", "token")


@dataclass(frozen=True)
class Inventory:
    classes: int
    object_properties: int
    datatype_properties: int
    individuals: int


@dataclass(frozen=True)
class Source:
    name: str  # file name; its stem is the ontology name
    text: str
    inventory: Inventory


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash with SHA-512, so this is stable across processes
    return random.Random(f"{workload}:{seed}:{index}")


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def wide(seed: int, index: int, n: int = WIDE_CHILDREN) -> Source:
    """A root with n distinct structured children, each holding one
    attribute (same name everywhere) and one distinct leaf child."""
    rng = _rng("wide", seed, index)
    tag = _word(rng, 4)
    attr = f"a{tag}"
    lines = [f"<w{tag}>"]
    for i in range(n):
        child, leaf = f"c{tag}{i:05d}", f"l{tag}{i:05d}"
        lines.append(
            f'<{child} {attr}="{_word(rng, 8)}">'
            f"<{leaf}>{rng.randrange(10000, 100000)}</{leaf}></{child}>"
        )
    lines.append(f"</w{tag}>")
    # classes: root + one per child; object properties: has<child>;
    # datatype properties: one per leaf plus the shared attribute
    inventory = Inventory(n + 1, n, n + 1, n + 1)
    return Source(f"wide{index}.xml", "\n".join(lines) + "\n", inventory)


def records(seed: int, index: int, n: int = RECORDS) -> Source:
    """n `<rec id><name/><val/></rec>` records under one root."""
    rng = _rng("records", seed, index)
    lines = ["<recs>"]
    for k in range(n):
        lines.append(
            f'<rec id="r{k:05d}"><name>{_word(rng, 8)}</name>'
            f"<val>{rng.randrange(10000, 100000)}</val></rec>"
        )
    lines.append("</recs>")
    # classes: recs, rec; object property: hasrec; datatype properties:
    # id, name, val; individuals: the root and one per record
    inventory = Inventory(2, 1, 3, n + 1)
    return Source(f"records{index}.xml", "\n".join(lines) + "\n", inventory)


class _XsdBuilder:
    """Builds the XSD text and, alongside it, the property keys the
    generator must produce under --literal-domains: one property per
    (domain class, property name) pair."""

    def __init__(self, rng: random.Random, n_types: int):
        self.rng = rng
        self.n = n_types
        self.tag = "".join(rng.choice(string.ascii_uppercase) for _ in range(3))
        self.lines = ['<?xml version="1.0" encoding="UTF-8"?>',
                      '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">']
        self.refs = 0  # simple-type references made so far
        self.classes: list[str] = []
        self.object_keys: set[tuple[str, str]] = set()
        self.datatype_keys: set[tuple[str, str]] = set()

    def type_name(self, i: int) -> str:
        return f"T{self.tag}{i:04d}"

    def element_name(self, chain: int) -> str:
        return f"E{self.tag}{chain:03d}"

    def simple_ref(self) -> str:
        # which kind of type is fixed by position (it sets the text's
        # length); only the named type chosen varies with the seed
        self.refs += 1
        if self.refs % 2:
            return f"xs:{SIMPLE_BASES[self.refs // 2 % len(SIMPLE_BASES)]}"
        return f"S{self.tag}{self.rng.randrange(XSD_SIMPLE_TYPES):03d}"

    def tail_of(self, chain: int) -> int:
        return chain * XSD_CHAIN + XSD_CHAIN - 1

    def build(self) -> str:
        chains = self.n // XSD_CHAIN
        out = self.lines
        root = f"R{self.tag}"
        self.classes.append(root)
        out.append(f'  <xs:element name="{root}">')
        out.append("    <xs:complexType>")
        out.append("      <xs:sequence>")
        for c in range(chains):
            occurs = ' minOccurs="0" maxOccurs="unbounded"' if c % 3 else ' maxOccurs="4"'
            out.append(f'        <xs:element ref="{self.element_name(c)}"{occurs}/>')
            self.object_keys.add((root, f"has{self.type_name(self.tail_of(c))}"))
        out.append("      </xs:sequence>")
        out.append("    </xs:complexType>")
        out.append("  </xs:element>")
        for c in range(chains):
            out.append(f'  <xs:element name="{self.element_name(c)}" '
                       f'type="{self.type_name(self.tail_of(c))}"/>')
        for i in range(self.n):
            self.complex_type(i, chains)
        for i in range(XSD_SIMPLE_TYPES):
            out.append(f'  <xs:simpleType name="S{self.tag}{i:03d}">')
            out.append(f'    <xs:restriction base="xs:{SIMPLE_BASES[i % len(SIMPLE_BASES)]}"/>')
            out.append("  </xs:simpleType>")
        for i in range(XSD_GROUPS):
            name = f"G{self.tag}{i:03d}"
            self.classes.append(name)
            out.append(f'  <xs:group name="{name}">')
            out.append("    <xs:sequence>")
            for suffix in "ab":
                member = f"m{i:03d}{suffix}"
                out.append(f'      <xs:element name="{member}" type="{self.simple_ref()}"/>')
                self.datatype_keys.add((name, member))
            out.append("    </xs:sequence>")
            out.append("  </xs:group>")
        for i in range(XSD_ATTR_GROUPS):
            name = f"AG{self.tag}{i:03d}"
            self.classes.append(name)
            out.append(f'  <xs:attributeGroup name="{name}">')
            for suffix in "ab":
                member = f"g{i:03d}{suffix}"
                out.append(f'    <xs:attribute name="{member}" type="{self.simple_ref()}"/>')
                self.datatype_keys.add((name, member))
            out.append("  </xs:attributeGroup>")
        out.append("</xs:schema>")
        return "\n".join(out) + "\n"

    def complex_type(self, i: int, chains: int):
        rng, out = self.rng, self.lines
        name = self.type_name(i)
        self.classes.append(name)
        position, chain = i % XSD_CHAIN, i // XSD_CHAIN
        mixed = ' mixed="true"' if i % 10 == 9 else ""
        out.append(f'  <xs:complexType name="{name}"{mixed}>')
        indent = "    "
        if position:
            kind = "extension" if position % 2 else "restriction"
            out.append("    <xs:complexContent>")
            out.append(f'      <xs:{kind} base="{self.type_name(i - 1)}">')
            indent = "        "
        out.append(f"{indent}<xs:sequence>")
        for j, local in enumerate(rng.sample(range(XSD_LOCAL_NAMES), 2)):
            occurs = ' minOccurs="0"' if (i + j) % 2 else ""
            out.append(f'{indent}  <xs:element name="f{local:02d}"{occurs} '
                       f'type="{self.simple_ref()}"/>')
            self.datatype_keys.add((name, f"f{local:02d}"))
        if i % 5 == 0:  # an inline anonymous type: its own class
            anon = f"d{self.tag}{i:04d}"
            self.classes.append(anon)
            out.append(f'{indent}  <xs:element name="{anon}" maxOccurs="unbounded">')
            out.append(f"{indent}    <xs:complexType>")
            out.append(f"{indent}      <xs:sequence>")
            out.append(f'{indent}        <xs:element name="v" type="xs:string"/>')
            out.append(f"{indent}      </xs:sequence>")
            out.append(f"{indent}    </xs:complexType>")
            out.append(f"{indent}  </xs:element>")
            self.object_keys.add((name, f"has{anon}"))
            self.datatype_keys.add((anon, "v"))
        if position == XSD_CHAIN - 1:
            target = None
            if chain % XSD_RECURSIVE_EVERY == 0:
                target = chain  # a back edge in the schema graph
            elif chain % XSD_FORWARD_EVERY == 3 and chain + 1 < chains:
                target = chain + 1
            if target is not None:
                out.append(f'{indent}  <xs:element ref="{self.element_name(target)}" '
                           f'minOccurs="0"/>')
                self.object_keys.add((name, f"has{self.type_name(self.tail_of(target))}"))
        if i % 4 == 1:
            group = f"G{self.tag}{rng.randrange(XSD_GROUPS):03d}"
            out.append(f'{indent}  <xs:group ref="{group}"/>')
            self.object_keys.add((name, f"has{group}"))
        out.append(f"{indent}</xs:sequence>")
        attr = f"at{rng.randrange(XSD_ATTR_NAMES):02d}"
        out.append(f'{indent}<xs:attribute name="{attr}" type="{self.simple_ref()}"/>')
        self.datatype_keys.add((name, attr))
        if i % 3 == 2:
            group = f"AG{self.tag}{rng.randrange(XSD_ATTR_GROUPS):03d}"
            out.append(f'{indent}<xs:attributeGroup ref="{group}"/>')
            self.object_keys.add((name, f"has{group}"))
        if mixed:
            self.datatype_keys.add((name, "hasTextContent"))
        if position:
            out.append(f"      </xs:{kind}>")
            out.append("    </xs:complexContent>")
        out.append("  </xs:complexType>")


def xsd_back_edges(n: int = XSD_TYPES) -> int:
    return len(range(0, n // XSD_CHAIN, XSD_RECURSIVE_EVERY))


def xsd(seed: int, index: int, n: int = XSD_TYPES) -> Source:
    """A hand-written-style XSD: n named complex types in derivation
    chains, element and attribute groups, named simple types, and global
    element references, a few of them recursive."""
    builder = _XsdBuilder(_rng("xsd", seed, index), n)
    text = builder.build()
    inventory = Inventory(
        len(builder.classes), len(builder.object_keys), len(builder.datatype_keys), 0,
    )
    return Source(f"xsd{index}.xsd", text, inventory)


GENERATORS = {"wide": wide, "records": records, "xsd": xsd}
FULL_SIZE = {"wide": WIDE_CHILDREN, "records": RECORDS, "xsd": XSD_TYPES}


def make_source(workload: str, seed: int, index: int, size: int | None = None) -> Source:
    size = FULL_SIZE[workload] if size is None else size
    return GENERATORS[workload](seed, index, size)
