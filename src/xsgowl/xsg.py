"""Schema graph: a design-style-neutral view over schema components.

Vertices cover every element declaration, every attribute declaration,
every non-primitive type (named or anonymous, complex or schema-defined
simple) and every element/attribute group. Edges run from elements to
their non-primitive types and from types/groups to their members;
references to groups also get a member edge so the group stays reachable.

The graph of a recursion-free schema is acyclic; recursive schemas are
handled by marking the closing edge of each cycle as a back edge, which
downstream traversal excludes.

A graph is read-only once `build_xsg` returns it. Its out-adjacency and
in-degrees are derived from the edge list once, on first use, and shared
by the builder's own traversals, the TBox generator and `is_tree`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

from .xsdmodel import (
    AttrGroupDecl,
    BuiltinRef,
    ComplexType,
    ElementDecl,
    GroupDecl,
    NamedTypeRef,
    SchemaModel,
)

logger = logging.getLogger("xsgowl.xsg")

ELEMENT = "element"
ATTRIBUTE = "attribute"
COMPLEX_TYPE = "complex-type"
SIMPLE_TYPE = "simple-type"
ELEMENT_GROUP = "element-group"
ATTRIBUTE_GROUP = "attribute-group"

EDGE_ELEMENT_TYPE = "element-type"
EDGE_MEMBER = "member"

_SHAPES = {
    ELEMENT: "ellipse",
    ATTRIBUTE: "diamond",
    COMPLEX_TYPE: "box",
    SIMPLE_TYPE: "box",
    ELEMENT_GROUP: "hexagon",
    ATTRIBUTE_GROUP: "hexagon",
}


class EmptySchema(Exception):
    """The schema declares no global element, so there is no graph root."""


@dataclass(frozen=True)
class XsgVertex:
    id: int
    kind: str
    label: str
    schema_ref: object = field(compare=False, default=None)


@dataclass(frozen=True)
class XsgEdge:
    id: int
    src: int
    dst: int
    kind: str
    occurs: tuple[int, int | None] | None = None
    schema_ref: object = field(compare=False, default=None)


@dataclass
class SchemaGraph:
    """Vertex ids are list positions in `vertices`, edge ids in `edges`.
    Read-only after `build_xsg`: the adjacency and in-degrees below are
    derived once and never refreshed."""
    vertices: list[XsgVertex]
    edges: list[XsgEdge]
    roots: list[int]
    back_edges: list[int]

    @cached_property
    def adjacency(self) -> list[tuple[XsgEdge, ...]]:
        """Out-edges per vertex id, in edge-id order."""
        out: list[list[XsgEdge]] = [[] for _ in self.vertices]
        for e in self.edges:
            out[e.src].append(e)
        return [tuple(edges) for edges in out]

    @cached_property
    def _in_degrees(self) -> list[int]:
        degrees = [0] * len(self.vertices)
        for e in self.edges:
            degrees[e.dst] += 1
        return degrees

    def out_edges(self, vertex_id: int) -> tuple[XsgEdge, ...]:
        return self.adjacency[vertex_id]

    def in_degree(self, vertex_id: int) -> int:
        return self._in_degrees[vertex_id]


class _GraphBuilder:
    def __init__(self, schema: SchemaModel):
        self.schema = schema
        self.vertices: list[XsgVertex] = []
        self.edges: list[XsgEdge] = []
        self.by_component: dict[int, XsgVertex] = {}
        self.visited_types: set[int] = set()

    def add_vertex(self, kind: str, label: str, component) -> XsgVertex:
        v = XsgVertex(len(self.vertices), kind, label, component)
        self.vertices.append(v)
        self.by_component[id(component)] = v
        return v

    def add_edge(self, src: XsgVertex, dst: XsgVertex, kind: str,
                 occurs=None, component=None):
        self.edges.append(
            XsgEdge(len(self.edges), src.id, dst.id, kind, occurs, component)
        )

    def build(self) -> SchemaGraph:
        schema = self.schema
        if not schema.global_elements:
            raise EmptySchema(f"schema {schema.source_id!r} has no global element")

        # global declarations first, so forward references resolve
        for e in schema.global_elements:
            self.add_vertex(ELEMENT, e.name, e)
        for t in schema.global_types:
            kind = COMPLEX_TYPE if isinstance(t, ComplexType) else SIMPLE_TYPE
            self.add_vertex(kind, t.name, t)
        for g in schema.element_groups:
            self.add_vertex(ELEMENT_GROUP, g.name, g)
        for ag in schema.attribute_groups:
            self.add_vertex(ATTRIBUTE_GROUP, ag.name, ag)

        for e in schema.global_elements:
            self.visit_element(e)
        for t in schema.global_types:
            if isinstance(t, ComplexType):
                self.visit_type(t)
        for g in schema.element_groups:
            self.visit_group(g)
        for ag in schema.attribute_groups:
            self.visit_attr_group(ag)

        graph = SchemaGraph(self.vertices, self.edges, self.find_roots(), [])
        graph.back_edges = self.find_back_edges(graph)
        self.warn_unreachable(graph)
        return graph

    def visit_element(self, decl: ElementDecl):
        ev = self.by_component[id(decl)]
        etype = decl.type
        if isinstance(etype, BuiltinRef):
            return  # primitive types get no vertex and no type edge
        if isinstance(etype, NamedTypeRef):
            target = self.schema.type_named(etype.name)
            tv = self.by_component[id(target)]
            self.add_edge(ev, tv, EDGE_ELEMENT_TYPE)
            if isinstance(target, ComplexType):
                self.visit_type(target)
            return
        tv = self.add_vertex(COMPLEX_TYPE, f"{decl.name}_type", etype)
        self.add_edge(ev, tv, EDGE_ELEMENT_TYPE)
        self.visit_type(etype)

    def visit_type(self, ct: ComplexType):
        if id(ct) in self.visited_types:
            return
        self.visited_types.add(id(ct))
        tv = self.by_component[id(ct)]
        for p in ct.particles:
            if p.ref is not None:
                target = self.schema.element(p.ref)
                ev = self.by_component[id(target)]
            else:
                ev = self.add_vertex(ELEMENT, p.decl.name, p.decl)
            self.add_edge(tv, ev, EDGE_MEMBER,
                          occurs=(p.min_occurs, p.max_occurs), component=p)
            if p.decl is not None:
                self.visit_element(p.decl)
        for a in ct.attributes:
            av = self.add_vertex(ATTRIBUTE, a.name, a)
            self.add_edge(tv, av, EDGE_MEMBER, component=a)
        for gname in ct.group_refs:
            gv = self.by_component[id(self.schema.group(gname))]
            self.add_edge(tv, gv, EDGE_MEMBER, component=gname)
        for agname in ct.attr_group_refs:
            agv = self.by_component[id(self.schema.attr_group(agname))]
            self.add_edge(tv, agv, EDGE_MEMBER, component=agname)

    def visit_group(self, g: GroupDecl):
        gv = self.by_component[id(g)]
        for p in g.particles:
            if p.ref is not None:
                target = self.schema.element(p.ref)
                ev = self.by_component[id(target)]
            else:
                ev = self.add_vertex(ELEMENT, p.decl.name, p.decl)
            self.add_edge(gv, ev, EDGE_MEMBER,
                          occurs=(p.min_occurs, p.max_occurs), component=p)
            if p.decl is not None:
                self.visit_element(p.decl)

    def visit_attr_group(self, ag: AttrGroupDecl):
        agv = self.by_component[id(ag)]
        for a in ag.attributes:
            av = self.add_vertex(ATTRIBUTE, a.name, a)
            self.add_edge(agv, av, EDGE_MEMBER, component=a)

    def find_roots(self) -> list[int]:
        referenced = {
            e.dst for e in self.edges if e.kind == EDGE_MEMBER
        }
        global_ids = {id(e) for e in self.schema.global_elements}
        roots = [
            v.id for v in self.vertices
            if v.kind == ELEMENT and id(v.schema_ref) in global_ids
            and v.id not in referenced
        ]
        if not roots:
            first = self.by_component[id(self.schema.global_elements[0])]
            logger.warning(
                "every global element is referenced; using %r as the root",
                first.label,
            )
            roots = [first.id]
        elif len(roots) > 1:
            logger.warning(
                "%d unreferenced global elements; graph has multiple roots",
                len(roots),
            )
        return roots

    def find_back_edges(self, graph: SchemaGraph) -> list[int]:
        adj = graph.adjacency
        back: list[int] = []
        visited: set[int] = set()
        on_stack: set[int] = set()

        def dfs(start: int):
            # iterative DFS with an explicit edge cursor per frame
            stack = [(start, iter(adj[start]))]
            visited.add(start)
            on_stack.add(start)
            while stack:
                vid, edges = stack[-1]
                edge = next(edges, None)
                if edge is None:
                    stack.pop()
                    on_stack.discard(vid)
                    continue
                if edge.dst in on_stack:
                    back.append(edge.id)
                elif edge.dst not in visited:
                    visited.add(edge.dst)
                    on_stack.add(edge.dst)
                    stack.append((edge.dst, iter(adj[edge.dst])))

        for r in graph.roots:
            if r not in visited:
                dfs(r)
        for v in self.vertices:  # disconnected clusters still get classified
            if v.id not in visited:
                dfs(v.id)
        return back

    def warn_unreachable(self, graph: SchemaGraph):
        reachable: set[int] = set()
        stack = list(graph.roots)
        back = set(graph.back_edges)
        while stack:
            vid = stack.pop()
            if vid in reachable:
                continue
            reachable.add(vid)
            stack.extend(e.dst for e in graph.adjacency[vid] if e.id not in back)
        missing = len(graph.vertices) - len(reachable)
        if missing:
            logger.warning("%d graph vertices are unreachable from the roots", missing)


def build_xsg(schema: SchemaModel) -> SchemaGraph:
    """Construct the schema graph with deterministic vertex ids."""
    return _GraphBuilder(schema).build()


def is_tree(g: SchemaGraph) -> bool:
    """True when nothing is re-used: no back edges, a single root, and
    every non-root vertex has exactly one parent."""
    if g.back_edges or len(g.roots) != 1:
        return False
    root = g.roots[0]
    return all(
        g.in_degree(v.id) == (0 if v.id == root else 1) for v in g.vertices
    )


def _occurs_label(occurs: tuple[int, int | None] | None) -> str:
    if occurs is None or occurs == (1, 1):
        return ""
    low, high = occurs
    return f"{low}..{'*' if high is None else high}"


def to_dot(g: SchemaGraph) -> str:
    """Graphviz text; node shape encodes the vertex kind, back edges are
    dashed. Output order follows vertex/edge ids, so it is stable."""
    lines = ["digraph xsg {", "  rankdir=TB;"]
    for v in g.vertices:
        lines.append(f'  v{v.id} [label="{v.label}", shape={_SHAPES[v.kind]}];')
    back = set(g.back_edges)
    for e in g.edges:
        attrs = []
        label = _occurs_label(e.occurs)
        if label:
            attrs.append(f'label="{label}"')
        if e.id in back:
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  v{e.src} -> v{e.dst}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
