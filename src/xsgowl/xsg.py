"""Schema graph: a design-style-neutral view over schema components.

Vertices cover every element declaration, every attribute declaration,
every non-primitive type (named or anonymous, complex or schema-defined
simple) and every element/attribute group. Edges run from elements to
their non-primitive types and from types/groups to their members;
references to groups also get a member edge so the group stays reachable.

The graph of a recursion-free schema is acyclic; in a recursive schema
the closing edge of each cycle is marked as a back edge. The marks are
read only by `to_dot`, which dashes those edges, and `is_tree`: the TBox
generator reads every out-edge of each type vertex, back edges included.

A graph is read-only once `build_xsg` returns it. Its out-adjacency and
in-degrees are derived from the edge list once, on first use, and shared
by the builder's own traversals, the TBox generator and `is_tree`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

from .xsdmodel import (
    LEAVE,
    AttrDecl,
    AttrGroupDecl,
    ComplexType,
    ElementDecl,
    GroupDecl,
    NamedTypeRef,
    Particle,
    SchemaModel,
    SimpleType,
    walk,
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

_GLOBAL_KINDS = {ElementDecl: ELEMENT, ComplexType: COMPLEX_TYPE, SimpleType: SIMPLE_TYPE,
                 GroupDecl: ELEMENT_GROUP, AttrGroupDecl: ATTRIBUTE_GROUP}

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


@dataclass(slots=True)
class XsgVertex:
    id: int
    kind: str
    label: str
    schema_ref: object = field(compare=False, default=None)


@dataclass(slots=True)
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
        for c in schema.global_components:
            self.add_vertex(_GLOBAL_KINDS[type(c)], c.name, c)
        self.visit(c for c in schema.global_components if self.first_visit(c))

        graph = SchemaGraph(self.vertices, self.edges, self.find_roots(), [])
        graph.back_edges = self.find_back_edges(graph)
        return graph

    def first_visit(self, c) -> bool:
        """Whether to walk `c` now: a complex type is walked once."""
        if type(c) is not ComplexType:
            return True
        if id(c) in self.visited_types:
            return False
        self.visited_types.add(id(c))
        return True

    def visit(self, roots):
        """Add the edges and local vertices under the global components
        `roots`. A named complex type is walked at its first element
        reference, on top of the walk that meets it, so vertex ids follow
        that order."""
        schema, by_component = self.schema, self.by_component
        walks = [walk(roots)]
        while walks:
            for event, c, parent in walks[-1]:
                if event is LEAVE:
                    if type(c) is ComplexType:  # group references follow the members
                        tv = by_component[id(c)]
                        for gname in c.group_refs:
                            gv = by_component[id(schema.group(gname))]
                            self.add_edge(tv, gv, EDGE_MEMBER, component=gname)
                        for agname in c.attr_group_refs:
                            agv = by_component[id(schema.attr_group(agname))]
                            self.add_edge(tv, agv, EDGE_MEMBER, component=agname)
                    continue
                kind = type(c)
                if kind is Particle:
                    if c.ref is not None:
                        ev = by_component[id(schema.element(c.ref))]
                    else:
                        ev = self.add_vertex(ELEMENT, c.decl.name, c.decl)
                    self.add_edge(by_component[id(parent)], ev, EDGE_MEMBER,
                                  occurs=(c.min_occurs, c.max_occurs), component=c)
                elif kind is ElementDecl:
                    if type(c.type) is not NamedTypeRef:
                        continue  # primitive types get no vertex and no type edge
                    target = schema.type_named(c.type.name)
                    self.add_edge(by_component[id(c)], by_component[id(target)],
                                  EDGE_ELEMENT_TYPE)
                    if type(target) is ComplexType and self.first_visit(target):
                        walks.append(walk((target,)))
                        break
                elif kind is AttrDecl:
                    av = self.add_vertex(ATTRIBUTE, c.name, c)
                    self.add_edge(by_component[id(parent)], av, EDGE_MEMBER, component=c)
                elif kind is ComplexType and c.name is None:
                    tv = self.add_vertex(COMPLEX_TYPE, f"{parent.name}_type", c)
                    self.add_edge(by_component[id(parent)], tv, EDGE_ELEMENT_TYPE)
            else:
                walks.pop()

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
                "%s: every global element is referenced; using %r as the root",
                self.schema.source_id, first.label,
            )
            roots = [first.id]
        elif len(roots) > 1:
            logger.warning(
                "%s: %d unreferenced global elements; graph has multiple roots",
                self.schema.source_id, len(roots),
            )
        return roots

    def find_back_edges(self, graph: SchemaGraph) -> list[int]:
        """Back edges of a depth-first search from the roots, then from each
        vertex still unvisited; warns if the roots leave any unvisited."""
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
        # a back edge leads to a vertex on the stack, so one already
        # visited: what the roots reach here, they reach without back edges
        missing = len(self.vertices) - len(visited)
        if missing:
            logger.warning("%s: %d graph vertices are unreachable from the roots",
                           self.schema.source_id, missing)
        for v in self.vertices:  # disconnected clusters still get classified
            if v.id not in visited:
                dfs(v.id)
        return back


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
        # a DOT label reads `\` as an escape, and `"` would end the string
        label = v.label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{v.id} [label="{label}", shape={_SHAPES[v.kind]}];')
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
    lines.append("")  # the final newline, without copying the document again
    return "\n".join(lines)
