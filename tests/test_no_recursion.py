"""No stage of the package may recurse: a call cycle among the functions
of any module of `src/xsgowl` fails this test.

The call graph is read from the source with `ast`. Its nodes are the
module-level functions, the methods (`Class.method`) and the nested
functions (`outer.inner`) of every module. Its edges are the calls by
bare name, resolved through the enclosing functions and then the module,
and the `self.name(...)` calls, resolved within the class. A recursive
walk breaks on a deep input, where Python's recursion limit runs out, so
the schema walks and the instance walk use explicit stacks instead. No
function is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import xsgowl

PACKAGE = Path(xsgowl.__file__).parent
MODULES = tuple(sorted(p.name for p in PACKAGE.glob("*.py")))
ALLOWED: frozenset[str] = frozenset()  # functions allowed to recurse


class _CallGraph(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.edges: dict[str, set[str]] = {}
        self.defined: set[str] = set()
        self.calls: list[tuple[str, list[str], str | None, ast.Call]] = []
        self.scopes: list[str] = []  # qualified names of the enclosing defs
        self.classes: list[str | None] = [None]
        self.class_names: set[str] = set()

    def qualify(self, name: str) -> str:
        return ".".join([self.module, *self.scopes, name])

    def visit_ClassDef(self, node: ast.ClassDef):
        self.scopes.append(node.name)
        self.classes.append(".".join([self.module, *self.scopes]))
        self.class_names.add(self.classes[-1])
        self.generic_visit(node)
        self.classes.pop()
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef):
        qualified = self.qualify(node.name)
        self.defined.add(qualified)
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call):
        if self.scopes:
            caller = ".".join([self.module, *self.scopes])
            self.calls.append((caller, list(self.scopes), self.classes[-1], node))
        self.generic_visit(node)

    def resolve(self):
        """Fill `edges` once every definition is known."""
        for caller, scopes, cls, node in self.calls:
            func = node.func
            target = None
            if isinstance(func, ast.Name):
                for depth in range(len(scopes), -1, -1):
                    scope = ".".join([self.module, *scopes[:depth]])
                    candidate = f"{scope}.{func.id}"
                    if scope not in self.class_names and candidate in self.defined:
                        target = candidate
                        break
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == "self" and cls is not None):
                candidate = f"{cls}.{func.attr}"
                if candidate in self.defined:
                    target = candidate
            if target is not None:
                self.edges.setdefault(caller, set()).add(target)


def call_graph() -> dict[str, set[str]]:
    edges: dict[str, set[str]] = {}
    for name in MODULES:
        graph = _CallGraph(name.removesuffix(".py"))
        graph.visit(ast.parse((PACKAGE / name).read_text()))
        graph.resolve()
        edges.update(graph.edges)
    return edges


def cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """The call cycles as sorted groups of mutually reachable functions; a
    function that calls itself is a group of one."""
    reach: dict[str, set[str]] = {}
    for start in edges:
        seen: set[str] = set()
        stack = list(edges[start])
        while stack:
            f = stack.pop()
            if f not in seen:
                seen.add(f)
                stack.extend(edges.get(f, ()))
        reach[start] = seen
    groups = {
        tuple(sorted(g for g in reach if g in reach[f] and f in reach[g]))
        for f in reach if f in reach[f]
    }
    return sorted(list(g) for g in groups)


def test_call_graph_sees_calls():
    assert {"abox.py", "cli.py", "xmldoc.py", "xsdmodel.py", "xsg.py"} <= set(MODULES)
    edges = call_graph()
    # a bare-name call to a module function, a call to a method through
    # `self`, and a call from a method to a function nested in it
    assert "xsdmodel._check_references" in edges["xsdmodel._SchemaReader.read"]
    assert "abox._Populator.holder" in edges["abox._Populator.value"]
    assert ("owlgen._Generator.collect_properties.record"
            in edges["owlgen._Generator.collect_properties"])
    assert cycles({"a": {"b"}, "b": {"a"}, "c": {"c"}, "d": {"a"}}) == [["a", "b"], ["c"]]


def test_no_schema_stage_recurses():
    found = [group for group in cycles(call_graph()) if set(group) - ALLOWED]
    assert found == [], "recursive call cycles:\n" + "\n".join(
        "  " + " -> ".join(group) for group in found)
