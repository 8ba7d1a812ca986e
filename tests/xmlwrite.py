"""XML text from a document tree, for tests that build their inputs as
trees.

The text parses back to the same tree: tab, newline and carriage return
in attribute values, and carriage return in text, are written as
character references, which a parser does not normalize.
"""

from __future__ import annotations

from treeparse import TreeDocument


def _escape_text(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace("\r", "&#13;"))


def _escape_attr(s: str) -> str:
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        .replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")
    )


def serialize_xml(doc: TreeDocument) -> str:
    """Write the tree back as XML text (attribute order preserved), on an
    explicit stack of open elements, so no depth runs out of frames."""
    out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    stack = [(None, iter((doc.root,)))]  # the root's frame writes no tags
    while stack:
        parent, children = stack[-1]
        for child in children:
            if isinstance(child, str):
                out.append(_escape_text(child))
                continue
            out.append(f"<{child.name}")
            for name, value in child.attributes:
                out.append(f' {name}="{_escape_attr(value)}"')
            if child.children:  # resume `children` after the child's end tag
                out.append(">")
                stack.append((child, iter(child.children)))
                break
            out.append("/>")
        else:
            stack.pop()
            if parent is not None:
                out.append(f"</{parent.name}>")
    out.append("\n")
    return "".join(out)
