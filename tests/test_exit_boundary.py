"""`cli.py` decides every exit code in one place: a single `except
Exception` handler maps library errors to exit codes, by the table beside
it, and reports anything else as an internal error.

The handlers are read from the source with `ast`. A handler that catches a
library error, or `Exception`, and raises `_SourceFailure` is a second
place that decides an exit code, so it fails this test. `_SourceFailure`
is left to the failures the library cannot see: an input that cannot be
read, an input of unknown kind and an output that cannot be written.
"""

from __future__ import annotations

import ast
from pathlib import Path

import xsgowl.cli

SOURCE = Path(xsgowl.cli.__file__)
LIBRARY_ERRORS = frozenset({
    "ParseError", "SchemaError", "RootMismatch", "EmptySchema",
    "DocumentInvalid", "NamingCollision",
})


def handlers(source: str) -> list[ast.ExceptHandler]:
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler)]


def caught(handler: ast.ExceptHandler) -> set[str]:
    """The names of the classes `handler` catches."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {ast.unparse(t) for t in types}


def raises_source_failure(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and ast.unparse(node.exc.func) == "_SourceFailure"
        for statement in handler.body for node in ast.walk(statement)
    )


def re_raising_handlers(source: str) -> list[int]:
    """Lines of the handlers that turn a library error into `_SourceFailure`."""
    return [h.lineno for h in handlers(source)
            if caught(h) & (LIBRARY_ERRORS | {"Exception"}) and raises_source_failure(h)]


def test_checks_see_handlers():
    source = """
try:
    read()
except (ParseError, OSError) as exc:
    raise _SourceFailure(2, str(exc))
except Exception:
    pass
"""
    assert [caught(h) for h in handlers(source)] == [{"ParseError", "OSError"},
                                                     {"Exception"}]
    assert re_raising_handlers(source) == [4]


def test_one_catch_all_handler():
    catch_all = [h.lineno for h in handlers(SOURCE.read_text())
                 if "Exception" in caught(h)]
    assert len(catch_all) == 1, f"except Exception at lines {catch_all}"


def test_no_library_error_reraised_as_source_failure():
    assert re_raising_handlers(SOURCE.read_text()) == []
