"""zerebro is single-threaded by contract: no object may be shared across
threads, so no module may start or guard against another thread."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zerebro"
BANNED = ("threading", "_thread", "concurrent.futures", "multiprocessing")


def imported_names(tree):
    """Every dotted module name the tree imports, `from a import b` as both
    a and a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_a_thread_or_process_api():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10
    found = {}
    for path in paths:
        names = imported_names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        banned = sorted({n for n in names for b in BANNED if n == b or n.startswith(b + ".")})
        if banned:
            found[path.name] = banned
    assert found == {}
