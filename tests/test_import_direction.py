"""Import direction: production code never imports ``repro.verify``.

``verify/`` checks the claims the rest of the package makes, so it may
import anything; nothing outside it may import ``verify/`` back, at
module level or inside a function, or name it for a dynamic import.
The fault hooks live in ``runtime/faults.py``, the method registry in
``core/bank.py`` and the Wilson interval in ``stats/proportion.py`` for
that reason.  The one allowed site is the ``verify`` row of the CLI's
command table, which names ``repro.verify.runner`` for dispatch.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: (file relative to ``src/repro``, enclosing function) allowed to import it.
ALLOWED = {("cli.py", None)}

#: A string that is exactly a ``repro.verify`` module name: what a
#: dynamic import (``importlib.import_module``) is handed.
_VERIFY_NAME = re.compile(r"repro\.verify(\.\w+)*")


def _imported_modules(node):
    """Dotted names an ``import``/``from`` node can bind (the package
    imports absolutely throughout)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]


def _verify_imports(path: Path):
    """(enclosing function or None, line) of every repro.verify import,
    static or named for a dynamic one."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                names = _imported_modules(child)
                if any(n == "repro.verify" or n.startswith("repro.verify.")
                       for n in names):
                    found.append((function, child.lineno))
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and _VERIFY_NAME.fullmatch(child.value)):
                found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_production_code_does_not_import_verify():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] == "verify":
            continue
        for function, line in _verify_imports(path):
            if (rel.as_posix(), function) not in ALLOWED:
                offenders.append(f"{rel.as_posix()}:{line}")
    assert not offenders, f"production code imports repro.verify: {offenders}"


def test_the_cli_verify_verb_is_still_seen():
    """The scan must find the one allowed site, or it finds nothing."""
    sites = _verify_imports(SRC / "cli.py")
    assert [function for function, _ in sites] == [None]
