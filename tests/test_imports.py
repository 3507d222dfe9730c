"""Every import is used: a stdlib-``ast`` scan of the repository.

An imported name counts as used when a ``Name`` node in its file reads
it, or when a string constant that parses as an expression does (string
annotations such as ``"Tuple[int, ...]"`` and ``__all__`` entries).
Package ``__init__.py`` files re-export what they import and are
skipped.
"""

from __future__ import annotations

import ast
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")


def _imported(tree: ast.AST):
    """``(line, bound name)`` for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _names_read(tree: ast.AST) -> set:
    """Names read by the code or by an expression held in a string."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    expr = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            names.update(
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            )
    return names


def _trees(tops):
    """``(path, module AST)`` for every ``.py`` file under ``tops``."""
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_no_unused_imports():
    unused = []
    for path, tree in _trees(SCANNED):
        if path.name == "__init__.py":
            continue
        read = _names_read(tree)
        unused.extend(
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in _imported(tree)
            if name not in read
        )
    assert not unused, "unused imports:\n" + "\n".join(unused)
