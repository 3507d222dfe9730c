"""Every import is used, and every annotation name is bound: two
stdlib-``ast`` scans of the repository.

An imported name counts as used when a ``Name`` node in its file reads
it, or when a string constant that parses as an expression does (string
annotations such as ``"Tuple[int, ...]"`` and ``__all__`` entries).
Package ``__init__.py`` files re-export what they import and are
skipped.

A name an annotation in ``src/`` reads (string annotations parsed too)
must be a builtin or bound in its module, outside any function body, by
an import (including one under ``if TYPE_CHECKING:``), a def, a class or
an assignment; otherwise ``typing.get_type_hints`` raises ``NameError``.
"""

from __future__ import annotations

import ast
import builtins
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


def _module_bindings(body) -> set:
    """Names bound by ``body``'s statements, nested blocks and class
    bodies included, function bodies skipped."""
    names = set()
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(name for _, name in _imported(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
            continue
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)
            )
        for block in ("body", "orelse", "finalbody", "handlers"):
            names |= _module_bindings(getattr(node, block, None) or ())
    return names


def _annotations(tree: ast.AST):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _annotation_names(annotation: ast.AST):
    """Names ``annotation`` reads, string annotations parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval"))


def test_every_annotation_name_is_bound():
    unbound = []
    for path, tree in _trees(("src",)):
        bound = _module_bindings(tree.body) | set(dir(builtins))
        unbound.extend(
            f"{path.relative_to(ROOT)}:{annotation.lineno}: {name}"
            for annotation in _annotations(tree)
            for name in _annotation_names(annotation)
            if name not in bound
        )
    assert not unbound, "unbound annotation names:\n" + "\n".join(unbound)
