"""Every option in ``src/`` has a caller that sets it outside the tests:
a stdlib-``ast`` scan of the repository.

An option is a defaulted parameter of a def in ``src/`` or a defaulted
field of a frozen dataclass in ``src/``.  Some call in ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` must pass it, by
keyword or by position.  A call matches a def when its callee name
(``f(...)`` or ``x.f(...)``) is the def's name; for ``__init__`` and
for a dataclass's fields the callee name is the class name, and a
``cls(...)`` call inside a classmethod counts as a call of that class.
A call with ``*args`` or ``**kwargs`` counts as passing everything, and
a ``replace(...)`` keyword counts for every dataclass field of the same
name.

The scan goes by name, like the caller scan of ``test_callers.py``, so
an option shares its callers with every def of the same name: the
parameters of a def named ``run`` (each experiment's entry point)
escape it, because ``run`` is also called elsewhere with its own
arguments.

:data:`KEPT` names the options that stay without such a call.
"""

from __future__ import annotations

import ast

from .test_callers import CALLERS
from .test_imports import ROOT, _trees

_SEAM = "test seam: tests inject their own value"
_FAULTS = "test seam: chaos tests script the fault plane"
_RADIUS = "observation radius the coverage tests vary on the diamond"
_WIRE = "mirrors an optional parameter of the wire op"
_READER = "real-data reader (PAPER.md section 2); tests read samples"

#: ``path::qualified def(option)`` -> why it stays.
KEPT = {
    "src/repro/server/client.py::RiskRouteClient.__init__(rng)": _SEAM,
    "src/repro/server/daemon.py::ServerConfig(faults)": _FAULTS,
    "src/repro/server/faults.py::FaultRule(hits)": _FAULTS,
    "src/repro/server/faults.py::FaultRule(rate)": _FAULTS,
    "src/repro/server/faults.py::FaultRule(delay)": _FAULTS,
    "src/repro/server/faults.py::FaultRule(limit)": _FAULTS,
    "src/repro/server/faults.py::FaultPlane.__init__(rules)": _FAULTS,
    "src/repro/server/faults.py::FaultPlane.__init__(seed)": _FAULTS,
    "src/repro/core/sharedrisk.py::shared_risk_report(historical)": _SEAM,
    "src/repro/risk/streaming.py::StreamingHistoricalModel.__init__"
    "(bandwidths)": _SEAM,
    "src/repro/core/monitoring.py::place_monitors(radius_miles)": _RADIUS,
    "src/repro/core/monitoring.py::coverage_of(radius_miles)": _RADIUS,
    "src/repro/server/client.py::RiskRouteClient.update_forecast(default)":
        _WIRE,
    "src/repro/server/client.py::RiskRouteClient.update_forecast(token)":
        _WIRE,
    "src/repro/server/client.py::RiskRouteClient.ingest(token)": _WIRE,
    "src/repro/cli.py::main(argv)": "the console entry point passes none",
    "src/repro/topology/graphml.py::read_graphml(name)": _READER,
    "src/repro/topology/graphml.py::read_graphml(tier)": _READER,
    "src/repro/topology/peering.py::parse_caida_as_rel(names)": _READER,
}


def _name(node: ast.AST):
    """The name a ``Name`` or ``Attribute`` node spells, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _decorators(node: ast.AST) -> set:
    return {_name(decorator) for decorator in node.decorator_list}


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and _name(decorator.func) == "dataclass"
        ):
            return any(
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in decorator.keywords
            )
    return False


def _field_options(node: ast.ClassDef):
    """``(position, name)`` of each defaulted init field of a frozen
    dataclass; ``position`` counts every init field before it."""
    position = 0
    for stmt in node.body:
        if not (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        else:
            defaulted = value is not None
        if defaulted:
            yield position, stmt.target.id
        position += 1


def _param_options(node: ast.AST, in_class: bool):
    """``(position, name)`` of each defaulted parameter; ``position`` is
    ``None`` for a keyword-only one and skips a method's ``self``."""
    args = node.args
    positional = args.posonlyargs + args.args
    if in_class and "staticmethod" not in _decorators(node):
        positional = positional[1:]
    for index, arg in enumerate(positional):
        if index >= len(positional) - len(args.defaults):
            yield index, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _options(node: ast.AST, prefix: str = "", class_name: str = ""):
    """``(qualified def, callee name, position, option, is field)`` of
    every option under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if _is_frozen_dataclass(child):
                for position, name in _field_options(child):
                    yield (
                        prefix + child.name, child.name, position, name, True
                    )
            yield from _options(child, prefix + child.name + ".", child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callee = class_name if child.name == "__init__" else child.name
            for position, name in _param_options(child, bool(class_name)):
                yield prefix + child.name, callee, position, name, False
            yield from _options(child, prefix + child.name + ".")
        else:
            yield from _options(child, prefix, class_name)


def _calls(node: ast.AST, class_name: str = "", in_classmethod: bool = False):
    """``(callee name, positional count, keywords, splat)`` of every
    call under ``node``; ``cls(...)`` in a classmethod is a call of its
    class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _calls(child, child.name, False)
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(
                child, class_name, "classmethod" in _decorators(child)
            )
            continue
        if isinstance(child, ast.Call):
            callee = _name(child.func)
            if callee == "cls" and in_classmethod:
                callee = class_name
            splat = any(
                isinstance(arg, ast.Starred) for arg in child.args
            ) or any(keyword.arg is None for keyword in child.keywords)
            yield (
                callee,
                len(child.args),
                {keyword.arg for keyword in child.keywords},
                splat,
            )
        yield from _calls(child, class_name, in_classmethod)


def _src_options() -> dict:
    """``path::qualified def(option)`` -> ``(callee, position, option,
    is field)`` for every option in src."""
    options = {}
    for path, tree in _trees(("src",)):
        for qualified, callee, position, name, is_field in _options(tree):
            key = f"{path.relative_to(ROOT)}::{qualified}({name})"
            options[key] = (callee, position, name, is_field)
    return options


def _unset(options: dict) -> list:
    """The keys of ``options`` that no call outside the tests passes."""
    calls = {}
    replaced = set()
    for _, tree in _trees(CALLERS):
        for callee, count, keywords, splat in _calls(tree):
            calls.setdefault(callee, []).append((count, keywords, splat))
            if callee == "replace":
                replaced |= keywords

    def passed(callee, position, name, is_field):
        if is_field and name in replaced:
            return True
        return any(
            splat or name in keywords
            or (position is not None and count > position)
            for count, keywords, splat in calls.get(callee, ())
        )

    return [key for key, option in options.items() if not passed(*option)]


def test_every_option_is_set_outside_tests():
    unset = [key for key in _unset(_src_options()) if key not in KEPT]
    assert not unset, "options only tests set:\n" + "\n".join(unset)


def test_every_kept_option_exists_unset():
    options = _src_options()
    unset = set(_unset(options))
    stale = [key for key in KEPT if key not in options or key not in unset]
    assert not stale, "stale KEPT entries:\n" + "\n".join(stale)
