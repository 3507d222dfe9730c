"""Every def in ``src/`` has a caller outside the tests: a stdlib-``ast``
scan of the repository.

A function, method or class defined under ``src/`` must be referenced
from ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``.

A def outside a class body is referenced by a ``Name`` load of its
name, by an import of that name, or by an attribute read on a name an
import bound (``module.<name>``).  An import whose bound name is in its
module's ``__all__`` is a re-export and does not count: ``__all__``
exports a name without using it.  So a method or property of the same
name (``RoutingEngine.shortest_path``) cannot keep a module-level
function alive.

A def in a class body is referenced by an ``Attribute`` node spelling
its name, or a string constant equal to it (``getattr`` targets),
except the entries of ``__all__``.  A bare name can never reach a
method, so a same-named local or parameter does not count.  Nor may a
field: for a method that is not a property and whose name is also a
field somewhere in ``src/`` (a class-body annotation or a
``self.<name>`` store), only a call ``.<name>(...)`` or an identifier
string that is not a dict key counts.  Dunder methods are called by the
interpreter and are not scanned.  The scan goes by name only, so a def
shares its references with every def of the same name.

:data:`KEPT` names the defs that stay without such a caller.
"""

from __future__ import annotations

import ast

from .test_imports import ROOT, _trees

CALLERS = ("src", "benchmarks", "examples", "perfbench")

#: ``path::qualified name`` -> why it stays.  A reference implementation
#: names the test that holds another implementation against it.
KEPT = {
    "src/repro/core/ratios.py::ratios_over_pairs":
        "tests/test_property_riskroute.py::TestAggregateParity::"
        "test_aggregates_equal_scalar_reference",
    "src/repro/core/monitoring.py::coverage_of":
        "tests/test_core_monitoring.py::TestCoverageOf::"
        "test_greedy_beats_or_ties_naive",
    "src/repro/graph/components.py::connected_components":
        "tests/test_property_graph.py::TestComponentProperties::"
        "test_reachability_matches_components",
    "src/repro/graph/core.py::Graph.path_weight":
        "tests/test_property_graph.py::TestDijkstraProperties::"
        "test_path_weight_matches_distance",
    "src/repro/geo/grid.py::GeoGrid.centers":
        "tests/test_geo_grid.py::TestGeoGrid::"
        "test_centers_array_matches_centers",
    "src/repro/stats/kde.py::GaussianKDE.density":
        "tests/test_property_stats.py::TestKdeProperties::"
        "test_batch_matches_scalar",
    "src/repro/stats/kde.py::GaussianKDE.log_density_many":
        "tests/test_stats_kde.py::TestTruncation::"
        "test_holdout_log_density_matches_refit",
    # The real-data readers of PAPER.md section 2.
    "src/repro/topology/graphml.py::read_graphml":
        "reads a Topology Zoo GraphML file",
    "src/repro/topology/peering.py::parse_caida_as_rel":
        "reads a CAIDA AS-relationship file",
}


def _defs(node: ast.AST, prefix: str = "", in_class: bool = False):
    """``(qualified name, def node, in_class)`` of every function,
    method and class; ``in_class`` is true for a def in a class body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield prefix + child.name, child, in_class
            yield from _defs(
                child,
                prefix + child.name + ".",
                isinstance(child, ast.ClassDef),
            )
        else:
            yield from _defs(child, prefix, in_class)


def _references(tree: ast.AST):
    """``(names, members, calls)`` that ``tree`` references: names
    loaded, imported (not re-exported) or read off an imported name;
    ``Attribute`` names plus identifier strings; and called
    ``Attribute`` names plus identifier strings that are not dict keys
    (see the module docstring)."""
    exported, listed, keys, imports = set(), set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        if isinstance(node, ast.Dict):
            keys.update(id(key) for key in node.keys)
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            constants = list(ast.walk(node.value))
            exported.update(map(id, constants))
            listed.update(
                c.value for c in constants if isinstance(c, ast.Constant)
            )
    names, members, calls, bound = set(), set(), set(), set()
    for node in imports:
        for alias in node.names:
            bound_name = (alias.asname or alias.name).split(".")[0]
            bound.add(bound_name)
            if isinstance(node, ast.ImportFrom) and bound_name not in listed:
                names.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
            if (
                isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
            ):
                names.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            calls.add(node.func.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            members.add(node.value)
            if id(node) not in keys:
                calls.add(node.value)
    return names, members, calls


def _fields(tree: ast.AST) -> set:
    """Class-body annotation names and ``self.<name>`` stores."""
    fields = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            fields.update(
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            )
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            fields.add(node.attr)
    return fields


def _is_property(node: ast.AST) -> bool:
    return any(
        getattr(decorator, "id", getattr(decorator, "attr", None))
        in ("property", "cached_property", "setter", "getter", "deleter")
        for decorator in getattr(node, "decorator_list", ())
    )


def _src_defs():
    """``(path::qualified name, def node, in_class)`` of every
    non-dunder def in src."""
    for path, tree in _trees(("src",)):
        for qualified, node, in_class in _defs(tree):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{path.relative_to(ROOT)}::{qualified}", node, in_class


def test_every_def_has_a_caller_outside_tests():
    names, members, calls = set(), set(), set()
    for _, tree in _trees(CALLERS):
        tree_names, tree_members, tree_calls = _references(tree)
        names |= tree_names
        members |= tree_members
        calls |= tree_calls
    fields = set()
    for _, tree in _trees(("src",)):
        fields |= _fields(tree)

    def referenced(node, in_class):
        if not in_class:
            return node.name in names
        if node.name in fields and not _is_property(node):
            return node.name in calls
        return node.name in members

    orphans = [
        key for key, node, in_class in _src_defs()
        if not referenced(node, in_class) and key not in KEPT
    ]
    assert not orphans, "defs only tests reach:\n" + "\n".join(orphans)


def test_every_kept_def_and_its_test_exist():
    defs = {key for key, _, _ in _src_defs()}
    tests = {
        f"{path.relative_to(ROOT)}::{qualified.replace('.', '::')}"
        for path, tree in _trees(("tests",))
        for qualified, _, _ in _defs(tree)
    }
    missing = [
        f"{key} ({why})" for key, why in KEPT.items()
        if key not in defs or (why.startswith("tests/") and why not in tests)
    ]
    assert not missing, "stale KEPT entries:\n" + "\n".join(missing)
