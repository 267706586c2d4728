"""The package's export list is exactly the union of its modules' lists,
and that list is pinned here, so a change to the public API shows in the
diff of this file."""

import mcflow
from mcflow import heuristic, maxflow, netmodel, oracle, tables

PUBLIC_NAMES = [
    "Assignment",
    "ColoredPath",
    "Commodity",
    "Cut",
    "DEFAULT_MAX_CANDIDATES",
    "Edge",
    "FlowState",
    "FlowTables",
    "Network",
    "NetworkParseError",
    "OracleResult",
    "UpperBounds",
    "build_tables",
    "color_name",
    "export_dot",
    "greedy_solve",
    "intersection_terms",
    "max_flow",
    "optimal_value",
    "parse_network",
    "render_path",
    "upper_bounds",
    "validate_assignment",
]


def test_package_exports_union_of_module_exports():
    modules = (netmodel, maxflow, tables, heuristic, oracle)
    union = sorted(set().union(*(module.__all__ for module in modules)))
    assert mcflow.__all__ == union
    for name in mcflow.__all__:
        assert getattr(mcflow, name) is not None
    for module in modules:
        for name in module.__all__:
            assert getattr(mcflow, name) is getattr(module, name)


def test_public_names_are_pinned():
    assert mcflow.__all__ == PUBLIC_NAMES
