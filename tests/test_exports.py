"""The package's export list is exactly the union of its modules' lists."""

import mcflow
from mcflow import heuristic, maxflow, netmodel, oracle, tables


def test_package_exports_union_of_module_exports():
    modules = (netmodel, maxflow, tables, heuristic, oracle)
    union = sorted(set().union(*(module.__all__ for module in modules)))
    assert mcflow.__all__ == union
    for name in mcflow.__all__:
        assert getattr(mcflow, name) is not None
    for module in modules:
        for name in module.__all__:
            assert getattr(mcflow, name) is getattr(module, name)
