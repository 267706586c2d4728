"""The package's modules form layers: each imports only from the modules
before it in LAYERS, so the network model at the bottom imports nothing
from the package.  Every import counts, including those under
`if TYPE_CHECKING:` and inside functions."""

import ast
from pathlib import Path

import pytest

import mcflow

LAYERS = ["netmodel", "maxflow", "tables", "heuristic", "oracle", "cli"]
PACKAGE = Path(mcflow.__file__).parent
# The package itself and `python -m mcflow` sit above every layer.
ENTRY_POINTS = {"__init__", "__main__"}


def package_imports(source: str) -> list[tuple[int, str]]:
    """(line, layer) for every import in `source` of a module of the
    package, sorted; the layer is "mcflow" for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["mcflow" if node.level else None, node.module]))
            # `from . import x` and `from mcflow import x` import the module x.
            modules = [
                f"{module}.{alias.name}" if module == "mcflow" and alias.name in LAYERS else module
                for alias in node.names
            ]
        else:
            continue
        for module in modules:
            if module == "mcflow" or module.startswith("mcflow."):
                found.add((node.lineno, module.removeprefix("mcflow.").split(".")[0]))
    return sorted(found)


def test_package_imports_sees_every_form():
    source = (
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "from .maxflow import max_flow\n"
        "if TYPE_CHECKING:\n"
        "    from .heuristic import Assignment\n"
        "def late():\n"
        "    from . import oracle, tables\n"
        "    import mcflow.cli\n"
        "    from mcflow import netmodel\n"
        "    from mcflow.netmodel import Network\n"
        "    import mcflow\n"
    )
    assert package_imports(source) == [
        (3, "maxflow"),
        (5, "heuristic"),
        (7, "oracle"),
        (7, "tables"),
        (8, "cli"),
        (9, "netmodel"),
        (10, "netmodel"),
        (11, "mcflow"),
    ]


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(LAYERS) | ENTRY_POINTS


@pytest.mark.parametrize("position, module", list(enumerate(LAYERS)), ids=LAYERS)
def test_imports_only_lower_layers(position, module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    below = set(LAYERS[:position])
    assert [(line, name) for line, name in package_imports(source) if name not in below] == []
