"""Multicommodity max-flow heuristic over capacitated directed networks.

Pipeline: per-commodity max flow (maxflow) -> colored path tables (tables)
-> greedy minimum-color-count selection (heuristic), with an exhaustive
oracle for small instances (oracle), a text/DOT network model (netmodel),
and a CLI front end (cli).
"""

from .heuristic import (
    Assignment,
    BoundReport,
    UpperBounds,
    greedy_solve,
    inclusion_exclusion_bound,
    upper_bounds,
    validate_assignment,
)
from .maxflow import ColoredPath, Cut, FlowState, decompose_cut_paths, max_flow
from .netmodel import (
    Commodity,
    Edge,
    Network,
    NetworkParseError,
    export_dot,
    parse_network,
    path_nodes,
    render_network,
    render_path,
    validate_network,
)
from .oracle import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_PATHS,
    GapReport,
    OracleLimitError,
    OracleResult,
    SimplePath,
    enumerate_paths,
    gap_report,
    optimal_value,
)
from .tables import (
    ACTIVE,
    COLOR_NAMES,
    DISCARDED,
    USED,
    FlowTables,
    build_tables,
    color_name,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVE",
    "Assignment",
    "BoundReport",
    "COLOR_NAMES",
    "ColoredPath",
    "Commodity",
    "Cut",
    "DEFAULT_MAX_CANDIDATES",
    "DEFAULT_MAX_PATHS",
    "DISCARDED",
    "Edge",
    "FlowState",
    "FlowTables",
    "GapReport",
    "Network",
    "NetworkParseError",
    "OracleLimitError",
    "OracleResult",
    "SimplePath",
    "USED",
    "UpperBounds",
    "build_tables",
    "color_name",
    "decompose_cut_paths",
    "enumerate_paths",
    "export_dot",
    "gap_report",
    "greedy_solve",
    "inclusion_exclusion_bound",
    "max_flow",
    "optimal_value",
    "parse_network",
    "path_nodes",
    "render_network",
    "render_path",
    "upper_bounds",
    "validate_assignment",
    "validate_network",
]
