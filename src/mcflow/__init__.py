"""Multicommodity max-flow heuristic over capacitated directed networks.

Pipeline: a text network model (netmodel) -> per-commodity max flow
(maxflow) -> colored path tables (tables) -> greedy selection and DOT
export (heuristic), with an exhaustive oracle for small instances (oracle)
and a CLI front end (cli); each imports only from those before it.

The package exports exactly the names each of those five modules lists in
its own `__all__`.
"""

from . import heuristic, maxflow, netmodel, oracle, tables
from .heuristic import *  # noqa: F401,F403
from .maxflow import *  # noqa: F401,F403
from .netmodel import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .tables import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    {*heuristic.__all__, *maxflow.__all__, *netmodel.__all__, *oracle.__all__, *tables.__all__}
)
