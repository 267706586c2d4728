"""A fixed reference computation for normalising times to machine speed.

On a host that shares its cores, the speed of this process changes from
second to second: the same call can take 60 % longer while a neighbour is
busy.  Each timed call is therefore bracketed by runs of a fixed
pure-Python reference computation, and its time is divided by the mean
reference time next to it.  The neighbour slows both alike, so the
quotient holds still.  Multiplied by NOMINAL_REFERENCE_S it reads in
seconds again.
"""

from __future__ import annotations

import time

# The reference computation's fastest time on the machine the benchmark was
# written on (2 shared vCPUs, CPython 3.11.7).  Any fixed value would do;
# this one keeps normalised times close to seconds on such a machine.
NOMINAL_REFERENCE_S = 0.0017


class _Cell:
    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight


# The interpreter work the package does: attribute loads, generator sums,
# dict lookups and tuple keys.
_CELLS = [_Cell(i % 17, i % 11) for i in range(6000)]


def _reference_work() -> int:
    total = 0
    for key in range(8):
        total += sum(cell.weight for cell in _CELLS if cell.key == key)
    seen: dict[tuple[int, int], int] = {}
    for cell in _CELLS:
        pair = (cell.key, cell.weight)
        seen[pair] = seen.get(pair, 0) + 1
    return total + len(seen)


class Clock:
    """Times the reference computation and keeps every time it took."""

    def __init__(self) -> None:
        self.references: list[float] = []

    def reference(self) -> float:
        start = time.perf_counter()
        _reference_work()
        elapsed = time.perf_counter() - start
        self.references.append(elapsed)
        return elapsed


def normalise(raw: float, nearby: float) -> float:
    """`raw` seconds measured next to reference time `nearby`, rescaled to
    the speed at which the reference takes NOMINAL_REFERENCE_S."""
    return raw * NOMINAL_REFERENCE_S / nearby
