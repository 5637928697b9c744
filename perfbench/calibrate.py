"""Host speed, measured with a fixed pure-Python kernel.

On a shared host the speed of the same Python code drifts by tens of
percent within minutes, as other tenants load the machine.  The timed
run samples this kernel between ops and scales its times to a reference
host speed, so two runs of the same code agree although the host's
speed moved between them.  The kernel does the kind of work mulingua
does (frozen dataclasses hashed into tuple-keyed dicts) and uses none of
its code, so a change to the program never moves it.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

# Kernel passes per second that define the reference host; only the
# scale of the reported times depends on it.
REFERENCE_UNITS_PER_S = 1000.0
SAMPLE_S = 0.1


@dataclass(frozen=True)
class _Node:
    tag: str
    index: int


def _kernel() -> int:
    table = {}
    for i in range(300):
        a, b = _Node("x", i % 17), _Node("y", i % 13)
        table[(a, b)] = (b, a)
    return sum(1 for k, v in table.items() if k[0] == v[1])


class HostSpeed:
    """Samples of the kernel's rate; ``factor`` is their median over
    the reference rate (above 1 on a faster host)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        # no collection of the benchmark's own heap inside a sample
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            passes = 0
            while time.perf_counter() - start < SAMPLE_S:
                _kernel()
                passes += 1
            self.samples.append(passes / (time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_UNITS_PER_S
