"""Order statistics used by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple


def median(values: Iterable[float]) -> float:
    """Median of ``values`` (raises ``ValueError`` when empty)."""
    data = list(values)
    if not data:
        raise ValueError("median of an empty sample")
    return float(statistics.median(data))


def nearest_rank(count: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile in ``count`` samples."""
    if count < 1:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError("pct must be in (0, 100]")
    return max(1, math.ceil(pct / 100.0 * count))


def percentile(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``values``."""
    ordered = sorted(values)
    return float(ordered[nearest_rank(len(ordered), pct) - 1])


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the ``pct`` percentile."""
    return count - nearest_rank(count, pct)


def p95(values: Sequence[float], min_beyond: int = 10) -> Tuple[float, int]:
    """The nearest-rank p95 of ``values`` and how many samples it rests on.

    Raises:
        ValueError: when fewer than ``min_beyond`` samples lie beyond p95.
    """
    ordered: List[float] = sorted(values)
    count = len(ordered)
    if not count or samples_beyond(count, 95.0) < min_beyond:
        raise ValueError(f"{count} samples leave fewer than {min_beyond} beyond p95")
    return float(ordered[nearest_rank(count, 95.0) - 1]), count


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive ``values``."""
    data = list(values)
    if not data or min(data) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in data) / len(data))
