"""Pareto ranking of sweep points: accuracy vs. circuit cost vs. clock.

The sweep scores every (design x workload x CPR) point; this module
aggregates those into per-(design x CPR) candidates (averaging the error
axes across workloads, the cost axes being workload-independent),
extracts the Pareto frontier under minimisation objectives, and
annotates each frontier point with the nearest hand-picked paper
design, so the report shows where the paper's eleven quadruples sit in
the larger space.

The default objectives span five axes: exactness *guarantee* (the
analytic :attr:`~repro.core.config.ISAConfig.is_provably_exact`
property — a design whose measured error happens to be zero on one
finite workload is not the same quality as one that can never err),
measured joint RMS relative error, gate count, the delay-sum area
proxy, and clock period.  Both cost axes matter: speculative designs
trade fewer gates for wider (slower, larger-area) cells after sizing,
so gate count and area rank them differently.

Dominance is the standard weak-dominance rule: ``a`` dominates ``b``
when ``a`` is no worse on every objective and strictly better on at
least one.  The exact baseline at the safe clock period has zero
measured *and* guaranteed error, so it anchors every frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import AnalysisError
from repro.experiments.designs import PAPER_QUADRUPLES
from repro.explore.sweep import SweepPoint

Quadruple = Tuple[int, int, int, int]
Objective = Callable[["ParetoPoint"], float]

#: Rows per block of the skyline pass in :func:`nondominated_mask`.
_SKYLINE_BLOCK = 16


@dataclass(frozen=True)
class ParetoPoint:
    """One Pareto candidate: a design at one CPR, aggregated over workloads."""

    design: str
    quadruple: Optional[Quadruple]
    cpr: float
    clock_period: float
    rms_re: float
    error_rate: float
    gates: int
    area_proxy: float
    critical_path_delay: float
    workloads: int
    provably_exact: bool = False

    @property
    def is_exact(self) -> bool:
        """True for the exact-baseline design."""
        return self.quadruple is None


#: Default minimisation objectives: exactness guarantee, measured
#: accuracy, gate count, area and clock period.
DEFAULT_OBJECTIVES: Tuple[Objective, ...] = (
    lambda point: 0.0 if point.provably_exact else 1.0,
    lambda point: point.rms_re,
    lambda point: float(point.gates),
    lambda point: point.area_proxy,
    lambda point: point.clock_period,
)


def aggregate_points(points: Sequence[SweepPoint]) -> List[ParetoPoint]:
    """Collapse sweep points into per-(design x CPR) Pareto candidates.

    Error axes are averaged across the sweep's workloads; the structural
    cost axes are identical across workloads of one design and are taken
    from the first point seen.
    """
    if not points:
        raise AnalysisError("cannot aggregate an empty sweep")
    grouped: Dict[Tuple[str, float], List[SweepPoint]] = {}
    order: List[Tuple[str, float]] = []
    for point in points:
        key = (point.design, point.cpr)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(point)
    candidates: List[ParetoPoint] = []
    for key in order:
        group = grouped[key]
        first = group[0]
        candidates.append(ParetoPoint(
            design=first.design,
            quadruple=first.quadruple,
            cpr=first.cpr,
            clock_period=first.clock_period,
            rms_re=sum(p.stats.rms_relative_error for p in group) / len(group),
            error_rate=sum(p.stats.error_rate for p in group) / len(group),
            gates=first.cost.gates,
            area_proxy=first.cost.area_proxy,
            critical_path_delay=first.cost.critical_path_delay,
            workloads=len(group),
            provably_exact=first.provably_exact,
        ))
    return candidates


def dominates(first: ParetoPoint, second: ParetoPoint,
              objectives: Sequence[Objective] = DEFAULT_OBJECTIVES) -> bool:
    """True when ``first`` weakly dominates ``second`` on every objective."""
    no_worse = all(objective(first) <= objective(second) for objective in objectives)
    strictly_better = any(objective(first) < objective(second) for objective in objectives)
    return no_worse and strictly_better


def objective_matrix(candidates: Sequence[ParetoPoint],
                     objectives: Sequence[Objective] = DEFAULT_OBJECTIVES) -> np.ndarray:
    """Objective values of every candidate, shape ``(candidates, objectives)``."""
    if not objectives:
        raise AnalysisError("objective_matrix needs at least one objective")
    return np.array([[objective(candidate) for objective in objectives]
                     for candidate in candidates], dtype=np.float64).reshape(
                         len(candidates), len(objectives))


def nondominated_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of the weakly non-dominated rows of ``(n, k)`` values.

    Row ``j`` dominates row ``i`` when it is no worse on every column and
    strictly better on at least one (all objectives minimised) — the
    same rule as :func:`dominates`.  A dominator is always
    lexicographically smaller than the row it dominates, and dominance
    is transitive, so a skyline pass suffices: rows are visited in
    lexicographic order, block by block, and each block is compared
    only with the survivors so far and with itself.  Only comparisons
    are involved, so the mask is exactly the all-pairs one (rows with a
    NaN neither dominate nor are dominated), at a fraction of the cost
    on the adaptive explorer's large predicted-candidate sets, where
    most rows are dominated.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise AnalysisError(f"expected a 2-D objective matrix, got shape {values.shape}")
    count, columns = values.shape
    mask = np.ones(count, dtype=bool)
    if count == 0 or columns == 0:
        return mask
    order = np.lexsort(values.T[::-1])
    ordered = values[order]
    keep = np.zeros(count, dtype=bool)
    survivors = ordered[:0]
    start = 0
    while start < count:
        # Bound the (block x compared rows x columns) temporaries.
        rows = max(1, min(_SKYLINE_BLOCK, (4 << 20) // (
            (survivors.shape[0] + _SKYLINE_BLOCK) * columns)))
        block = ordered[start:start + rows]
        against = np.concatenate([survivors, block])
        no_worse = (against[None, :, :] <= block[:, None, :]).all(axis=2)
        strictly_better = (against[None, :, :] < block[:, None, :]).any(axis=2)
        alive = ~(no_worse & strictly_better).any(axis=1)
        keep[start:start + rows] = alive
        survivors = np.concatenate([survivors, block[alive]])
        start += rows
    mask[order] = keep
    return mask


def pareto_frontier(candidates: Sequence[ParetoPoint],
                    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES) -> List[ParetoPoint]:
    """The non-dominated subset of ``candidates``, in input order."""
    if not objectives:
        raise AnalysisError("pareto_frontier needs at least one objective")
    if not candidates:
        return []
    mask = nondominated_mask(objective_matrix(candidates, objectives))
    return [candidate for candidate, keep in zip(candidates, mask) if keep]


def frontier_keys(frontier: Sequence[ParetoPoint]) -> Set[Tuple[Optional[Quadruple], float]]:
    """Identity set of a frontier: the ``(quadruple, cpr)`` pairs on it.

    The exact baseline appears as ``(None, cpr)``.  Two frontiers over
    the same measured points compare by this set — the adaptive
    explorer's convergence check and its recall metric both use it.
    """
    return {(point.quadruple, point.cpr) for point in frontier}


def rank_frontier(frontier: Sequence[ParetoPoint]) -> List[ParetoPoint]:
    """Frontier sorted for the report: most accurate first, cheapest breaking ties."""
    return sorted(frontier, key=lambda point: (point.rms_re, point.gates,
                                               point.clock_period))


def quadruple_distance(first: Quadruple, second: Quadruple) -> float:
    """Euclidean distance between two quadruples (the annotation metric)."""
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(first, second)))


def nearest_paper_design(quadruple: Optional[Quadruple]) -> Tuple[str, float]:
    """Closest of the paper's eleven quadruples, with its distance.

    The exact baseline maps to itself (the paper's twelfth column).  The
    paper picked its designs at width 32; the annotation is about where
    a swept configuration sits relative to that hand-picked set, so the
    comparison is quadruple-space only and width-agnostic.
    """
    if quadruple is None:
        return "exact", 0.0
    best = min(PAPER_QUADRUPLES, key=lambda paper: quadruple_distance(quadruple, paper))
    return "({},{},{},{})".format(*best), quadruple_distance(quadruple, best)
