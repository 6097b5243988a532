"""Regeneration of the paper's figures.

* **Figure 4** — the distribution of per-instance cost-reduction ratios for
  the base case and the alternative parameter settings (r=5*r0, P=8, L=0,
  asynchronous).  The figure in the paper is a strip/box plot; this module
  produces the underlying per-instance ratio series plus summary statistics,
  and can render a simple ASCII box summary (no plotting dependencies).
  The series come from the Table 4 sweep, i.e. the
  ``baseline|ilp(warm=objective)`` pipeline run per configuration on a
  :class:`~repro.exec.Session`.
* **Figures 1 and 2** — the Theorem 4.1 construction and its two schedules;
  :func:`theorem41_comparison` reports the two-stage vs. optimal cost ratio
  as a function of the construction size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cache.conversion import two_stage_schedule
from repro.cache.policies import ClairvoyantPolicy
from repro.exec import Session
from repro.model.cost import synchronous_cost
from repro.model.validation import validate_schedule
from repro.theory.constructions import (
    chain_per_processor_bsp_schedule,
    optimal_gap_schedule,
    two_stage_gap_construction,
)
from repro.experiments.runner import geometric_mean
from repro.pipeline import ExperimentConfig
from repro.experiments.tables import table4


@dataclass
class RatioSeries:
    """Per-instance cost-reduction ratios of one configuration."""

    name: str
    ratios: List[float]

    @property
    def geomean(self) -> float:
        return geometric_mean(self.ratios)

    @property
    def minimum(self) -> float:
        return min(self.ratios) if self.ratios else 1.0

    @property
    def maximum(self) -> float:
        return max(self.ratios) if self.ratios else 1.0

    def quantile(self, q: float) -> float:
        if not self.ratios:
            return 1.0
        ordered = sorted(self.ratios)
        idx = min(int(q * (len(ordered) - 1) + 0.5), len(ordered) - 1)
        return ordered[idx]


def figure4(
    base_config: Optional[ExperimentConfig] = None,
    limit: Optional[int] = None,
    configurations: Sequence[str] = ("base", "r5", "p8", "L0", "async"),
    verbose: bool = False,
    session: Optional[Session] = None,
) -> Dict[str, RatioSeries]:
    """Cost-reduction ratio distributions for the Figure 4 configurations.

    The underlying Table 4 sweep runs as pipeline plans on a session; pass
    a pre-built ``session`` to parallelise or cache it.
    """
    results = table4(
        base_config=base_config,
        limit=limit,
        configurations=configurations,
        verbose=verbose,
        session=session,
    )
    series = {
        name: RatioSeries(name=name, ratios=[r.ratio for r in rows])
        for name, rows in results.items()
    }
    if verbose:  # pragma: no cover
        print(render_figure4(series))
    return series


def render_figure4(series: Dict[str, RatioSeries]) -> str:
    """ASCII rendering of the Figure 4 ratio distributions."""
    lines = ["Figure 4: cost reduction ratios (ILP / baseline)", ""]
    lines.append(f"{'config':<8s} {'min':>6s} {'q25':>6s} {'median':>7s} {'q75':>6s} {'max':>6s} {'geomean':>8s}")
    for name, s in series.items():
        lines.append(
            f"{name:<8s} {s.minimum:>6.2f} {s.quantile(0.25):>6.2f} "
            f"{s.quantile(0.5):>7.2f} {s.quantile(0.75):>6.2f} {s.maximum:>6.2f} "
            f"{s.geomean:>8.3f}"
        )
    return "\n".join(lines)


@dataclass
class Theorem41Point:
    """One data point of the Figure 1/2 comparison."""

    d: int
    m: int
    two_stage_cost: float
    optimal_cost: float

    @property
    def ratio(self) -> float:
        return self.two_stage_cost / self.optimal_cost


def theorem41_comparison(
    sizes: Sequence[int] = (2, 4, 6, 8, 10),
    chain_factor: int = 2,
    g: float = 1.0,
) -> List[Theorem41Point]:
    """Two-stage vs. optimal cost on the Theorem 4.1 gadget for growing ``d``.

    The ratio grows (asymptotically linearly in ``d``), which is the
    executable version of Theorem 4.1 / Figures 1 and 2.
    """
    points: List[Theorem41Point] = []
    for d in sizes:
        m = chain_factor * d
        construction = two_stage_gap_construction(d=d, m=m)
        instance = construction.instance(g=g, L=0.0)
        bsp = chain_per_processor_bsp_schedule(construction)
        two_stage = two_stage_schedule(bsp, instance, ClairvoyantPolicy())
        validate_schedule(two_stage)
        optimal = optimal_gap_schedule(construction, g=g, L=0.0)
        validate_schedule(optimal)
        points.append(
            Theorem41Point(
                d=d,
                m=m,
                two_stage_cost=synchronous_cost(two_stage),
                optimal_cost=synchronous_cost(optimal),
            )
        )
    return points
