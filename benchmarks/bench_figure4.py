"""Benchmark regenerating Figure 4: the distribution of cost-reduction ratios.

The figure summarises, per configuration (base case, r = 5*r0, P = 8, L = 0,
asynchronous), the distribution of per-instance ILP/baseline cost ratios.
This benchmark runs a compact version (base, r5, async on a subset of the
tiny dataset) and reports min / quartiles / max / geometric mean per series;
``REPRO_BENCH_LIMIT`` and ``REPRO_ILP_TIME_LIMIT`` scale it up.
"""

from __future__ import annotations

from repro.experiments import paper_reference
from repro.experiments.figures import figure4, render_figure4
from repro.pipeline import ExperimentConfig

from helpers import env_limit, env_time_limit, make_session, record_text

CONFIGURATIONS = ("base", "r5", "async")


def test_figure4_ratio_distributions(benchmark):
    base = ExperimentConfig(name="base", ilp_time_limit=env_time_limit(5.0))
    limit = env_limit(5)
    session = make_session()

    series = benchmark.pedantic(
        lambda: figure4(base_config=base, limit=limit, configurations=CONFIGURATIONS,
                        session=session),
        rounds=1,
        iterations=1,
    )
    text = render_figure4(series)
    paper_lines = ["", "paper geometric means for reference:"]
    for name in CONFIGURATIONS:
        paper_lines.append(f"  {name:<6s}: {paper_reference.GEOMEAN_RATIOS.get(name, float('nan')):.2f}")
    record_text(
        "figure4",
        text + "\n" + "\n".join(paper_lines),
        benchmark,
        **{f"geomean_{name}": s.geomean for name, s in series.items()},
    )
    # every series consists of ratios in (0, 1]: the ILP never loses
    for s in series.values():
        assert s.maximum <= 1.0 + 1e-9
        assert s.minimum > 0.0
