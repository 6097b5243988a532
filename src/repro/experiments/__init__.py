"""Experiment harness: datasets, configuration, table/figure regeneration."""

from repro.experiments.datasets import (
    InstanceSpec,
    small_dataset,
    small_dataset_specs,
    tiny_dataset,
    tiny_dataset_specs,
)
from repro.experiments.runner import (
    ExperimentConfig,
    InstanceResult,
    geometric_mean,
)
from repro.experiments.parallel import ExperimentJob
from repro.experiments.reporting import (
    format_results_table,
    read_jsonl,
    results_to_rows,
    summarize_ratios,
    write_csv,
    write_jsonl,
)
from repro.experiments import paper_reference
from repro.experiments.tables import (
    geomean_summary,
    p1_experiment,
    recomputation_ablation,
    table1,
    table2,
    table3,
    table4,
    table4_configurations,
)
from repro.experiments.figures import (
    RatioSeries,
    Theorem41Point,
    figure4,
    render_figure4,
    theorem41_comparison,
)

__all__ = [
    "InstanceSpec",
    "small_dataset",
    "small_dataset_specs",
    "tiny_dataset",
    "tiny_dataset_specs",
    "ExperimentConfig",
    "InstanceResult",
    "geometric_mean",
    "ExperimentJob",
    "format_results_table",
    "read_jsonl",
    "results_to_rows",
    "summarize_ratios",
    "write_csv",
    "write_jsonl",
    "paper_reference",
    "geomean_summary",
    "p1_experiment",
    "recomputation_ablation",
    "table1",
    "table2",
    "table3",
    "table4",
    "table4_configurations",
    "RatioSeries",
    "Theorem41Point",
    "figure4",
    "render_figure4",
    "theorem41_comparison",
]
