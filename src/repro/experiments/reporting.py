"""Formatting and persistence of experiment results.

Besides the fixed-width tables and CSV export, this module reads and writes
the streaming JSONL result files produced by the execution session
(:mod:`repro.exec.store`, whose :func:`~repro.exec.store.iter_jsonl_records`
parses them): one JSON object per line with the job key, kind, instance
name, pipeline spec and the serialized result.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.exec.store import iter_jsonl_records
from repro.experiments.runner import geometric_mean
from repro.pipeline import InstanceResult

PathLike = Union[str, Path]


def format_results_table(
    results: Sequence[InstanceResult],
    title: str = "",
    paper_reference: Optional[Dict[str, tuple]] = None,
) -> str:
    """Render results as a fixed-width text table (paper values optional)."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = f"{'instance':<20s} {'n':>5s} {'baseline':>10s} {'ILP':>10s} {'ratio':>7s}"
    if paper_reference:
        header += f"  {'paper base':>10s} {'paper ILP':>10s}"
    lines.append(header)
    lines.append("-" * len(header))
    for res in results:
        row = (
            f"{res.instance_name:<20s} {res.num_nodes:>5d} "
            f"{res.baseline_cost:>10.1f} {res.ilp_cost:>10.1f} {res.ratio:>7.2f}"
        )
        if paper_reference:
            ref = paper_reference.get(res.instance_name)
            if ref:
                row += f"  {ref[0]:>10.1f} {ref[1]:>10.1f}"
            else:
                row += f"  {'-':>10s} {'-':>10s}"
        lines.append(row)
    ratios = [res.ratio for res in results]
    lines.append("-" * len(header))
    lines.append(f"geometric-mean cost reduction: {geometric_mean(ratios):.3f}x")
    return "\n".join(lines)


def results_to_rows(results: Sequence[InstanceResult]) -> List[Dict[str, object]]:
    """Flatten results (including extra costs) into plain dict rows."""
    rows = []
    for res in results:
        row: Dict[str, object] = {
            "instance": res.instance_name,
            "nodes": res.num_nodes,
            "baseline_cost": res.baseline_cost,
            "ilp_cost": res.ilp_cost,
            "ratio": res.ratio,
            "solver_status": res.solver_status,
            "solve_time": res.solve_time,
        }
        for key, value in res.extra_costs.items():
            row[key] = value
        rows.append(row)
    return rows


def write_csv(results: Sequence[InstanceResult], path: PathLike) -> None:
    """Write results (one row per instance) to a CSV file."""
    rows = results_to_rows(results)
    if not rows:
        Path(path).write_text("")
        return
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def write_jsonl(results: Sequence[InstanceResult], path: PathLike) -> None:
    """Write results as JSONL (one serialized result per line)."""
    with open(path, "w") as handle:
        for res in results:
            handle.write(
                json.dumps(
                    {"instance": res.instance_name, "result": res.to_dict()},
                    sort_keys=True,
                )
                + "\n"
            )


def read_jsonl(path: PathLike) -> List[InstanceResult]:
    """Read results from a JSONL file written by :func:`write_jsonl` or
    streamed by a session (``results_path=...``)."""
    return [InstanceResult.from_dict(record["result"]) for record in iter_jsonl_records(path)]


def format_slo_table(summary: Dict[str, object], title: str = "") -> str:
    """Render a serve SLO summary (:meth:`repro.serve.ServiceReport.
    slo_summary`) as a fixed-width text table.

    Scalar metrics become ``name value`` rows; the ``spec_requests``
    breakdown becomes one indented row per spec, in the summary's (sorted)
    spec order.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = f"{'metric':<24s} {'value':>16s}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, value in summary.items():
        if name == "spec_requests":
            continue
        rendered = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"{name:<24s} {rendered:>16s}")
    specs = summary.get("spec_requests")
    if isinstance(specs, dict) and specs:
        lines.append("-" * len(header))
        lines.append("requests per pipeline spec:")
        for spec, count in specs.items():
            lines.append(f"  {spec:<36s} {count:>6d}")
    return "\n".join(lines)


def summarize_ratios(results_by_config: Dict[str, Sequence[InstanceResult]]) -> Dict[str, float]:
    """Geometric-mean improvement ratio per configuration (Figure 4 summary)."""
    return {
        name: geometric_mean([res.ratio for res in results])
        for name, results in results_by_config.items()
    }
