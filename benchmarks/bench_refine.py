"""Benchmark of the local-search refinement engine (``repro.refine``).

For every instance of the tiny dataset this harness measures how much of the
baseline-to-ILP cost gap the refiner closes, at what fraction of the ILP
member's wall time:

* ``base``    — the two-stage baseline (``bspg+clairvoyant``),
* ``refined`` — the baseline post-optimized by :func:`repro.refine
  .refine_schedule` (deterministic hill climbing, seeded),
* ``ilp``     — the warm-started holistic ILP member,

and reports, per instance and aggregated, the *closed gap*
``(base - refined) / (base - ilp)`` (1.0 = refinement matches the ILP;
values above 1 mean local search beat the time-limited solver) together
with the wall-time ratio ``refine_time / ilp_time``.

Runs standalone (no pytest-benchmark dependency), which is how the nightly
CI invokes it::

    PYTHONPATH=src python benchmarks/bench_refine.py --limit 13 \
        --out benchmarks/results/bench_refine.json

Environment knobs: ``REPRO_ILP_TIME_LIMIT`` (ILP member budget, default 5 s),
``REPRO_BENCH_LIMIT`` (instance count), ``REPRO_ILP_BACKEND``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.scheduler import MbspIlpScheduler
from repro.core.two_stage import baseline_schedule
from repro.experiments.datasets import tiny_dataset
from repro.experiments.runner import ExperimentConfig
from repro.refine import refine_schedule

sys.path.insert(0, str(Path(__file__).parent))
from helpers import RESULTS_DIR, env_backend, env_limit, env_time_limit  # noqa: E402


def run_bench(limit=None, time_limit=5.0, refine_budget=3000, seed=0):
    config = ExperimentConfig(name="bench-refine", ilp_time_limit=time_limit)
    rows = []
    for dag in tiny_dataset(limit=limit):
        instance = config.instance_for(dag)
        t0 = time.perf_counter()
        base = baseline_schedule(instance, synchronous=True, seed=config.seed)
        base_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        refined = refine_schedule(base.mbsp_schedule, budget=refine_budget, seed=seed)
        refine_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        ilp = MbspIlpScheduler(config.ilp_config()).schedule(instance, baseline=base)
        ilp_time = time.perf_counter() - t0

        gap = base.cost - ilp.best_cost
        closed = (base.cost - refined.final_cost) / gap if gap > 1e-9 else None
        rows.append({
            "instance": dag.name,
            "nodes": dag.num_nodes,
            "base_cost": base.cost,
            "refined_cost": refined.final_cost,
            "ilp_cost": ilp.best_cost,
            "closed_gap": closed,
            "base_time": base_time,
            "refine_time": refine_time,
            "ilp_time": ilp_time,
            "refine_accepted": refined.accepted,
            "refine_proposals": refined.proposals,
        })
    return rows


def summarize(rows, time_limit, refine_budget):
    improved = [r for r in rows if r["refined_cost"] < r["base_cost"] - 1e-9]
    beats_ilp = [r for r in rows if r["refined_cost"] < r["ilp_cost"] - 1e-9]
    gaps = [r["closed_gap"] for r in rows if r["closed_gap"] is not None]
    total_refine = sum(r["refine_time"] for r in rows)
    total_ilp = sum(r["ilp_time"] for r in rows)
    return {
        "backend": env_backend(),
        "ilp_time_limit": time_limit,
        "refine_budget": refine_budget,
        "instances": len(rows),
        "instances_improved_by_refine": len(improved),
        "instances_where_refine_beats_ilp": len(beats_ilp),
        "mean_closed_gap": sum(gaps) / len(gaps) if gaps else None,
        "total_refine_time": total_refine,
        "total_ilp_time": total_ilp,
        "refine_time_fraction_of_ilp": (
            total_refine / total_ilp if total_ilp > 0 else None
        ),
    }


def format_table(rows):
    header = (
        f"{'instance':<14s} {'n':>4s} {'base':>8s} {'refined':>8s} {'ilp':>8s} "
        f"{'closed':>7s} {'t_ref':>7s} {'t_ilp':>7s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        closed = f"{r['closed_gap']:.2f}" if r["closed_gap"] is not None else "-"
        lines.append(
            f"{r['instance']:<14s} {r['nodes']:>4d} {r['base_cost']:>8.1f} "
            f"{r['refined_cost']:>8.1f} {r['ilp_cost']:>8.1f} {closed:>7s} "
            f"{r['refine_time']:>6.2f}s {r['ilp_time']:>6.2f}s"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=env_limit(None))
    parser.add_argument("--time-limit", type=float, default=env_time_limit(5.0))
    parser.add_argument("--refine-budget", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(RESULTS_DIR / "bench_refine.json"))
    args = parser.parse_args(argv)

    rows = run_bench(limit=args.limit, time_limit=args.time_limit,
                     refine_budget=args.refine_budget, seed=args.seed)
    summary = summarize(rows, args.time_limit, args.refine_budget)
    table = format_table(rows)
    print(table)
    print()
    print(json.dumps(summary, indent=2))

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"summary": summary, "instances": rows}, indent=2))
    (out_path.parent / "bench_refine.txt").write_text(table + "\n")
    print(f"\nresults written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
