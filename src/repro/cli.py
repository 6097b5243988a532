"""Command-line interface for the MBSP scheduling library.

Twelve sub-commands are provided:

* ``schedule``   — generate (or load) a DAG, schedule it with a chosen method
  and print costs, validation results and an optional schedule rendering;
* ``refine``     — schedule a DAG and post-optimize the schedule with the
  local-search refinement engine, printing the before/after costs and the
  accepted-move trace;
* ``pipeline``   — the composable scheduler pipelines (:mod:`repro.pipeline`):
  ``pipeline list`` prints the registered stages and the member spec table,
  ``pipeline run --spec "bspg+clairvoyant|refine|ilp"`` runs one pipeline on
  one DAG and prints per-stage telemetry (cost in/out, wall time, solver
  calls);
* ``dataset``    — list the benchmark datasets (instance names, sizes, r0);
* ``exec``       — the unified execution core (:mod:`repro.exec`):
  ``exec run`` executes pipeline specs over a dataset through one
  ``Session``, streaming per-job results as they complete and reducing to
  the best-per-instance table.  Specs support ``race(a,b,...)`` (concurrent
  branches, deterministic winner), ``stage@backend`` pins, per-stage
  ``budget=<s>s`` wall-clock limits (``--budget`` applies a default to
  every stage) and the ``key={a,b,c}`` sweep syntax expanding to member
  families.  Plans also shard across processes or machines:
  ``exec run --spawn-shards N`` fork-joins locally, ``exec run --shards N
  --shard-id I`` runs one worker shard (share ``--cache-dir``; each shard
  writes ``FILE.jsonl.shard<I>of<N>``), and ``exec merge`` stable-merges
  the per-shard files back into plan order — byte-identical to a
  single-process run;
* ``serve``      — the online scheduling service (:mod:`repro.serve`):
  ``serve bench`` replays a seeded Poisson-style arrival trace of DAG
  scheduling requests through the load-adaptive service loop and prints
  the SLO summary (p50/p99 latency, throughput, deadline-miss rate,
  cache-hit rate).  The timeline is virtual, so the JSON summary
  (``--output FILE.json``) is byte-identical across repeats, machines and
  ``--workers`` counts — the CI determinism gate diffs two runs;
* ``experiment`` — run one of the paper's table experiments and print the
  comparison against the paper's reference values;
* ``obs``        — the unified tracing & metrics layer (:mod:`repro.obs`):
  ``obs export`` merges the per-process spill files of a run traced with
  ``REPRO_TRACE=<dir>`` into one Chrome trace-event file (Perfetto /
  ``chrome://tracing``) or a flat metrics dump.  ``exec run``,
  ``pipeline run`` and ``serve bench`` also accept ``--trace FILE`` for
  the end-to-end shortcut, and ``exec run`` / ``experiment`` /
  ``serve bench`` accept ``--progress`` for a live stderr progress line
  (TTY only).  Tracing never changes results: spans and metrics stay out
  of job fingerprints, cache keys and the serve virtual timeline;
* ``portfolio``  — run a scheduler portfolio over a dataset and report the
  best pipeline per instance.  Members are pipeline specs: pass legacy names
  through ``--members`` and/or full specs through repeatable ``--pipeline``
  flags; ``--list-members`` prints every known member with its canonical
  pipeline.  Unknown member names warn and are skipped (matching the
  ``REPRO_*`` environment-knob convention) instead of failing the sweep;
* ``lint``       — the static determinism/concurrency analyzer
  (:mod:`repro.lint`): AST rules over Python sources, gated against
  ``lint-baseline.json`` (exit 0 clean, 1 findings, 2 usage error);
* ``check``      — validate pipeline specs, serve policy tiers and plan
  shardability statically, without executing anything (the default smoke
  set is the default portfolio members, the documented race specs and the
  shipped policy tiers);
* ``learn``      — learned member selection (:mod:`repro.learn`):
  ``learn mine`` turns JSONL results files into a byte-stable history,
  ``learn select`` predicts the top-k members per instance from it and
  ``learn report`` prints per-member cost distributions.

Refinement threads through everything: ``schedule --refine`` post-optimizes
the produced schedule, ``experiment --refine`` refines every per-instance
result, and ``portfolio --refine`` adds a refined variant for every
requested member (``"<member>+refine"`` for legacy names, ``"<spec>|refine"``
for pipeline specs; ``--refine-budget`` bounds the move proposals per
schedule, ``--refine-strategy hill|anneal`` picks the search strategy).

The ``experiment`` and ``portfolio`` commands run their pipeline plans on
an execution session (:mod:`repro.exec`): ``--workers N`` fans jobs out
over N processes, ``--cache-dir DIR`` caches results on disk (a repeated
invocation performs zero solver calls), and ``--results FILE.jsonl`` /
``--resume`` stream results and resume interrupted sweeps.  Add
``--node-limit`` to bound ILP solves by branch-and-bound nodes instead of
wall clock when a sweep must be exactly reproducible regardless of machine
load.

Every ILP solve goes through the pluggable backend registry
(:mod:`repro.ilp.backends`): ``--backend scipy|bnb|auto`` selects the solver
per command (default: ``REPRO_ILP_BACKEND`` or ``scipy``).  The portfolio
additionally supports bound-aware pruning: ``--prune-gap G`` skips the
warm-started ``ilp`` member's solve when its baseline is provably within
``G`` of the theory lower bound (default ``0.0`` — skip only provably
optimal baselines, which never changes the reported best costs;
``--no-prune`` disables the check).

Examples
--------
```
python -m repro.cli schedule --generator spmv --size 5 --processors 2 --method ilp --time-limit 10
python -m repro.cli schedule --dag-file my_graph.json --processors 4 --method baseline --render
python -m repro.cli refine --generator spmv --size 6 --processors 4 --refine-budget 5000 --trace
python -m repro.cli pipeline list
python -m repro.cli pipeline run --spec "bspg+clairvoyant|refine|ilp" --generator spmv --size 4
python -m repro.cli portfolio --refine --members bspg+clairvoyant,cilk+lru --limit 4
python -m repro.cli portfolio --pipeline "bspg+clairvoyant|refine|ilp" --limit 4
python -m repro.cli portfolio --list-members
python -m repro.cli dataset --which tiny --scale default
python -m repro.cli serve bench --seed 7 --requests 5000 --rate 4 --output serve.json
python -m repro.cli experiment --table 1 --limit 3 --time-limit 5 --workers 4 --cache-dir .repro-cache
python -m repro.cli experiment --table 1 --backend auto --workers 4
python -m repro.cli portfolio --members bspg+clairvoyant,cilk+lru,ilp --limit 4 --workers 4
python -m repro.cli portfolio --backend auto --prune-gap 0.05 --processors 1
```
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional

from repro.dag import io as dag_io
from repro.dag.analysis import assign_random_memory_weights, dag_statistics
from repro.dag.generators import (
    bicgstab,
    conjugate_gradient,
    iterated_spmv,
    kmeans,
    knn_iteration,
    pregel,
    random_layered_dag,
    simple_pagerank,
    snni_graphchallenge,
    spmv,
)
from repro.dag.graph import ComputationalDag
from repro.exceptions import ConfigurationError
from repro.ilp import SolverOptions
from repro.model import (
    asynchronous_cost,
    make_instance,
    render_gantt,
    render_superstep_table,
    synchronous_cost,
    validate_schedule,
)
from repro.core import MbspIlpConfig, schedule_mbsp

GENERATORS = {
    "spmv": lambda size, seed: spmv(size, seed=seed),
    "iterated_spmv": lambda size, seed: iterated_spmv(size, 2, seed=seed),
    "cg": lambda size, seed: conjugate_gradient(max(size // 2, 2), 1, seed=seed),
    "knn": lambda size, seed: knn_iteration(size, 2, seed=seed),
    "bicgstab": lambda size, seed: bicgstab(iterations=max(size // 4, 1)),
    "kmeans": lambda size, seed: kmeans(max(size // 4, 2), 2, 2),
    "pregel": lambda size, seed: pregel(max(size // 4, 2), 3),
    "pagerank": lambda size, seed: simple_pagerank(max(size // 2, 2), 4, seed=seed),
    "snni": lambda size, seed: snni_graphchallenge(max(size // 2, 2), 4, seed=seed),
    "random": lambda size, seed: random_layered_dag(4, max(size // 4, 2), seed=seed),
}


def _build_dag(args: argparse.Namespace) -> ComputationalDag:
    if args.dag_file:
        return dag_io.load(args.dag_file)
    if args.generator not in GENERATORS:
        raise SystemExit(
            f"unknown generator {args.generator!r}; available: {sorted(GENERATORS)}"
        )
    dag = GENERATORS[args.generator](args.size, args.seed)
    assign_random_memory_weights(dag, low=1, high=5, seed=args.seed)
    return dag


def _refine_config_from_args(args: argparse.Namespace, enabled: bool = True):
    from repro.refine import RefineConfig

    return RefineConfig(
        enabled=enabled,
        budget=args.refine_budget,
        seed=getattr(args, "seed", 0),
        strategy=args.refine_strategy,
    )


def _schedule_dag(args: argparse.Namespace):
    """Shared by ``schedule`` and ``refine``: build DAG, instance, schedule."""
    dag = _build_dag(args)
    stats = dag_statistics(dag)
    print(f"DAG {dag.name}: {int(stats['nodes'])} nodes, {int(stats['edges'])} edges, "
          f"r0 = {stats['r0']:g}")
    instance = make_instance(
        dag,
        num_processors=args.processors,
        cache_factor=args.cache_factor,
        g=args.g,
        L=args.latency,
    )
    config = MbspIlpConfig(
        synchronous=not args.asynchronous,
        solver_options=SolverOptions(time_limit=args.time_limit),
        backend=args.backend,
    )
    schedule = schedule_mbsp(instance, method=args.method, config=config,
                             synchronous=not args.asynchronous, seed=args.seed)
    validate_schedule(schedule, require_all_computed=False)
    return schedule


def _finish_schedule_output(args: argparse.Namespace, schedule) -> int:
    if args.render:
        print()
        print(render_superstep_table(schedule))
        print()
        print(render_gantt(schedule))
    if args.output:
        from repro.model import save_schedule

        save_schedule(schedule, args.output)
        print(f"schedule written to {args.output}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    schedule = _schedule_dag(args)
    print(f"method: {args.method}   supersteps: {schedule.num_supersteps}")
    print(f"synchronous cost : {synchronous_cost(schedule):.2f}")
    print(f"asynchronous cost: {asynchronous_cost(schedule):.2f}")
    if args.refine:
        from repro.refine import Refiner

        result = Refiner(_refine_config_from_args(args)).refine(
            schedule, synchronous=not args.asynchronous
        )
        schedule = result.schedule
        print(result.summary())
        print(f"refined synchronous cost : {synchronous_cost(schedule):.2f}")
        print(f"refined asynchronous cost: {asynchronous_cost(schedule):.2f}")
    return _finish_schedule_output(args, schedule)


def _cmd_refine(args: argparse.Namespace) -> int:
    from repro.refine import Refiner

    schedule = _schedule_dag(args)
    synchronous = not args.asynchronous
    before = synchronous_cost(schedule) if synchronous else asynchronous_cost(schedule)
    print(f"method: {args.method}   supersteps: {schedule.num_supersteps}   "
          f"cost: {before:.2f}")
    result = Refiner(_refine_config_from_args(args)).refine(
        schedule, synchronous=synchronous
    )
    print(result.summary())
    if args.trace:
        for entry in result.trace:
            print(f"  #{entry.proposal:<6d} {entry.move:<10s} "
                  f"delta={entry.delta:+9.2f} cost={entry.cost:10.2f}")
    schedule = result.schedule
    validate_schedule(schedule, require_all_computed=False)
    print(f"refined supersteps: {schedule.num_supersteps}")
    print(f"refined synchronous cost : {synchronous_cost(schedule):.2f}")
    print(f"refined asynchronous cost: {asynchronous_cost(schedule):.2f}")
    return _finish_schedule_output(args, schedule)


def _print_member_table(title: str) -> None:
    """The legacy member names with their canonical pipelines, under
    ``title`` (``pipeline list`` and ``portfolio --list-members``)."""
    from repro.pipeline import LEGACY_MEMBER_SPECS

    print(title)
    for member, spec in LEGACY_MEMBER_SPECS.items():
        print(f"  {member:<28s} {spec}")


def _cmd_pipeline_list(args: argparse.Namespace) -> int:
    from repro.pipeline import EXAMPLE_RACE_SPECS, stage_descriptions

    print("registered pipeline stages (compose with '|'):")
    for name, description in stage_descriptions():
        print(f"  {name:<12s} {description}")
    print()
    _print_member_table("portfolio member specs (legacy name -> canonical pipeline):")
    print()
    print('spec grammar: stage["("key=value,...")"] joined by "|", e.g. '
          '"bspg+clairvoyant|refine|ilp"')
    print("  stage@backend   pins one stage's ILP backend, e.g. 'ilp@bnb'")
    print("  budget=<s>s     wall-clock stage budget (note the 's'), "
          "e.g. 'ilp(budget=2s)'")
    print("  race(a,b,...)   concurrent branch race; deterministic winner "
          "(cost, then canonical branch order)")
    print("  key={a,b,c}     sweep syntax: --pipeline expands to one member "
          "per value, e.g. 'dac(max_part_size={2,4,8})'")
    print()
    print("example race members:")
    for label, spec in EXAMPLE_RACE_SPECS.items():
        print(f"  {label:<18s} {spec}")
    return 0


def _node_limit(text: str) -> int:
    """The ``--node-limit`` value: an integer >= 0, else a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _with_trace(args: argparse.Namespace, body) -> int:
    """Run ``body()``; with ``--trace FILE`` the run is traced end to end
    (temporary spill directory, so pool/shard worker processes join in)
    and the merged Chrome trace-event file is written on the way out."""
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return body()
    from repro.obs import chrome_trace_file

    with chrome_trace_file(trace_path) as trace:
        code = body()
    print(f"chrome trace written to {trace_path} ({trace.span_count} spans; "
          f"load it in Perfetto or chrome://tracing)")
    return code


def _make_progress(args: argparse.Namespace):
    """The opt-in ``--progress`` live stderr renderer (``None`` unless
    asked; the renderer itself is a no-op when stderr is not a TTY)."""
    if not getattr(args, "progress", False):
        return None
    from repro.obs import ProgressRenderer

    return ProgressRenderer()


def _cmd_pipeline_run(args: argparse.Namespace) -> int:
    return _with_trace(args, lambda: _pipeline_run_body(args))


def _pipeline_run_body(args: argparse.Namespace) -> int:
    from repro.exec import Session
    from repro.pipeline import canonicalize, resolve_member, with_default_budget

    dag = _build_dag(args)
    stats = dag_statistics(dag)
    print(f"DAG {dag.name}: {int(stats['nodes'])} nodes, {int(stats['edges'])} edges, "
          f"r0 = {stats['r0']:g}")
    config = _experiment_config(
        args,
        "pipeline",
        num_processors=args.processors,
        cache_factor=args.cache_factor,
        g=args.g,
        L=args.latency,
        synchronous=not args.asynchronous,
        seed=args.seed,
        refine=_refine_config_from_args(args, enabled=False),
    )
    spec = resolve_member(args.spec)
    if getattr(args, "budget", None) is not None:
        spec = with_default_budget(spec, args.budget)
    print(f"canonical spec: {canonicalize(spec)}")
    prune_gap = None if args.no_prune else args.prune_gap
    # the session grants its worker slots to the pipeline, so race(...)
    # stages fan their branches out over --workers threads
    session = Session(workers=getattr(args, "workers", 1))
    result = session.run_pipeline(spec, dag, config, prune_gap=prune_gap)
    print(result.describe())
    if result.applicable and result.schedule is not None:
        validate_schedule(result.schedule, require_all_computed=False)
        print(f"status: {result.status()}")
        return _finish_schedule_output(args, result.schedule)
    print(f"status: {result.status()}")
    return 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    try:
        return _with_trace(args, lambda: _serve_bench_body(args))
    except ConfigurationError as exc:
        # a bad flag value: one line and the usage exit code, as argparse
        # and `repro lint` report one; the trace is abandoned unwritten
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _serve_bench_body(args: argparse.Namespace) -> int:
    """Replay a seeded arrival trace through the online scheduling service
    and report the SLO summary; --output writes the byte-stable JSON
    summary the CI determinism gate diffs."""
    import json as _json
    from contextlib import nullcontext

    from repro.experiments.reporting import format_slo_table
    from repro.serve import run_serve_bench

    progress = _make_progress(args)
    with progress if progress is not None else nullcontext():
        summary = run_serve_bench(
            seed=args.seed,
            requests=args.requests,
            rate=args.rate,
            servers=args.servers,
            workers=args.workers,
            cache_dir=args.cache_dir,
            results_path=args.results,
            dataset=args.which,
            scale=args.scale,
            limit=args.limit,
            progress=progress,
        )
    text = _json.dumps(summary, sort_keys=True, indent=2)
    if args.json:
        print(text)
    else:
        print(format_slo_table(
            summary["slo"],
            title=f"serve bench (seed {args.seed}, rate {args.rate:g}, "
                  f"{args.servers} virtual server(s))",
        ))
        print(f"trace digest: {summary['trace_digest']}")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"summary written to {args.output}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.experiments.datasets import small_dataset_specs, tiny_dataset_specs

    specs = tiny_dataset_specs(args.scale) if args.which == "tiny" else small_dataset_specs(args.scale)
    print(f"{args.which} dataset ({args.scale} scale): {len(specs)} instances")
    header = f"{'instance':<20s} {'family':<8s} {'nodes':>6s} {'edges':>6s} {'r0':>5s}"
    print(header)
    print("-" * len(header))
    for spec in specs:
        dag = spec.build()
        stats = dag_statistics(dag)
        print(f"{spec.name:<20s} {spec.family:<8s} {int(stats['nodes']):>6d} "
              f"{int(stats['edges']):>6d} {stats['r0']:>5.0f}")
    return 0


def _dataset(args: argparse.Namespace):
    """The DAGs behind ``--which``/``--scale``/``--limit``."""
    from repro.experiments.datasets import small_dataset, tiny_dataset

    build = tiny_dataset if args.which == "tiny" else small_dataset
    return build(scale=args.scale, limit=args.limit)


def _make_session(args: argparse.Namespace):
    """The session behind ``--workers``/``--cache-dir``/``--results``/``--resume``."""
    from repro.exec import Session

    return Session(
        workers=args.workers,
        cache_dir=args.cache_dir,
        results_path=args.results,
        resume=args.resume,
    )


def _experiment_config(args: argparse.Namespace, name: str, **fields):
    """The ExperimentConfig of a command: the ILP budget flags
    (``--time-limit``, ``--node-limit``, ``--backend``) plus the command's
    own ``fields``.  Without ``--backend`` the config falls back to
    REPRO_ILP_BACKEND / scipy."""
    from repro.pipeline import ExperimentConfig

    if args.backend:
        fields["ilp_backend"] = args.backend
    return ExperimentConfig(
        name=name,
        ilp_time_limit=args.time_limit,
        ilp_node_limit=args.node_limit,
        **fields,
    )


def _refine_fields(args: argparse.Namespace, specs) -> dict:
    """The ``refine`` config field when a spec in ``specs`` refines.

    The refine knobs enter the config (and so every job hash) only when a
    refined member consumes them, so runs without refined members keep
    cache keys independent of the knobs; with refined members present they
    are part of every job hash by design, and sweeps with different
    refinement settings never collide.
    """
    if any("refine" in spec for spec in specs):
        return {"refine": _refine_config_from_args(args, enabled=False)}
    return {}


def _comma_list(text: str) -> List[str]:
    """The non-empty items of a comma-separated flag value (``--members``)."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import paper_reference
    from repro.experiments.reporting import format_results_table
    from repro.experiments.tables import table1, table2, table4

    session = _make_session(args)
    progress = _make_progress(args)
    if progress is not None:
        progress.attach(session)
    refine_kwargs = (
        {"refine": _refine_config_from_args(args)} if args.refine else {}
    )
    config = _experiment_config(args, "base", **refine_kwargs)
    if args.table == 1:
        results = table1(config=config, limit=args.limit, session=session)
        print(format_results_table(results, "Table 1", paper_reference.TABLE1))
    elif args.table == 2:
        results = table2(limit=args.limit, config=config.variant(cache_factor=5.0),
                         session=session)
        print(format_results_table(results, "Table 2", paper_reference.TABLE2))
    elif args.table == 4:
        by_config = table4(base_config=config, limit=args.limit, session=session)
        for name, results in by_config.items():
            ref = paper_reference.TABLE4.get(name, paper_reference.TABLE1)
            print(format_results_table(results, f"Table 4 [{name}]", ref))
            print()
    else:
        raise SystemExit("only tables 1, 2 and 4 are runnable from the CLI")
    if progress is not None:
        progress.close()
    print(f"engine: {session.stats.describe()}")
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.pipeline import (
        LEGACY_MEMBER_SPECS,
        REFINE_SUFFIX,
        parse as parse_spec,
        resolve_member,
    )
    from repro.portfolio import DEFAULT_MEMBERS, Portfolio, format_portfolio_table

    if args.list_members:
        _print_member_table("portfolio members (legacy name -> canonical pipeline spec):")
        print("any pipeline spec is a valid member too "
              "(see 'repro pipeline list' for the stages)")
        print("sweep syntax: --pipeline 'dac(max_part_size={2,4,8})' expands "
              "to one member per value (cartesian across several sweeps)")
        print("races: --pipeline 'baseline|race(ilp@bnb,ilp@scipy)' — "
              "deterministic winner, losers cancelled; budget=<s>s adds "
              "wall-clock stage budgets")
        return 0

    members = _comma_list(args.members) if args.members else list(DEFAULT_MEMBERS)
    # --pipeline accepts full specs including race(...), budget=<s>s and the
    # sweep syntax key={a,b,c}, which expands to one member per combination
    members += _expand_pipeline_specs(args.pipeline)
    # validated before the --refine expansion, so a typo warns once, not twice
    members, resolved = _validate_members(members, _NO_VALID_MEMBERS)
    if args.refine:
        for member in list(members):
            # legacy "+refine" names and raw specs whose last stage already
            # is a refine pass gain nothing from a second one
            if parse_spec(member).stages[-1].name == "refine":
                continue
            # legacy names take the historical "+refine" suffix; raw
            # pipeline specs are extended with an explicit refine stage
            variant = member + REFINE_SUFFIX if member in LEGACY_MEMBER_SPECS \
                else member + "|refine"
            members.append(variant)
            resolved[variant] = resolve_member(variant)
    dags = _dataset(args)
    session = _make_session(args)
    config = _experiment_config(
        args,
        "portfolio",
        num_processors=args.processors,
        **_refine_fields(args, resolved.values()),
    )
    prune_gap = None if args.no_prune else args.prune_gap
    # adaptive member selection (repro.learn): an unreadable or malformed
    # history file warns and falls back to exhaustive evaluation (matching
    # the REPRO_* env-knob convention); a missing --history likewise warns
    # inside Portfolio — an adaptive request never crashes a sweep
    history = None
    if args.select == "adaptive" and args.history:
        from repro.learn import LearnedHistory

        try:
            history = LearnedHistory.load(args.history)
        except ConfigurationError as exc:
            warnings.warn(
                f"ignoring unusable history file ({exc}); "
                f"falling back to exhaustive evaluation",
                UserWarning,
            )
    portfolio = Portfolio(
        config=config,
        prune_gap=prune_gap,
        select=args.select,
        top_k=args.top_k,
        history=history,
        selector=args.selector,
    )
    rows = portfolio.run(members, dags, session=session)
    print(format_portfolio_table(
        rows, reuse=portfolio.last_reuse, selection=portfolio.last_selection
    ))
    wins: dict = {}
    for row in rows:
        winner = row.best_member if row.has_winner else "(none applicable)"
        wins[winner] = wins.get(winner, 0) + 1
    summary = ", ".join(f"{member}: {count}" for member, count in sorted(wins.items()))
    print(f"wins per member: {summary}")
    pruned = sum(row.num_pruned for row in rows)
    if prune_gap is None:
        print("bound pruning: disabled")
    else:
        print(f"bound pruning: {pruned} ILP solve(s) skipped (gap {prune_gap:g})")
    print(f"ilp backend: {config.ilp_backend}")
    print(f"engine: {session.stats.describe()}")
    return 0


def _cmd_learn_mine(args: argparse.Namespace) -> int:
    from repro.learn import mine_history
    from repro.pipeline import ExperimentConfig

    config = ExperimentConfig(name="learn", num_processors=args.processors)
    dags = _dataset(args)
    history, stats = mine_history(args.results, dags, config)
    history.save(args.output)
    print(f"mined: {stats.describe()}")
    print(f"history: {len(history.instances)} instance(s), "
          f"{history.num_observations} (instance, member) entr(ies), "
          f"{len(history.bucket_table())} feature bucket(s)")
    print(f"digest: {history.digest()}")
    print(f"written to {args.output}")
    return 0


def _cmd_learn_select(args: argparse.Namespace) -> int:
    from repro.learn import LearnedHistory, plan_selection
    from repro.pipeline import ExperimentConfig
    from repro.portfolio import DEFAULT_MEMBERS

    history = LearnedHistory.load(args.history)
    members = _comma_list(args.members) if args.members else list(DEFAULT_MEMBERS)
    members, canonical = _validate_members(members, _NO_VALID_MEMBERS)
    config = ExperimentConfig(name="learn", num_processors=args.processors)
    dags = _dataset(args)
    report = plan_selection(
        history, dags, config, members, canonical,
        top_k=args.top_k, selector=args.selector, seed=args.seed,
    )
    print(f"predicted top-{report.top_k} members per instance "
          f"({args.selector} selector, history {history.digest()[:16]}):")
    for selection in report.selections:
        truth = ("true best {:g}".format(selection.true_best)
                 if selection.true_best is not None else "no mined truth")
        print(f"  {selection.instance:<20s} run {', '.join(selection.chosen)} "
              f"| skip {', '.join(selection.skipped) or '(none)'} [{truth}]")
    print(f"would run {report.jobs_run}/{report.jobs_total} member job(s); "
          f"history predicts ~{report.predicted_calls_saved:g} solver "
          f"call(s) saved")
    return 0


def _cmd_learn_report(args: argparse.Namespace) -> int:
    from repro.learn import (
        LearnedHistory,
        distributions_to_json,
        format_distribution_table,
    )

    history = LearnedHistory.load(args.history)
    text = (distributions_to_json(history) if args.format == "json"
            else format_distribution_table(history) + "\n")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _expand_pipeline_specs(specs) -> List[str]:
    """Expand ``--pipeline`` values (sweep syntax included) into members.

    Malformed specs warn and are skipped, matching the unknown-member
    convention, so one typo cannot fail a long sweep.
    """
    from repro.pipeline import expand_spec

    members: List[str] = []
    for spec in specs or []:
        spec = spec.strip()
        if not spec:
            continue
        try:
            members += expand_spec(spec)
        except ConfigurationError as exc:
            warnings.warn(
                f"ignoring malformed pipeline spec {spec!r} ({exc})",
                UserWarning,
                stacklevel=3,
            )
    return members


#: the error of ``portfolio`` and ``learn select`` when no member is valid
_NO_VALID_MEMBERS = (
    "no valid portfolio members left after skipping unknown names; "
    "see 'repro portfolio --list-members'"
)


def _validate_members(members, empty: str):
    """Resolve member names/specs, warning-and-skipping unknown ones.

    The shared warn-and-skip convention of ``portfolio``, ``learn select``
    and ``exec run`` (matching the REPRO_* env knob convention): one typo
    cannot fail a long sweep, but an all-unknown list is still an error,
    raised with the caller's message ``empty``.  Returns the valid members
    plus their canonical specs.
    """
    from repro.pipeline import resolve_member

    valid: List[str] = []
    resolved = {}
    for member in members:
        try:
            resolved[member] = resolve_member(member)
            valid.append(member)
        except ConfigurationError:
            warnings.warn(
                f"ignoring unknown portfolio member {member!r}; see "
                f"'repro portfolio --list-members' and 'repro pipeline list'",
                UserWarning,
                stacklevel=3,
            )
    if not valid:
        raise ConfigurationError(empty)
    return valid, resolved


def _exec_plan_from_args(args: argparse.Namespace):
    """Shared by ``exec run`` and ``exec merge``: resolve the members, the
    dataset and the config, and build the (deterministic) run plan.  The
    merge command rebuilds the exact plan of the shard runs from the same
    flags, because both shard assignment and the merged record order are
    functions of the plan."""
    from repro.exec import plan_pipelines
    from repro.pipeline import with_default_budget
    from repro.portfolio import DEFAULT_MEMBERS

    if args.budget is not None and args.budget <= 0:
        raise ConfigurationError("--budget must be positive (seconds)")
    requested = bool(args.members) or bool(args.pipeline)
    members = _comma_list(args.members) if args.members else []
    members += _expand_pipeline_specs(args.pipeline)
    if not members:
        if requested:
            # every explicitly requested spec was malformed and skipped; a
            # silent fall-back to the default portfolio would run entirely
            # different (and possibly expensive) work than asked for
            raise ConfigurationError(
                "no valid pipeline specs left after skipping malformed "
                "--pipeline/--members values; see 'repro pipeline list'"
            )
        members = list(DEFAULT_MEMBERS)
    members, _ = _validate_members(
        members,
        "no valid pipeline specs left after skipping unknown ones; "
        "see 'repro pipeline list'",
    )
    if args.budget is not None:
        members = [with_default_budget(member, args.budget) for member in members]
    config = _experiment_config(
        args,
        "exec",
        num_processors=args.processors,
        **_refine_fields(args, members),
    )
    dags = _dataset(args)
    prune_gap = None if args.no_prune else args.prune_gap
    plan = plan_pipelines(members, dags, config, prune_gap=prune_gap)
    return members, dags, config, plan, prune_gap


def _event_line(done, total, instance, member, result, source) -> str:
    cost = result.extra_costs.get("member_cost", result.ilp_cost)
    return (f"  [{done:>3d}/{total}] {instance:<20s} "
            f"{member:<44s} cost={cost:<10g} ({source}) "
            f"{result.solver_status}")


def _validate_shard_args(args) -> None:
    if args.spawn_shards is not None:
        if args.shards is not None or args.shard_id is not None:
            raise ConfigurationError(
                "--spawn-shards is the local fork-join mode and excludes the "
                "manual --shards/--shard-id worker mode"
            )
        if args.spawn_shards < 1:
            raise ConfigurationError("--spawn-shards must be >= 1")
        return
    if args.shard_id is not None and args.shards is None:
        raise ConfigurationError("--shard-id requires --shards N")
    if args.shards is not None:
        if args.shard_id is None:
            raise ConfigurationError(
                "--shards needs --shard-id I (run one worker shard per "
                "invocation, then 'repro exec merge'); for a local "
                "fork-join use --spawn-shards N instead"
            )
        if not args.results:
            raise ConfigurationError(
                "--shards/--shard-id requires --results FILE.jsonl: the "
                "shard writes FILE.jsonl.shard<I>of<N> for the merge"
            )


def _cmd_exec_run(args: argparse.Namespace) -> int:
    return _with_trace(args, lambda: _exec_run_body(args))


def _exec_run_body(args: argparse.Namespace) -> int:
    """Run pipeline specs over a dataset through one Session, streaming
    per-job results as they complete and reducing to the best-per-instance
    table at the end (the portfolio view).  With --shards/--shard-id the
    invocation becomes one worker shard of the plan; with --spawn-shards N
    it becomes the local fork-join coordinator."""
    from repro.exec import Session, shard_plan, shard_results_path
    from repro.portfolio import format_portfolio_table, reduce_to_portfolio_rows

    _validate_shard_args(args)
    members, dags, config, plan, prune_gap = _exec_plan_from_args(args)
    progress = _make_progress(args)

    if args.shards is not None:
        # worker mode: execute exactly this shard's sub-plan, writing the
        # per-shard JSONL file next to the merged --results path
        shard = shard_plan(plan, args.shards, args.shard_id)
        shard_path = shard_results_path(args.results, args.shards, args.shard_id)
        session = Session(
            workers=args.workers,
            cache_dir=args.cache_dir,
            results_path=shard_path,
            resume=args.resume,
        )
        if progress is not None:
            progress.attach(session)
        print(f"shard {args.shard_id} of {args.shards}: "
              f"{len(shard.plan)}/{len(plan)} jobs ({len(dags)} instances x "
              f"{len(members)} pipelines), {session.workers} worker slot(s) "
              f"-> {shard_path}")
        done = 0
        for event in session.stream(shard.plan):
            done += 1
            member = members[shard.indices[event.index] % len(members)]
            print(_event_line(done, len(shard.plan), event.instance, member,
                              event.result, event.source))
        if progress is not None:
            progress.close()
        print(f"session: {session.stats.describe()}")
        print(f"merge once every shard has run: repro exec merge "
              f"--shards {args.shards} --results {args.results} "
              f"(+ the same spec/dataset flags)")
        return 0

    session = _make_session(args)
    if progress is not None:
        progress.attach(session)
    results = [None] * len(plan)
    if args.spawn_shards is not None:
        # coordinator mode: fork-join the plan over shard processes, then
        # stable-merge the per-shard JSONL files back into --results
        from repro.exec import shard_assignment

        assignment = shard_assignment(plan, args.spawn_shards)
        print(f"session: {len(plan)} jobs ({len(dags)} instances x "
              f"{len(members)} pipelines), {args.spawn_shards} shard "
              f"process(es) x {session.workers} worker slot(s)")
        results = session.run_sharded(plan, args.spawn_shards)
        for i, result in enumerate(results):
            member = members[i % len(members)]
            print(_event_line(i + 1, len(plan), result.instance_name, member,
                              result, f"shard {assignment[i]}"))
        if args.results:
            print(f"merged {args.spawn_shards} shard file(s) into "
                  f"{args.results} (plan order, byte-stable)")
    else:
        print(f"session: {len(plan)} jobs ({len(dags)} instances x "
              f"{len(members)} pipelines), {session.workers} worker slot(s)")
        done = 0
        for event in session.stream(plan):
            results[event.index] = event.result
            done += 1
            member = members[event.index % len(members)]
            print(_event_line(done, len(plan), event.instance, member,
                              event.result, event.source))
    if progress is not None:
        progress.close()
    print()
    print(format_portfolio_table(reduce_to_portfolio_rows(members, dags, results)))
    if args.budget is not None:
        print(f"stage budget: {args.budget:g}s per stage "
              f"(spec overrides win; part of the job hash)")
    print(f"ilp backend: {config.ilp_backend}")
    print(f"session: {session.stats.describe()}")
    return 0


def _cmd_exec_merge(args: argparse.Namespace) -> int:
    """Stable-merge the per-shard JSONL files of a manual sharded run
    (``exec run --shards N --shard-id I`` per shard) back into plan order,
    then print the portfolio reduction of the merged results."""
    from repro.exec import iter_jsonl_records, job_keys, merge_shard_logs
    from repro.pipeline import InstanceResult
    from repro.portfolio import format_portfolio_table, reduce_to_portfolio_rows

    if not args.results:
        raise ConfigurationError(
            "--results FILE.jsonl is required: it is the merge target and "
            "the prefix of the per-shard files (FILE.jsonl.shard<I>of<N>)"
        )
    members, dags, config, plan, _ = _exec_plan_from_args(args)
    target = merge_shard_logs(plan, args.results, args.shards)
    print(f"merged {args.shards} shard file(s) into {target} "
          f"({len(plan)} plan jobs, plan order, byte-stable)")
    recorded = {
        str(record["key"]): record["result"]
        for record in iter_jsonl_records(target)
    }
    results = [
        InstanceResult.from_dict(recorded[key])
        for key in job_keys([node.job for node in plan])
    ]
    print()
    print(format_portfolio_table(reduce_to_portfolio_rows(members, dags, results)))
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Export the observability data a traced run spilled to disk.

    Reads the ``spans-<pid>.jsonl`` / ``metrics-<pid>.jsonl`` files a run
    traced with ``REPRO_TRACE=<dir>`` left behind (every process of a
    sharded or pooled run spills into the same directory) and writes one
    merged artifact: a Chrome trace-event file or a metrics dump."""
    import os

    from repro import obs

    spill = args.spill
    if spill is None:
        env = os.environ.get(obs.ENV_TRACE, "").strip()
        if env and env.lower() not in ("1", "true") and os.path.isdir(env):
            spill = env
    if spill is None:
        raise ConfigurationError(
            "no spill directory: pass --spill DIR, or set REPRO_TRACE=<dir> "
            "(the directory a traced run spilled its spans/metrics into)"
        )
    if args.format == "metrics" and args.output is None:
        for line in obs.format_metrics_table(obs.collect_metrics(spill)):
            print(line)
        return 0
    if args.output is None:
        raise ConfigurationError("--output FILE is required for this format")
    count = obs.export_trace(args.output, spill_dir=spill, fmt=args.format)
    what = "span(s)" if args.format == "chrome-trace" else "metric name(s)"
    print(f"exported {count} {what} from {spill} to {args.output}")
    if args.format == "chrome-trace":
        ok, errors = obs.validate_chrome_trace_file(args.output)
        if not ok:
            print("trace failed schema validation:")
            for error in errors[:10]:
                print(f"  {error}")
            return 1
    return 0


def _report_findings(findings, args, *, baselined: int = 0) -> int:
    """Shared reporter of ``lint`` and ``check``: render to --output or
    stdout in the requested format, return the stable exit code."""
    import contextlib

    from repro.lint import exit_code, render_json, render_text

    with contextlib.ExitStack() as stack:
        if args.output:
            out = stack.enter_context(open(args.output, "w"))
        else:
            out = sys.stdout
        if args.format == "json":
            render_json(findings, out, baselined=baselined)
        else:
            render_text(findings, out)
            if baselined:
                out.write(f"({baselined} baselined finding(s) not shown)\n")
    if args.output:
        print(f"wrote {args.format} report to {args.output}")
    return exit_code(findings)


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint [PATHS]``: the AST determinism/concurrency analyzer."""
    import os

    from repro import lint

    if args.list_rules:
        print(f"{'rule':<10s} {'severity':<9s} description")
        for rule_id, severity, description in lint.rule_descriptions():
            print(f"{rule_id:<10s} {severity:<9s} {description}")
        return lint.EXIT_OK

    rule_ids = _comma_list(args.rules) if args.rules else None
    try:
        findings = lint.lint_paths(args.paths or ["src"], rule_ids)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return lint.EXIT_USAGE

    if args.write_baseline:
        baseline_path = args.baseline or lint.DEFAULT_BASELINE
        lint.write_baseline(baseline_path, findings)
        print(f"wrote {len(findings)} finding(s) to baseline {baseline_path}")
        return lint.EXIT_OK

    baselined = 0
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline \
            and os.path.exists(lint.DEFAULT_BASELINE):
        baseline_path = lint.DEFAULT_BASELINE
    if baseline_path is not None and not args.no_baseline:
        try:
            keys = lint.load_baseline(baseline_path)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return lint.EXIT_USAGE
        before = len(findings)
        findings = lint.filter_baselined(findings, keys)
        baselined = before - len(findings)
    return _report_findings(findings, args, baselined=baselined)


def _cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: validate specs/plans/policies without executing.

    With no explicit specs, checks the default portfolio members, the
    documented example race specs and the shipped serve policy tiers —
    the exact set the CI smoke gate runs.
    """
    from repro import lint
    from repro.pipeline import EXAMPLE_RACE_SPECS, resolve_member
    from repro.portfolio import DEFAULT_MEMBERS

    specs = _comma_list(args.members) if args.members else []
    specs += [s.strip() for s in (args.pipeline or []) if s.strip()]
    check_policy = args.policy or any(
        (args.policy_cheap, args.policy_steady, args.policy_rich)
    )
    if not specs and not check_policy:
        # the default smoke set: portfolio members + documented races +
        # the shipped policy tiers
        specs = list(DEFAULT_MEMBERS) + list(EXAMPLE_RACE_SPECS.values())
        check_policy = True

    findings = []
    for spec in specs:
        findings += lint.check_spec(
            spec, processors=args.processors, max_sweep=args.max_sweep
        )
    if check_policy:
        findings += lint.check_policy(
            cheap=args.policy_cheap,
            steady=args.policy_steady,
            rich=args.policy_rich,
            processors=args.processors,
        )

    if args.shards is not None:
        # dry-run the deterministic shard assignment over the real plan
        # the specs × dataset fan-out would execute
        from repro.exec import plan_pipelines
        from repro.pipeline import ExperimentConfig

        resolvable = []
        for spec in specs:
            try:
                resolve_member(spec)
                resolvable.append(spec)
            except ConfigurationError:
                pass  # already reported as a REP-S01/REP-S06 finding
        if resolvable:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                config = ExperimentConfig(
                    name="check", num_processors=args.processors
                )
                plan = plan_pipelines(resolvable, _dataset(args), config)
            findings += lint.check_shards(
                plan,
                args.shards,
                source=f"plan:{len(plan)} nodes",
            )

    checked = len(specs) + (3 if check_policy else 0)
    if not findings:
        print(f"checked {checked} spec(s): all statically valid")
    return _report_findings(findings, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_argument(p: argparse.ArgumentParser) -> None:
        from repro.ilp import available_backends

        p.add_argument("--backend", default=None, choices=available_backends(),
                       help="ILP solver backend for every solve of this command "
                            "(default: REPRO_ILP_BACKEND or 'scipy'; 'auto' picks "
                            "per model by size/structure)")

    def add_refine_arguments(p: argparse.ArgumentParser, with_switch: bool = True) -> None:
        from repro.refine import RefineConfig

        defaults = RefineConfig()
        if with_switch:
            p.add_argument("--refine", action="store_true",
                           help="post-optimize schedules with the local-search "
                                "refinement engine (repro.refine)")
        p.add_argument("--refine-budget", type=int, default=defaults.budget,
                       help="max move proposals per refined schedule "
                            f"(default {defaults.budget})")
        p.add_argument("--refine-strategy", choices=["hill", "anneal"],
                       default=defaults.strategy,
                       help="hill climbing (default) or simulated annealing")

    def add_dataset_arguments(p: argparse.ArgumentParser) -> None:
        """The benchmark instances a command runs over (``_dataset``) and
        their processor count."""
        p.add_argument("--which", choices=["tiny", "small"], default="tiny",
                       help="benchmark dataset")
        p.add_argument("--scale", choices=["default", "paper"], default="default")
        p.add_argument("--limit", type=int, default=None,
                       help="only the first N instances of the dataset")
        p.add_argument("--processors", "-p", type=int, default=4,
                       help="processors P of every instance (default 4)")

    def add_dag_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--generator", default="spmv",
                       help=f"workload family ({sorted(GENERATORS)})")
        p.add_argument("--size", type=int, default=5, help="generator size parameter")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dag-file", default=None,
                       help="load the DAG from a .json/.dag file instead")
        p.add_argument("--processors", "-p", type=int, default=2)
        p.add_argument("--cache-factor", type=float, default=3.0,
                       help="cache size as a multiple of r0")
        p.add_argument("--g", type=float, default=1.0)
        p.add_argument("--latency", "-L", type=float, default=10.0)
        p.add_argument("--time-limit", type=float, default=10.0)
        add_backend_argument(p)
        p.add_argument("--asynchronous", action="store_true",
                       help="optimise the asynchronous cost")
        p.add_argument("--render", action="store_true",
                       help="print superstep table and Gantt chart")
        p.add_argument("--output", default=None, help="write the schedule to a JSON file")

    sched = sub.add_parser("schedule", help="schedule one DAG")
    add_dag_arguments(sched)
    sched.add_argument("--method", default="baseline",
                       choices=["baseline", "practical", "ilp", "divide-and-conquer"])
    add_refine_arguments(sched)
    sched.set_defaults(func=_cmd_schedule)

    refine = sub.add_parser(
        "refine", help="schedule one DAG and post-optimize it with local search"
    )
    add_dag_arguments(refine)
    refine.add_argument("--method", default="baseline",
                        choices=["baseline", "practical", "ilp", "divide-and-conquer"],
                        help="pipeline producing the schedule to refine")
    add_refine_arguments(refine, with_switch=False)
    refine.add_argument("--trace", action="store_true",
                        help="print every accepted move of the refinement")
    refine.set_defaults(func=_cmd_refine)

    pipe = sub.add_parser(
        "pipeline", help="composable scheduler pipelines (repro.pipeline)"
    )
    pipe_sub = pipe.add_subparsers(dest="action", required=True)
    pipe_list = pipe_sub.add_parser(
        "list", help="print the registered stages and the member spec table"
    )
    pipe_list.set_defaults(func=_cmd_pipeline_list)
    pipe_run = pipe_sub.add_parser(
        "run", help="run one pipeline spec on one DAG with per-stage telemetry"
    )
    pipe_run.add_argument(
        "--spec", required=True,
        help="pipeline spec or member name, e.g. 'bspg+clairvoyant|refine|ilp' "
             "or 'baseline|race(ilp@bnb,ilp@scipy)'"
    )
    add_dag_arguments(pipe_run)
    add_refine_arguments(pipe_run, with_switch=False)
    pipe_run.add_argument("--prune-gap", type=float, default=None,
                          help="bound-aware per-stage pruning gap "
                               "(default: no pruning)")
    pipe_run.add_argument("--no-prune", action="store_true",
                          help="disable bound-aware pruning")
    pipe_run.add_argument("--workers", type=int, default=1,
                          help="session worker slots: race(...) stages fan "
                               "branches out over this many threads")
    pipe_run.add_argument("--node-limit", type=_node_limit, default=None,
                          help="bound every ILP stage by branch-and-bound "
                               "nodes, so its result does not depend on the "
                               "wall clock (keep --time-limit generous)")
    pipe_run.add_argument("--budget", type=float, default=None,
                          help="wall-clock budget in seconds for every stage "
                               "without an explicit budget=<s>s option")
    pipe_run.add_argument("--trace", default=None, metavar="FILE",
                          help="trace the run (stages, race branches, ILP "
                               "solves) and write a Chrome trace-event file "
                               "loadable in Perfetto")
    pipe_run.set_defaults(func=_cmd_pipeline_run)

    data = sub.add_parser("dataset", help="list the benchmark datasets")
    data.add_argument("--which", choices=["tiny", "small"], default="tiny")
    data.add_argument("--scale", choices=["default", "paper"], default="default")
    data.set_defaults(func=_cmd_dataset)

    serve = sub.add_parser(
        "serve", help="the online scheduling service (repro.serve)"
    )
    serve_sub = serve.add_subparsers(dest="action", required=True)
    serve_bench = serve_sub.add_parser(
        "bench",
        help="replay a seeded arrival trace through the service loop and "
             "print the SLO summary (virtual timeline: byte-identical "
             "across repeats and --workers counts)",
    )
    serve_bench.add_argument("--seed", type=int, default=0,
                             help="arrival-trace seed (trace, deadlines and "
                                  "template choices are a pure function of it)")
    serve_bench.add_argument("--requests", type=int, default=100_000,
                             help="trace length (default 100000; repeats of "
                                  "the template pool stay cache-hot, so only "
                                  "a few dozen distinct jobs solve)")
    serve_bench.add_argument("--rate", type=float, default=4.0,
                             help="mean arrivals per virtual time unit "
                                  "(Poisson intensity)")
    serve_bench.add_argument("--servers", type=int, default=2,
                             help="virtual service capacity (shapes the "
                                  "simulated queueing; independent of "
                                  "--workers by design)")
    serve_bench.add_argument("--which", choices=["tiny", "small"],
                             default="tiny", help="template pool dataset")
    serve_bench.add_argument("--scale", choices=["default", "paper"],
                             default="default")
    serve_bench.add_argument("--limit", type=int, default=6,
                             help="template pool size (first N instances)")
    serve_bench.add_argument("--workers", type=int, default=1,
                             help="session worker slots for the distinct-job "
                                  "execution (cannot change the summary)")
    serve_bench.add_argument("--cache-dir", default=None,
                             help="content-hash result cache shared with the "
                                  "other commands; hot keys skip solving")
    serve_bench.add_argument("--results", default=None,
                             help="stream the distinct-job results to this "
                                  "JSONL file (plan order)")
    serve_bench.add_argument("--output", default=None,
                             help="write the JSON summary to this file "
                                  "(byte-stable; the CI gate diffs two runs)")
    serve_bench.add_argument("--json", action="store_true",
                             help="print the JSON summary instead of the "
                                  "SLO table")
    serve_bench.add_argument("--trace", default=None, metavar="FILE",
                             help="trace the run (serve phases, session "
                                  "jobs, solver calls) and write a Chrome "
                                  "trace-event file; never changes the "
                                  "summary")
    serve_bench.add_argument("--progress", action="store_true",
                             help="live stderr progress line for the "
                                  "distinct-job execution (TTY only)")
    serve_bench.set_defaults(func=_cmd_serve_bench)

    def add_session_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes of the execution session (1 = serial)")
        p.add_argument("--cache-dir", default=None,
                       help="on-disk result cache; repeated runs become free")
        p.add_argument("--results", default=None,
                       help="stream results to this JSONL file as they complete")
        p.add_argument("--resume", action="store_true",
                       help="skip jobs already recorded in the --results file")
        p.add_argument("--node-limit", type=_node_limit, default=None,
                       help="bound ILP solves by branch-and-bound nodes: results "
                            "become exactly reproducible even under CPU contention "
                            "(parallel workers, loaded hosts), provided --time-limit "
                            "is generous enough that the node limit is what binds")

    exp = sub.add_parser("experiment", help="run one of the paper's table experiments")
    exp.add_argument("--table", type=int, choices=[1, 2, 4], default=1)
    exp.add_argument("--limit", type=int, default=None, help="only the first N instances")
    exp.add_argument("--time-limit", type=float, default=5.0)
    add_backend_argument(exp)
    add_session_arguments(exp)
    add_refine_arguments(exp)
    exp.add_argument("--progress", action="store_true",
                     help="live stderr progress line (TTY only)")
    exp.set_defaults(func=_cmd_experiment)

    execp = sub.add_parser(
        "exec", help="the unified execution core (repro.exec)"
    )
    exec_sub = execp.add_subparsers(dest="action", required=True)

    def add_exec_plan_arguments(p: argparse.ArgumentParser) -> None:
        """The plan-defining flags shared by `exec run` and `exec merge`
        (the merge rebuilds the shard runs' plan from the same flags)."""
        p.add_argument("--pipeline", action="append", default=None,
                       metavar="SPEC",
                       help="add one pipeline spec (repeatable); supports "
                            "race(a,b,...), budget=<s>s, stage@backend and "
                            "the sweep syntax key={a,b,c}")
        p.add_argument("--members", default=None,
                       help="comma-separated legacy member names to add "
                            "(default when nothing is given: the default "
                            "portfolio members)")
        add_dataset_arguments(p)
        p.add_argument("--time-limit", type=float, default=5.0)
        add_backend_argument(p)
        p.add_argument("--budget", type=float, default=None,
                       help="wall-clock budget in seconds applied to every "
                            "stage lacking an explicit budget=<s>s option "
                            "(part of the canonical spec and job hash)")
        p.add_argument("--prune-gap", type=float, default=0.0,
                       help="bound-aware per-stage pruning gap "
                            "(default 0.0 = skip only provably optimal "
                            "incumbents)")
        p.add_argument("--no-prune", action="store_true",
                       help="disable bound-aware pruning")
        add_session_arguments(p)
        add_refine_arguments(p, with_switch=False)

    exec_run = exec_sub.add_parser(
        "run",
        help="run pipeline specs over a dataset through one Session, "
             "streaming per-job results as they complete (optionally as "
             "one worker shard, or fork-joined over shard processes)",
    )
    add_exec_plan_arguments(exec_run)
    exec_run.add_argument("--shards", type=int, default=None, metavar="N",
                          help="worker mode: split the plan into N shards by "
                               "job index and run only --shard-id; requires "
                               "--results (the shard writes "
                               "FILE.jsonl.shard<I>of<N>); share --cache-dir "
                               "across shards, then 'repro exec merge'")
    exec_run.add_argument("--shard-id", type=int, default=None, metavar="I",
                          help="which shard (0-based) this invocation runs")
    exec_run.add_argument("--spawn-shards", type=int, default=None,
                          metavar="N",
                          help="local fork-join: run the plan as N shard "
                               "processes (each with --workers slots) and "
                               "stable-merge the per-shard JSONL files back "
                               "into --results (byte-identical to a "
                               "single-process run)")
    exec_run.add_argument("--trace", default=None, metavar="FILE",
                          help="trace the run (session jobs, pipeline "
                               "stages, race branches, ILP solves — across "
                               "worker and shard processes) and write a "
                               "Chrome trace-event file loadable in "
                               "Perfetto; results stay byte-identical")
    exec_run.add_argument("--progress", action="store_true",
                          help="live stderr progress line with jobs "
                               "done/total and cache hits (TTY only)")
    exec_run.set_defaults(func=_cmd_exec_run)

    exec_merge = exec_sub.add_parser(
        "merge",
        help="stable-merge the per-shard JSONL files of a manual sharded "
             "run back into plan order (pass the same spec/dataset flags "
             "as the shard runs, plus --shards and --results)",
    )
    add_exec_plan_arguments(exec_merge)
    exec_merge.add_argument("--shards", type=int, required=True, metavar="N",
                            help="shard count the plan was split into")
    exec_merge.set_defaults(func=_cmd_exec_merge)

    obs_parser = sub.add_parser(
        "obs", help="observability: export traces and metrics (repro.obs)"
    )
    obs_sub = obs_parser.add_subparsers(dest="action", required=True)
    obs_export = obs_sub.add_parser(
        "export",
        help="merge the spill files of a run traced with REPRO_TRACE=<dir> "
             "into one Chrome trace-event file or metrics dump",
    )
    obs_export.add_argument("--spill", default=None, metavar="DIR",
                            help="spill directory holding the per-process "
                                 "spans-<pid>.jsonl / metrics-<pid>.jsonl "
                                 "files (default: REPRO_TRACE when it names "
                                 "a directory)")
    obs_export.add_argument("--format", default="chrome-trace",
                            choices=["chrome-trace", "metrics", "metrics-json"],
                            help="chrome-trace = Perfetto-loadable trace-event "
                                 "JSON; metrics = flat text table; "
                                 "metrics-json = the summary object")
    obs_export.add_argument("--output", default=None, metavar="FILE",
                            help="output file (--format metrics prints to "
                                 "stdout when omitted)")
    obs_export.set_defaults(func=_cmd_obs_export)

    def add_report_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "json"], default="text",
                       help="report format (json is byte-stable: sorted "
                            "keys, stable finding order)")
        p.add_argument("--output", default=None, metavar="FILE",
                       help="write the report to FILE instead of stdout")

    lint_parser = sub.add_parser(
        "lint",
        help="static determinism/concurrency analysis over Python sources "
             "(AST rules; exit 0 = clean, 1 = findings, 2 = usage error)",
    )
    lint_parser.add_argument("paths", nargs="*", default=None, metavar="PATH",
                             help="files or directories to lint "
                                  "(default: src)")
    lint_parser.add_argument("--rules", default=None, metavar="IDS",
                             help="comma-separated rule ids to run "
                                  "(default: all; see --list-rules)")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule table and exit")
    lint_parser.add_argument("--baseline", default=None, metavar="FILE",
                             help="baseline file grandfathering known "
                                  "findings (default: lint-baseline.json "
                                  "when it exists)")
    lint_parser.add_argument("--no-baseline", action="store_true",
                             help="ignore any baseline file (report "
                                  "everything)")
    lint_parser.add_argument("--write-baseline", action="store_true",
                             help="write the current findings to the "
                                  "baseline file and exit 0")
    add_report_arguments(lint_parser)
    lint_parser.set_defaults(func=_cmd_lint)

    check = sub.add_parser(
        "check",
        help="statically validate pipeline specs, serve policies and plan "
             "shardability without executing anything (fails in "
             "milliseconds where a run would fail mid-flight)",
    )
    check.add_argument("--pipeline", action="append", default=None,
                       metavar="SPEC",
                       help="check one pipeline spec (repeatable; sweeps, "
                            "race(...), budget=<s>s and @backend included)")
    check.add_argument("--members", default=None,
                       help="comma-separated member names/specs to check")
    check.add_argument("--policy", action="store_true",
                       help="check the serve policy tiers (the shipped "
                            "defaults unless overridden)")
    check.add_argument("--policy-cheap", default=None, metavar="SPEC",
                       help="override the cheap policy tier spec")
    check.add_argument("--policy-steady", default=None, metavar="SPEC",
                       help="override the steady policy tier spec")
    check.add_argument("--policy-rich", default=None, metavar="SPEC",
                       help="override the rich policy tier spec")
    check.add_argument("--shards", type=int, default=None, metavar="N",
                       help="also dry-run the deterministic shard "
                            "assignment of the specs x dataset plan "
                            "(catches the coordinator's "
                            "ConfigurationError without starting workers)")
    add_dataset_arguments(check)
    check.add_argument("--max-sweep", type=int, default=16,
                       help="sweep cardinality above which REP-S05 warns "
                            "(default 16)")
    add_report_arguments(check)
    check.set_defaults(func=_cmd_check)

    learn_parser = sub.add_parser(
        "learn",
        help="learned member selection: mine run history into per-feature "
             "win/cost tables and predict which portfolio members to run "
             "(repro.learn)",
    )
    learn_sub = learn_parser.add_subparsers(dest="action", required=True)

    learn_mine = learn_sub.add_parser(
        "mine",
        help="mine one or more JSONL results files (from runs with "
             "--results) into a byte-stable learned history",
    )
    learn_mine.add_argument("--results", action="append", required=True,
                            metavar="FILE",
                            help="JSONL results file to mine (repeatable; "
                                 "only records carrying a member spec "
                                 "contribute)")
    add_dataset_arguments(learn_mine)
    learn_mine.add_argument("--output", default="history.json", metavar="FILE",
                            help="learned-history JSON to write "
                                 "(default: history.json)")
    learn_mine.set_defaults(func=_cmd_learn_mine)

    learn_select = learn_sub.add_parser(
        "select",
        help="predict the top-k members per instance from a mined history "
             "without executing anything",
    )
    learn_select.add_argument("--history", required=True, metavar="FILE",
                              help="learned history from 'repro learn mine'")
    learn_select.add_argument("--members", default=None,
                              help="comma-separated member names/specs "
                                   "(default: the portfolio defaults)")
    add_dataset_arguments(learn_select)
    learn_select.add_argument("--top-k", type=int, default=3,
                              help="members to keep per instance (default 3)")
    learn_select.add_argument("--selector", choices=["greedy", "knn"],
                              default="greedy",
                              help="ranking model: per-bucket greedy table "
                                   "or k-NN over feature vectors")
    learn_select.add_argument("--seed", type=int, default=0,
                              help="tie-breaking seed (identical ranking "
                                   "for identical history regardless)")
    learn_select.set_defaults(func=_cmd_learn_select)

    learn_report = learn_sub.add_parser(
        "report",
        help="Figure-4-style per-member cost-distribution table from a "
             "mined history",
    )
    learn_report.add_argument("--history", required=True, metavar="FILE",
                              help="learned history from 'repro learn mine'")
    add_report_arguments(learn_report)
    learn_report.set_defaults(func=_cmd_learn_report)

    port = sub.add_parser("portfolio", help="run a scheduler portfolio over a dataset")
    port.add_argument("--members", default=None,
                      help="comma-separated member pipelines, e.g. "
                           "'bspg+clairvoyant,cilk+lru,ilp,dac'")
    port.add_argument("--pipeline", action="append", default=None, metavar="SPEC",
                      help="add one pipeline spec as a member (repeatable), "
                           "e.g. --pipeline 'bspg+clairvoyant|refine|ilp'")
    port.add_argument("--list-members", action="store_true",
                      help="print every member name with its canonical "
                           "pipeline spec and exit")
    add_dataset_arguments(port)
    port.add_argument("--time-limit", type=float, default=5.0)
    add_backend_argument(port)
    port.add_argument("--prune-gap", type=float, default=0.0,
                      help="skip ILP members whose baseline is provably within "
                           "this relative gap of the theory lower bound "
                           "(default 0.0 = only provably optimal baselines, "
                           "which never changes the reported best costs)")
    port.add_argument("--no-prune", action="store_true",
                      help="disable bound-aware ILP pruning entirely")
    port.add_argument("--select", choices=["exhaustive", "adaptive"],
                      default="exhaustive",
                      help="adaptive runs only the members a mined history "
                           "predicts are worth it (repro.learn); exhaustive "
                           "runs every member (default)")
    port.add_argument("--top-k", type=int, default=3,
                      help="members to run per instance under --select "
                           "adaptive (default 3)")
    port.add_argument("--history", default=None, metavar="FILE",
                      help="learned history from 'repro learn mine'; "
                           "adaptive without one warns and falls back to "
                           "exhaustive evaluation")
    port.add_argument("--selector", choices=["greedy", "knn"],
                      default="greedy",
                      help="adaptive ranking model (default greedy)")
    add_session_arguments(port)
    add_refine_arguments(port)
    port.set_defaults(func=_cmd_portfolio)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
