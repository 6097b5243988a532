"""The repository benchmark: end-to-end and per-layer metrics of ``repro``.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

One invocation measures one workload (see ``perfbench/workloads.py``):

1. ``--trace 0`` (end to end): set-up is timed in fresh processes, then a
   *checked pass* runs with the output check installed, then untraced
   passes repeat for ``--seconds``.  Reports ``throughput_per_s``,
   ``setup_s``, ``cpu_s``, ``peak_rss_mb``, ``cost_ratio_geomean`` and
   ``ok_share``.
2. ``--trace 1`` (per layer): after the checked pass, traced and untraced
   passes alternate for ``--seconds``.  Reports every per-layer metric
   (medians over traced passes) and the tracing overhead, and fails when
   two traced passes disagree on a deterministic count.

Every pass's answers are compared with the checked pass, item by item.
The last line of standard output is the JSON result; the line before it
holds the provenance (versions, host, seed, wrapper set, overhead).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("sweep", "ilp", "serve")
#: fresh-process set-ups timed per end-to-end run (the median is reported)
SETUP_SAMPLES = 5
#: passes whose answers are compared and timed, at least, per run
MIN_PASSES = 2
MIN_TRACED_PASSES = 2

#: (name, unit): the end-to-end metrics of a ``--trace 0`` run
END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cost_ratio_geomean", "ratio"),
    ("ok_share", "ratio"),
)


def _program_available() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def _import_program() -> None:
    """Make ``repro`` (from ``src/``) and this package importable.

    ``REPRO_*`` knobs are dropped first: tracing, solver limits and the
    backend are part of the workload definition, not of the environment.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    log_ratio: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    messages: List[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Correctly answered items per wall second (0 for a pass that raised)."""
        return (self.attempted - self.failed) / self.wall if self.wall > 0 else 0.0


def _cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Runner:
    """Runs passes of one workload and scores them against the checked pass."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.reference = None
        self._count = 0

    def _run(self, recorder=None):
        from perfbench import tracing

        self._count += 1
        passdir = self.workdir / f"pass{self._count}"
        passdir.mkdir()
        try:
            with tracing.installed(recorder) if recorder is not None else nullcontext():
                cpu0 = _cpu_seconds()
                start = time.perf_counter()
                raw = self.workload.execute(passdir)
                wall = time.perf_counter() - start
                cpu = _cpu_seconds() - cpu0
            return wall, cpu, self.workload.collect(raw, passdir)
        finally:
            shutil.rmtree(passdir, ignore_errors=True)

    def check(self) -> None:
        """The checked pass: every pipeline run's output is validated."""
        from perfbench import tracing, workloads

        recorder = tracing.Recorder(checker=workloads.check_pipeline)
        _, _, out = self._run(recorder)
        self.reference = workloads.Reference.from_checked_pass(
            self.workload, out, recorder
        )

    def timed(self, traced: bool) -> Pass:
        from perfbench import tracing

        record = Pass(traced=traced)
        recorder = tracing.Recorder() if traced else None
        attempted = sum(self.reference.weights.values())
        try:
            record.wall, record.cpu, out = self._run(recorder)
        except Exception:  # a pass boundary: the run goes on, the pass fails
            record.attempted = record.failed = attempted
            record.messages = [traceback.format_exc()]
            return record
        record.attempted, record.failed, record.messages = self.reference.score(out)
        record.log_ratio = self.reference.log_cost_ratio(out, self.workload.baselines)
        if traced:
            record.layers = tracing.layer_metrics(
                recorder.spans, recorder.owner, self.workload.workers
            )
        return record


def _time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports the program and builds
    the workload's inputs (dataset, plan, baseline costs)."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=str(ROOT), check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# one workload, one mode
# ----------------------------------------------------------------------
def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result plus a provenance record."""
    from perfbench import tracing, workloads

    setup = [] if trace else [
        _time_setup(workload_name, seed) for _ in range(SETUP_SAMPLES)
    ]
    workload = workloads.WORKLOADS[workload_name](seed)
    generate = []
    if trace:
        for _ in range(3):
            start = time.perf_counter()
            workload.build_dags()
            generate.append(time.perf_counter() - start)

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        runner = Runner(workload, workdir)
        runner.check()
        passes = _passes(runner, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    messages = sorted({m for p in passes for m in p.messages})
    # a pass that raised has no timings and counts only as failed items
    untraced = [p for p in passes if not p.traced and p.wall > 0]
    traced = [p for p in passes if p.traced and p.wall > 0]
    provenance = _provenance(workload_name, seed, seconds, trace, workload)
    provenance["passes"] = {
        "untraced_wall_s": [round(p.wall, 4) for p in untraced],
        "traced_wall_s": [round(p.wall, 4) for p in traced],
        "items_per_pass": sum(runner.reference.weights.values()),
    }
    correct = failed == 0
    if trace:
        layers = dict.fromkeys((name for name, _, _ in tracing.PER_LAYER), 0.0)
        if traced and untraced:
            overhead_s = statistics.median(p.wall for p in traced) - \
                statistics.median(p.wall for p in untraced)
            layers["trace.overhead_share"] = \
                overhead_s / statistics.median(p.wall for p in untraced)
            provenance["trace_overhead_s"] = round(overhead_s, 4)
            provenance["trace_overhead_share"] = round(layers["trace.overhead_share"], 4)
            combined, unstable = _combine_layers(traced)
            layers.update(combined)
            if unstable:
                correct = False
                messages.append("deterministic counts differ between traced "
                                "passes: " + "; ".join(unstable))
        layers["dag.generate_s"] = statistics.median(generate)
        provenance["layer_shares"] = _shares(layers)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "throughput_per_s": statistics.median(
                [p.throughput for p in passes if not p.traced]
            ),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median([p.cpu for p in untraced] or [0.0]),
            "peak_rss_mb": _peak_rss_mb(),
            "cost_ratio_geomean": math.exp(
                statistics.fmean([p.log_ratio for p in untraced] or [0.0])
            ),
            "ok_share": 1.0 - failed / attempted,
        }
        provenance["setup_s"] = [round(s, 4) for s in setup]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    provenance["problems"] = messages[:20]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "provenance": provenance}


def _passes(runner: Runner, seconds: float, trace: bool) -> List[Pass]:
    """Timed passes until the next one would overrun ``seconds``: untraced
    only, or (``trace``) traced and untraced alternately, traced first."""
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        traced = sum(p.traced for p in passes)
        passes.append(runner.timed(traced=trace and traced <= len(passes) - traced))
        traced = sum(p.traced for p in passes)
        if trace:
            enough = traced >= MIN_TRACED_PASSES and traced < len(passes)
        else:
            enough = len(passes) >= MIN_PASSES
        elapsed = time.perf_counter() - started
        if enough and elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes


def _combine_layers(traced: List[Pass]):
    """Medians over traced passes; gated counts must agree exactly."""
    from perfbench import tracing

    names = traced[0].layers
    layers = {name: statistics.median(p.layers[name] for p in traced) for name in names}
    unstable = []
    for parts in tracing.GATED_COUNTS:
        seen = [sum(p.layers[name] for name in parts) for p in traced]
        if len(set(seen)) > 1:
            unstable.append(f"{' + '.join(parts)}: {seen}")
    return layers, unstable


def _shares(layers: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of the summed self time (all processes)."""
    selfs = {
        name[: -len(".self_s")]: value
        for name, value in layers.items()
        if name.endswith(".self_s")
    }
    total = sum(selfs.values())
    return {name: round(value / total, 4) for name, value in selfs.items()
            if total and value}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _provenance(workload: str, seed: int, seconds: float, trace: bool, wl) -> dict:
    import numpy
    import scipy

    from perfbench import tracing, workloads

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": workloads.nproc(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "session_workers": wl.workers,
        "wrapper_set": tracing.wrapper_set_digest(),
        # the overhead of this wrapper set is measured by --trace 1 runs
        "trace_overhead_share": None,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<28s} {metric['value']:>16.6g} {metric['unit']}")


def _emit(outcome: dict, title: str) -> None:
    result, provenance = outcome["result"], outcome["provenance"]
    _print_table(title, result["metrics"])
    for problem in provenance["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own process; the last line
    merges the results with ``<workload>.``-prefixed metric names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=600,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{workload} --trace {trace} failed (exit {proc.returncode})",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (set-up timing)")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one --workload")
    if not _program_available():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    _import_program()
    from perfbench import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    mode = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    _emit(outcome, f"{args.workload} seed {args.seed}: {mode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
