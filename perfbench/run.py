"""momentcrit benchmark: ``momentcrit analyze`` end to end, one workload per process.

    python3 perfbench/run.py --workload cat_sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One operation is one analysis: a call of
``momentcrit.cli.main(["analyze", cfg, "--format", "structured", "--out", f])``
on a config generated from the seed.  Analyses run in a closed loop, one
client, one thread, in whole passes over the workload's cells.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the tracing
overhead and the exact counts.  The last stdout line is the JSON
result; the full record, environment included, goes to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

SETUP_REPEATS = 3
MIN_ANALYSES = 100

E2E_UNITS = {
    "analyses_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in tracing.TIME_METRICS},
    "cli.config_bytes": "B",
    "cli.report_bytes": "B",
    "fock.working_dim": "count",
    "moments.build_calls": "count",
    "moments.expectation_calls": "count",
    "moments.unique_build_ratio": "ratio",
    "moments.dense_bytes_computed": "B",
    "posmaps.block_maps": "count",
    "criteria.minors_evaluated": "count",
    "reorder.svd_calls": "count",
    "reconstruct.elements": "count",
    "reconstruct.moments_queried": "count",
    **{f"{layer}.errors": "count" for layer in tracing.LAYERS},
    "trace.analysis_ms": "ms",
    "trace.accounted_frac": "ratio",
    "trace.overhead_ms": "ms",
}


class BenchError(RuntimeError):
    pass


# -- program import and set-up ---------------------------------------------------


def import_program():
    """Fresh import of momentcrit from this checkout's ``src/``."""
    if not (SRC / "momentcrit" / "cli.py").is_file():
        raise BenchError(f"no momentcrit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "momentcrit" or n.startswith("momentcrit.")]:
        del sys.modules[name]
    importlib.import_module("momentcrit.cli")
    pkg = sys.modules["momentcrit"]
    if Path(pkg.__file__).resolve().parent != SRC / "momentcrit":
        raise BenchError(f"imported momentcrit from {pkg.__file__}, not from {SRC}")
    return pkg


def argv_for(cell, report: Path) -> list[str]:
    return ["analyze", str(cell.path), "--format", "structured", "--out", str(report)]


def setup(workload: str, seed: int, tiny: bool, work: Path):
    """Import, config generation and warm-up: what ``setup_s`` times."""
    pkg = import_program()
    cells = workloads.generate(workload, seed, tiny)
    workloads.write_configs(cells, work)
    report = work / "warmup-report.json"
    for cell in cells:
        if cell.warm:
            pkg.cli.main(argv_for(cell, report))
    return pkg, cells


# -- closed loop -----------------------------------------------------------------


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)
    by_cell: dict[str, list[float]] = field(default_factory=dict)
    passes: int = 0
    records: int = 0
    failed_records: int = 0
    failed_analyses: int = 0
    problems: list[str] = field(default_factory=list)
    report_bytes: int = 0

    def add(self, cell, seconds: float, outcome: gate.Checked, report_text) -> None:
        self.latencies.append(seconds)
        self.by_cell.setdefault(cell.name, []).append(seconds)
        self.records += outcome.attempted
        self.failed_records += outcome.failed
        self.failed_analyses += int(outcome.incorrect or report_text is None)
        self.problems.extend(outcome.problems)
        self.report_bytes += len(report_text or "")


def run_pass(main, cells, expected, report: Path, loop: Loop, before=None) -> None:
    """One analysis of every cell; the gate runs outside the timed call."""
    for cell, exp in zip(cells, expected):
        report.unlink(missing_ok=True)
        if before is not None:
            before()
        start = time.perf_counter()
        try:
            rc = main(argv_for(cell, report))
        except Exception as exc:  # a crash is a failed analysis, not a benchmark error
            print(f"{cell.name}: main raised {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = None
        seconds = time.perf_counter() - start
        text = report.read_text() if rc in (gate.EXIT_OK, gate.EXIT_ENTANGLED) and report.exists() else None
        loop.add(cell, seconds, gate.check(cell, exp, rc, text), text)
    loop.passes += 1


def timed_passes(seconds: float, one_pass) -> None:
    """Call ``one_pass`` while another call is expected to fit in ``seconds``."""
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        if (time.perf_counter() - start) * (passes + 1) / passes > seconds:
            return


def traced_pass(pkg, cells, expected, report: Path, loop: Loop) -> tracing.Tracer:
    """One pass under a fresh tracer; the wrappers are gone when it returns."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer, pkg):
        main = tracer.span("cli.main", pkg.cli.main)
        run_pass(main, cells, expected, report, loop, before=tracer.begin_analysis)
    return tracer


# -- metrics -------------------------------------------------------------------


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(loop: Loop, setups: list[float]) -> dict[str, float]:
    return {
        "analyses_per_s": len(loop.latencies) / sum(loop.latencies),
        "latency_ms_p50": statistics.median(loop.latencies) * 1e3,
        "latency_ms_p90": p90(loop.latencies) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - loop.failed_records / loop.records,
    }


def per_layer(untraced: Loop, traced: Loop, tracers, cells) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics; exact counts come from the first traced pass."""
    n = len(cells)
    counts = tracing.counts_per_analysis(tracers[0], n)
    problems = []
    for i, later in enumerate(tracers[1:], start=2):
        again = tracing.counts_per_analysis(later, n)
        for key in tracing.EXACT_COUNTS:
            if again[key] != counts[key]:
                problems.append(f"count {key} differs: pass 1 {counts[key]!r}, pass {i} {again[key]!r}")
    analyses = len(traced.latencies)
    times = dict.fromkeys(tracing.TIME_METRICS, 0.0)
    for tracer in tracers:
        for key, value in tracing.layer_times_ms(tracer, analyses).items():
            times[key] += value
    analysis_ms = statistics.fmean(traced.latencies) * 1e3
    metrics = {
        **times,
        "cli.config_bytes": sum(cell.path.stat().st_size for cell in cells) / n,
        "cli.report_bytes": traced.report_bytes / analyses,
        **counts,
        "trace.analysis_ms": analysis_ms,
        "trace.accounted_frac": sum(times.values()) / analysis_ms,
        "trace.overhead_ms": (
            statistics.median(traced.latencies) - statistics.median(untraced.latencies)
        ) * 1e3,
    }
    return {key: metrics[key] for key in PER_LAYER_UNITS}, problems


# -- environment -----------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "momentcrit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


# -- main ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few light cells, for the self-tests")
    return parser.parse_args(argv)


def measure(args, work: Path) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg, cells = setup(args.workload, args.seed, args.tiny, work)
        setups.append(time.perf_counter() - start)
    expected = [gate.expectations(cell) for cell in cells]
    report = work / "report.json"
    result = {"setup_runs_s": setups, "cells": len(cells)}
    if args.trace == 0:
        loop = Loop()
        timed_passes(args.seconds, lambda: run_pass(pkg.cli.main, cells, expected, report, loop))
        metrics, units = end_to_end(loop, setups), E2E_UNITS
        problems = loop.problems
    else:
        # Untraced and traced passes alternate, so drift in machine speed
        # does not bias the tracing overhead.
        untraced, loop, tracers = Loop(), Loop(), []

        def both():
            run_pass(pkg.cli.main, cells, expected, report, untraced)
            tracers.append(traced_pass(pkg, cells, expected, report, loop))

        timed_passes(args.seconds, both)
        metrics, problems = per_layer(untraced, loop, tracers, cells)
        units = PER_LAYER_UNITS
        problems = untraced.problems + loop.problems + problems
        result["untraced_latency_ms_p50"] = statistics.median(untraced.latencies) * 1e3
        result["traced_latency_ms_p50"] = statistics.median(loop.latencies) * 1e3
        result["spans_file"] = _write_spans(args, tracers)
    result.update(
        loop=loop,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        problems=problems,
    )
    return result


def _write_spans(args, tracers) -> str:
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    rows = []
    for i, tracer in enumerate(tracers):
        rows.extend([i, *row] for row in zip(
            tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.analyses))
    path.write_text(json.dumps({"columns": ["pass", "name", "start", "end", "parent", "analysis"],
                                "rows": rows}))
    return str(path.relative_to(ROOT))


def summary_lines(args, result: dict, env: dict) -> list[str]:
    loop = result["loop"]
    n = len(loop.latencies)
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{n} analyses in {loop.passes} passes over {result['cells']} cells, {loop.records} records",
    ]
    for name, metric in result["metrics"].items():
        samples = {"setup_s": SETUP_REPEATS, "ok_frac": loop.records}.get(name, n)
        lines.append(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']:<6} n={samples}")
    lines.append(
        f"  {'failed_frac':<30} {loop.failed_records / loop.records:>14.6g} {'frac':<6} "
        f"n={loop.records} records ({loop.failed_records} failed)"
    )
    if args.trace == 0 and n < MIN_ANALYSES and not args.tiny:
        lines.append(f"  warning: {n} analyses, fewer than {MIN_ANALYSES}; "
                     "p90 has under ten samples beyond it")
    lines.append("env " + json.dumps(env))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    try:
        result = measure(args, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(args)
    loop = result["loop"]
    for problem in result["problems"]:
        print(f"correctness: {problem}", file=sys.stderr)
    record = {
        "env": env,
        "metrics": result["metrics"],
        "analyses": len(loop.latencies),
        "passes": loop.passes,
        "records": loop.records,
        "failed_records": loop.failed_records,
        "cell_median_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(loop.by_cell.items())},
        **{k: v for k, v in result.items() if k not in ("loop", "metrics")},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for line in summary_lines(args, result, env):
        print(line)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": len(loop.latencies),
        "failed": loop.failed_analyses,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
