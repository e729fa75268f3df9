"""Spans and counts around the package's public functions.

The tracer replaces module attributes where each *calling* module looks a
function up (``criteria.build_moment_matrix`` as well as
``reorder.build_moment_matrix``), so only calls that cross a module boundary
are recorded.  Installing it is the only change to the program, and
``installed`` restores every attribute on exit, so untraced runs pay nothing.

Spans live in memory as parallel lists (name, start, end, parent, analysis)
and are written out once at the end of the run.  A span's self time is its
duration minus that of its direct children; the run is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter, defaultdict

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "moments.build_calls",
    "moments.expectation_calls",
    "moments.dense_bytes_computed",
    "criteria.minors_evaluated",
    "posmaps.block_maps",
    "reconstruct.moments_queried",
)
LAYERS = ("cli", "fock", "moments", "posmaps", "criteria", "reorder", "reconstruct")
_BYTES_PER_ENTRY = 16  # complex128


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.analyses: list[int] = []
        self.stack: list[int] = []
        self.analysis = -1
        self.counts: Counter = Counter()
        self.build_keys: set = set()
        self.working_dim: dict[int, int] = {}

    def begin_analysis(self) -> None:
        self.analysis += 1

    def _outer(self, layer: str) -> bool:
        """True when no enclosing span belongs to the same layer."""
        return not self.stack or not self.names[self.stack[-1]].startswith(layer + ".")

    def span(self, name: str, fn, account=None):
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            outer = self._outer(layer)
            if account is not None:
                account(self, outer, *args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.analyses.append(self.analysis)
            self.ends.append(math.nan)
            self.stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception:
                if outer:
                    self.counts[layer + ".errors"] += 1
                raise
            finally:
                self.ends[idx] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def counter(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def note_working(self, dims) -> int:
        dim = math.prod(dims)
        self.working_dim[self.analysis] = max(self.working_dim.get(self.analysis, 0), dim)
        return dim

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += durations[i]
        out: dict[str, float] = defaultdict(float)
        for name, d, c in zip(self.names, durations, child):
            out[name] += d - c
        return dict(out)


class _TracedClass:
    """Callable stand-in for a class that still answers isinstance checks."""

    def __init__(self, cls, call):
        self._cls = cls
        self._call = call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __instancecheck__(self, obj):
        return isinstance(obj, self._cls)


# -- accounting at the boundaries ------------------------------------------------


def _working(state, ops, per_factor: bool) -> tuple[int, ...] | None:
    """Padded cutoffs of the dense path: max (or summed) ladder powers per mode."""
    cutoffs = getattr(getattr(state, "cutoffs", None), "cutoffs", None)
    if cutoffs is None:
        return None
    pads = []
    for q in range(len(cutoffs)):
        if per_factor:
            pads.append(sum(op.powers[q][0] + op.powers[q][1] for op in ops))
        else:
            pads.append(max(op.powers[q][0] for op in ops) + max(op.powers[q][1] for op in ops))
    return tuple(c + p for c, p in zip(cutoffs, pads))


def _dense(tracer: Tracer, state, ops, factors: int, per_factor: bool) -> None:
    dims = _working(state, ops, per_factor)
    if dims is not None:
        dim = tracer.note_working(dims)
        tracer.counts["moments.dense_bytes_computed"] += factors * dim * dim * _BYTES_PER_ENTRY


def _build(tracer: Tracer, outer: bool, state, cls, conjugate=None) -> None:
    if outer:
        tracer.counts["moments.build_calls"] += 1
        tracer.build_keys.add((tracer.analysis, id(state), cls, conjugate))


def _account_build(tracer, outer, state, cls, *args, **kwargs):
    _build(tracer, outer, state, cls)
    ops = cls.flat_ops()
    _dense(tracer, state, ops, len(ops), per_factor=False)


def _account_pt_build(tracer, outer, state, cls, *args, **kwargs):
    _build(tracer, outer, state, cls)


def _account_generic_build(tracer, outer, state, cls, conjugate_b_modes=False):
    _build(tracer, outer, state, cls, bool(conjugate_b_modes))
    if not conjugate_b_modes:  # the conjugated path goes through op_expectation
        _dense(tracer, state, cls.ops, len(cls.ops), per_factor=False)


def _account_expectation(tracer, outer, state, specs):
    tracer.counts["moments.expectation_calls"] += 1
    if specs:
        _dense(tracer, state, specs, len(specs), per_factor=True)


def _account_apply(tracer, outer, m, pmap, side="A", dims=None):
    d_a, d_b = (m.d_a, m.d_b) if dims is None else dims
    tracer.counts["posmaps.block_maps"] += d_b * d_b if side == "A" else d_a * d_a


def _account_svd(tracer, outer, *args, **kwargs):
    tracer.counts["reorder.svd_calls"] += 1


_CRITERIA = (
    "pt_norm_test", "realign_norm_test", "pt_min_eig_test", "pt_sylvester_test",
    "generic_pt_det_test", "map_test", "hz_two_mode", "hz_three_mode",
    "breuer_inequality_test", "breuer_bell_test", "sv_cat_state_test",
)
_MAP_BUILDERS = (
    "stormer_map", "choi_map", "breuer_map", "kossakowski_map", "ChoiParams",
    "BreuerParams", "KossakowskiParams", "breuer_unitary", "breuer_antidiagonal_unitary",
)
_CLASSES = {"StateVector", "DensityMatrix", "TableSource"}


def _span_table(pkg):
    """(calling module, attribute, span name, accounting or None) per wrapped call."""
    cli, criteria, moments, reorder, reconstruct = (
        pkg.cli, pkg.criteria, pkg.moments, pkg.reorder, pkg.reconstruct,
    )
    table = [(cli, name, f"criteria.{name}", None) for name in _CRITERIA]
    table += [
        (cli, "build_state", "fock.build_state", None),
        (cli, "StateVector", "fock.StateVector", None),
        (cli, "DensityMatrix", "fock.DensityMatrix", None),
        (cli, "TableSource", "reconstruct.TableSource", None),
        (cli, "state_level_tests", "reconstruct.state_level_tests", None),
        (cli, "two_qubit_density", "reconstruct.two_qubit_density", None),
        (cli, "verdict_to_dict", "cli.verdict_to_dict", None),
        (reconstruct, "reconstruct_density", "reconstruct.reconstruct_density", None),
    ]
    table += [(cli, name, f"posmaps.{name}", None) for name in _MAP_BUILDERS]
    table += [
        (criteria, name, f"posmaps.{name}", None)
        for name in ("breuer_map", "BreuerParams", "breuer_antidiagonal_unitary")
    ]
    builds = {
        "build_moment_matrix": _account_build,
        "build_pt_moment_matrix": _account_pt_build,
        "build_generic_moment_matrix": _account_generic_build,
        "op_expectation": _account_expectation,
    }
    table += [(criteria, name, f"moments.{name}", acc) for name, acc in builds.items()]
    table += [
        (reorder, "build_moment_matrix", "moments.build_moment_matrix", _account_build),
        (moments, "build_moment_matrix", "moments.build_moment_matrix", _account_build),
        (moments, "op_expectation", "moments.op_expectation", _account_expectation),
        (criteria, "apply_partial", "posmaps.apply_partial", _account_apply),
        (criteria, "nu_gamma", "reorder.nu_gamma", None),
        (criteria, "nu_realign", "reorder.nu_realign", None),
        (reorder, "partial_transpose", "reorder.partial_transpose", None),
        (reorder, "realign", "reorder.realign", None),
        (reorder, "trace_norm", "reorder.trace_norm", _account_svd),
        (reconstruct, "trace_norm", "reorder.trace_norm", _account_svd),
        (reconstruct, "transpose_factor", "reorder.transpose_factor", None),
        (reconstruct, "realign_blocks", "reorder.realign_blocks", None),
    ]
    return table


def _counter_table(pkg):
    """(owner, attribute, count key) of calls that are counted but not spanned.

    They are too frequent for spans, and their time belongs to the caller:
    minors to the decision step, elements and table lookups to reconstruction.
    """
    return [
        (pkg.criteria, "principal_submatrix", "criteria.minors_evaluated"),
        (pkg.reconstruct, "density_element", "reconstruct.elements"),
        (pkg.reconstruct.TableSource, "moment", "reconstruct.moments_queried"),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, pkg):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []

    def replace(owner, attr, wrapped):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    try:
        for owner, attr, name, account in _span_table(pkg):
            wrapped = tracer.span(name, getattr(owner, attr), account)
            if attr in _CLASSES:
                wrapped = _TracedClass(getattr(owner, attr), wrapped)
            replace(owner, attr, wrapped)
        for owner, attr, key in _counter_table(pkg):
            replace(owner, attr, tracer.counter(key, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-analysis metrics ------------------------------------------------------


def _layer_metric(name: str) -> str:
    layer = name.split(".", 1)[0]
    if name == "cli.verdict_to_dict":
        return "cli.report_ms"
    if layer == "posmaps":
        return "posmaps.apply_ms" if name == "posmaps.apply_partial" else "posmaps.map_build_ms"
    if layer == "fock":
        return "fock.state_ms"
    return f"{layer}.self_ms"


TIME_METRICS = (
    "cli.self_ms", "cli.report_ms", "fock.state_ms", "moments.self_ms", "posmaps.apply_ms",
    "posmaps.map_build_ms", "criteria.self_ms", "reorder.self_ms", "reconstruct.self_ms",
)


def layer_times_ms(tracer: Tracer, analyses: int) -> dict[str, float]:
    """Mean self milliseconds per analysis for each layer metric."""
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for name, seconds in tracer.self_times().items():
        out[_layer_metric(name)] += seconds * 1e3 / analyses
    return out


def counts_per_analysis(tracer: Tracer, analyses: int) -> dict[str, float]:
    """Per-analysis counts, exact given the same inputs."""
    c = tracer.counts
    builds = c["moments.build_calls"]
    out = {key: c[key] / analyses for key in EXACT_COUNTS}
    out["moments.unique_build_ratio"] = len(tracer.build_keys) / builds if builds else 1.0
    out["reorder.svd_calls"] = c["reorder.svd_calls"] / analyses
    out["reconstruct.elements"] = c["reconstruct.elements"] / analyses
    out["fock.working_dim"] = sum(tracer.working_dim.values()) / analyses
    for layer in LAYERS:
        out[f"{layer}.errors"] = c[f"{layer}.errors"] / analyses
    return out
