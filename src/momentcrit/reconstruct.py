"""Density-matrix reconstruction from ladder-operator moments.

Matrix elements of a finite-dimensional state follow from the alternating
series

    <m1| rho |m2> = 1/sqrt(m1! m2!) * sum_j (-1)^j / j! <a^dag^(m2+j) a^(m1+j)>

and its per-mode product generalization.  Each moment it reads is an entry
G[m2+j, m1+j] of one Gram matrix G[n, m] = <(a^n)^dag a^m> over the
annihilation monomials with powers below ``dims``: one shift-table pass on a
state, and on a table one batch of lookups that names every missing monomial
at once.  A fixed per-mode map (coefficient c[m1, m2, j], row m2+j, column
m1+j) reads the terms out of it.  The sum is finite once the state dimension
is known (higher moments vanish), which is why ``dims`` is a required input
and never inferred.  The terms of all elements number D^3, D = prod(dims);
above ``fock.MOMENT_WORKING_CAP`` they are refused before any work.  For
states outside the convergent domain (e.g. thermal occupation >= 1) the
terms do not decay; a non-decay guard raises instead of returning garbage.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .criteria import Outcome, Verdict, _norm_verdict, min_eig_test, resolve_tol
from .errors import DimensionError, InconsistentMomentsError, SeriesDivergenceError
from .fock import MOMENT_WORKING_CAP, DensityMatrix, ModeCutoffs, Monomial, State
from .moments import TableSource, _gram_moments
from .reorder import realign_blocks, trace_norm, transpose_factor

_NON_DECAY_RUN = 5
# Truncating a borderline source shaves each term by a whisker, so "no decay"
# is judged with a small relative margin rather than a strict >= comparison.
_NON_DECAY_MARGIN = 1e-6
# How far a reconstructed matrix may miss Hermiticity, unit trace and positivity.
_DENSITY_TOL = 1e-8


def _as_tuple(x) -> tuple[int, ...]:
    return (x,) if isinstance(x, int) else tuple(int(v) for v in x)


@functools.lru_cache(maxsize=64)
def _mode_map(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One mode's series map over (m1, m2, j), each d x d x d: coefficient, Gram row, column.

    The coefficient is (-1)^j / (j! sqrt(m1! m2!)) while m1 + j and m2 + j stay below d,
    and 0 past that, where row and column point at entry 0.
    """
    m1, m2, j = np.ogrid[:d, :d, :d]
    live = (m1 + j < d) & (m2 + j < d)
    fact = np.array([float(math.factorial(k)) for k in range(d)])
    root = np.sqrt(fact)
    coef = np.where(live, (-1.0) ** j / fact[j] / (root[m1] * root[m2]), 0.0)
    maps = coef, np.where(live, m2 + j, 0), np.where(live, m1 + j, 0)
    for a in maps:
        a.flags.writeable = False
    return maps


def _series_terms(
    source: State | TableSource, dims: tuple[int, ...], element=None
) -> np.ndarray:
    """Series terms t[m1, m2, j], one axis per mode for each of m1, m2 and j.

    All elements, or with ``element`` = (m1, m2) that one alone (its m axes have
    length 1).  The terms are gathered from one Gram matrix and checked for decay.
    """
    modes, d = len(dims), math.prod(dims)
    if d**3 > MOMENT_WORKING_CAP:
        raise DimensionError(f"dims {dims} give {d**3} series terms, above {MOMENT_WORKING_CAP}")
    ops = tuple(Monomial._unchecked([(0, n) for n in occ]) for occ in np.ndindex(*dims))
    gram = _gram_moments(source, ops)
    coef, rows, cols = 1.0, 0, 0
    for q, dq in enumerate(dims):
        maps = _mode_map(dq)
        if element is not None:
            x1, x2 = element[0][q], element[1][q]
            maps = [a[x1 : x1 + 1, x2 : x2 + 1] for a in maps]
        shape = [1] * (3 * modes)
        shape[q], shape[modes + q], shape[2 * modes + q] = maps[0].shape
        coef = coef * maps[0].reshape(shape)
        rows = rows * dq + maps[1].reshape(shape)
        cols = cols * dq + maps[2].reshape(shape)
    terms = coef * gram[rows, cols]
    _check_decay(np.abs(terms), modes)
    return terms


def _check_decay(size: np.ndarray, modes: int) -> None:
    """Raise when the terms along one mode's j, the other indices fixed, stop decaying."""
    for q in range(modes):
        line = np.moveaxis(size, 2 * modes + q, -1)
        if line.shape[-1] <= _NON_DECAY_RUN:
            continue
        prev, cur = line[..., :-1], line[..., 1:]
        flat = (prev > 0) & (cur >= prev * (1.0 - _NON_DECAY_MARGIN))
        windows = np.lib.stride_tricks.sliding_window_view(flat, _NON_DECAY_RUN, axis=-1)
        if windows.all(axis=-1).any():
            raise SeriesDivergenceError(
                "moment series shows no decay over "
                f"{_NON_DECAY_RUN} consecutive terms (mode {q}); "
                "the source state is outside the convergent domain"
            )


def density_element(
    source: State | TableSource,
    m1: tuple[int, ...] | int,
    m2: tuple[int, ...] | int,
    dims: tuple[int, ...] | int,
) -> complex:
    """Matrix element <m1| rho |m2> from moments, truncated at the given dims."""
    m1, m2, dims = _as_tuple(m1), _as_tuple(m2), _as_tuple(dims)
    if any(len(x) != source.num_modes for x in (m1, m2, dims)):
        raise DimensionError("occupations and dims must match the number of modes")
    if any(x < 0 for x in m1 + m2) or any(d < 1 for d in dims):
        raise DimensionError("occupations must be nonnegative and dims >= 1")
    if any(x >= d for x, d in zip(m1 + m2, dims + dims)):
        return 0.0 + 0.0j
    return complex(_series_terms(source, dims, (m1, m2)).sum())


def reconstruct_density(source: State | TableSource, dims: tuple[int, ...]) -> DensityMatrix:
    """Full density matrix: the series of every element, read from one Gram matrix."""
    cutoffs = ModeCutoffs(_as_tuple(dims))
    if cutoffs.num_modes != source.num_modes:
        raise DimensionError("occupations and dims must match the number of modes")
    d = cutoffs.total_dimension
    rho = _series_terms(source, cutoffs.cutoffs).reshape(d, d, d).sum(axis=-1)
    return _validated_density(rho, cutoffs, source.label)


def two_qubit_density(source: State | TableSource) -> DensityMatrix:
    """Two-qubit density matrix: ``reconstruct_density(source, (2, 2))`` on two modes."""
    if source.num_modes != 2:
        raise DimensionError("two-qubit reconstruction needs exactly two modes")
    return reconstruct_density(source, (2, 2))


def _validated_density(rho: np.ndarray, cutoffs: ModeCutoffs, label: str) -> DensityMatrix:
    herm = np.max(np.abs(rho - rho.conj().T))
    tr = np.trace(rho)
    eigvals, eigvecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    if herm > _DENSITY_TOL or abs(tr - 1.0) > _DENSITY_TOL or eigvals[0] < -_DENSITY_TOL:
        raise InconsistentMomentsError(
            "reconstructed matrix violates density-matrix constraints: "
            f"hermiticity defect {herm:.2e}, trace {tr:.6f}, min eigenvalue {eigvals[0]:.2e}"
        )
    # Clean the sub-tolerance defects so the strict state invariants hold.
    rho = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.conj().T
    rho = rho / np.trace(rho).real
    return DensityMatrix(cutoffs, rho, label=f"reconstructed:{label}")


def state_level_tests(
    rho: DensityMatrix,
    dims: tuple[int, int],
    tol: float | None = None,
) -> list[Verdict]:
    """PT and realignment tests applied directly to a density matrix.

    Returns verdicts for the PT minimum eigenvalue, the PT trace norm and
    the realignment trace norm, decided by the same rules as the moment
    criteria.  For 2x2 and 2x3 systems a PPT pass is strengthened to
    SEPARABLE; everywhere else non-detection stays INCONCLUSIVE.
    """
    matrix = rho.matrix
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a * d_b != matrix.shape[0]:
        raise DimensionError(f"dims {dims} do not factor the matrix size {matrix.shape}")
    tol = resolve_tol(rho, tol)
    prov = {"dims": (d_a, d_b), "state": rho.label}
    # State flattening is mode-major: A is the slow factor here.
    pt = transpose_factor(matrix, d_a, d_b, "fast")
    eig = min_eig_test(pt, tol, "state_pt_min_eig", prov)
    if not eig.entangled and sorted((d_a, d_b)) in ([2, 2], [2, 3]):
        eig = dataclasses.replace(eig, outcome=Outcome.SEPARABLE)
    pt_norm = trace_norm(pt)
    realign_norm = trace_norm(realign_blocks(matrix, d_a, d_b))
    return [
        eig,
        _norm_verdict(pt_norm, tol, "state_pt_norm", {"trace_norm": pt_norm}, prov),
        _norm_verdict(realign_norm, tol, "state_realign_norm", {"trace_norm": realign_norm}, prov),
    ]
