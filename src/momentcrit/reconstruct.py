"""Density-matrix reconstruction from ladder-operator moments.

Matrix elements of a finite-dimensional state follow from the alternating
series

    <m1| rho |m2> = 1/sqrt(m1! m2!) * sum_j (-1)^j / j! <a^dag^(m2+j) a^(m1+j)>

and its per-mode product generalization.  The sum is finite once the state
dimension is known (higher moments vanish), which is why ``dims`` is a
required input and never inferred.  For states outside the convergent domain
(e.g. thermal occupation >= 1) the terms do not decay; a non-decay guard
raises instead of returning garbage.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .criteria import Outcome, Verdict, _norm_verdict, min_eig_test, resolve_tol
from .errors import DimensionError, InconsistentMomentsError, SeriesDivergenceError
from .fock import DensityMatrix, ModeCutoffs, Monomial, State
from .moments import TableSource, moment
from .reorder import realign_blocks, trace_norm, transpose_factor

_NON_DECAY_RUN = 5
# Truncating a borderline source shaves each term by a whisker, so "no decay"
# is judged with a small relative margin rather than a strict >= comparison.
_NON_DECAY_MARGIN = 1e-6
# How far a reconstructed matrix may miss Hermiticity, unit trace and positivity.
_DENSITY_TOL = 1e-8


def density_element(
    source: State | TableSource,
    m1: tuple[int, ...] | int,
    m2: tuple[int, ...] | int,
    dims: tuple[int, ...] | int,
) -> complex:
    """Matrix element <m1| rho |m2> from moments, truncated at the given dims."""
    m1 = (m1,) if isinstance(m1, int) else tuple(int(x) for x in m1)
    m2 = (m2,) if isinstance(m2, int) else tuple(int(x) for x in m2)
    dims = (dims,) if isinstance(dims, int) else tuple(int(d) for d in dims)
    modes = source.num_modes
    if len(m1) != modes or len(m2) != modes or len(dims) != modes:
        raise DimensionError("occupations and dims must match the number of modes")
    if any(x < 0 for x in m1 + m2) or any(d < 1 for d in dims):
        raise DimensionError("occupations must be nonnegative and dims >= 1")
    if any(x >= d for x, d in zip(m1 + m2, dims + dims)):
        return 0.0 + 0.0j
    # Per-mode summation ranges: moments with annihilation or creation power
    # >= dim vanish on a dim-limited state, so j runs to dim-1-max(m1, m2).
    ranges = [range(0, d - max(x1, x2)) for x1, x2, d in zip(m1, m2, dims)]
    prefactor = 1.0
    for x1, x2 in zip(m1, m2):
        prefactor /= math.sqrt(math.factorial(x1) * math.factorial(x2))

    specs_needed = []
    for js in np.ndindex(*[len(r) for r in ranges]):
        powers = tuple(
            (x2 + j, x1 + j) for x1, x2, j in zip(m1, m2, js)
        )
        specs_needed.append(Monomial(powers))
    if isinstance(source, TableSource):
        source.require(specs_needed)

    total = 0.0 + 0.0j
    # Guard against non-decaying series along each mode's index line.
    lines: dict[tuple, list[float]] = {}
    for js, spec in zip(np.ndindex(*[len(r) for r in ranges]), specs_needed):
        coeff = prefactor
        for j in js:
            coeff *= (-1) ** j / math.factorial(j)
        term = coeff * moment(source, spec)
        total += term
        for axis in range(modes):
            key = (axis,) + tuple(j for q, j in enumerate(js) if q != axis)
            lines.setdefault(key, []).append(abs(term))
    for key, sequence in lines.items():
        run = 0
        for prev, cur in zip(sequence, sequence[1:]):
            if prev > 0 and cur >= prev * (1.0 - _NON_DECAY_MARGIN):
                run += 1
                if run >= _NON_DECAY_RUN:
                    raise SeriesDivergenceError(
                        "moment series shows no decay over "
                        f"{_NON_DECAY_RUN} consecutive terms (mode {key[0]}); "
                        "the source state is outside the convergent domain"
                    )
            else:
                run = 0
    return total


def reconstruct_density(source: State | TableSource, dims: tuple[int, ...]) -> DensityMatrix:
    """Full density matrix via the general series, element by element."""
    dims = tuple(int(d) for d in dims)
    cutoffs = ModeCutoffs(dims)
    d = cutoffs.total_dimension
    rho = np.empty((d, d), dtype=complex)
    occupations = list(np.ndindex(*dims))
    for i, occ_i in enumerate(occupations):
        for j, occ_j in enumerate(occupations):
            if j < i:
                continue
            value = density_element(source, occ_i, occ_j, dims)
            rho[i, j] = value
            rho[j, i] = value.conjugate()
    return _validated_density(rho, cutoffs, source.label)


# Entry table for the two-qubit closed form: per-mode factors keyed by the
# (bra, ket) occupation pair, expanded into normally ordered monomial terms
# (coefficient, (creation, annihilation)).
_QUBIT_FACTORS = {
    (0, 0): (((1.0, (0, 0)), (-1.0, (1, 1)))),  # 1 - N
    (0, 1): ((1.0, (1, 0)),),                   # creation
    (1, 0): ((1.0, (0, 1)),),                   # annihilation
    (1, 1): ((1.0, (1, 1)),),                   # N
}


def two_qubit_density(source: State | TableSource) -> DensityMatrix:
    """Two-qubit density matrix assembled from 16 moment combinations.

    Every entry is a product over the two modes of {1-N, a^dag, a, N}
    factors, expanded into plain normally ordered moments before querying
    the source.
    """
    if source.num_modes != 2:
        raise DimensionError("two-qubit reconstruction needs exactly two modes")
    specs_needed = [
        Monomial(((p, q), (r, s)))
        for p in (0, 1)
        for q in (0, 1)
        for r in (0, 1)
        for s in (0, 1)
    ]
    if isinstance(source, TableSource):
        source.require(specs_needed)
    rho = np.zeros((4, 4), dtype=complex)
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i, (m1, n1) in enumerate(basis):
        for j, (m2, n2) in enumerate(basis):
            total = 0.0 + 0.0j
            for ca, pa in _QUBIT_FACTORS[(m1, m2)]:
                for cb, pb in _QUBIT_FACTORS[(n1, n2)]:
                    total += ca * cb * moment(source, Monomial((pa, pb)))
            rho[i, j] = total
    return _validated_density(rho, ModeCutoffs((2, 2)), source.label)


def _validated_density(rho: np.ndarray, cutoffs: ModeCutoffs, label: str) -> DensityMatrix:
    herm = np.max(np.abs(rho - rho.conj().T))
    tr = np.trace(rho)
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if herm > _DENSITY_TOL or abs(tr - 1.0) > _DENSITY_TOL or min_eig < -_DENSITY_TOL:
        raise InconsistentMomentsError(
            "reconstructed matrix violates density-matrix constraints: "
            f"hermiticity defect {herm:.2e}, trace {tr:.6f}, min eigenvalue {min_eig:.2e}"
        )
    # Clean the sub-tolerance defects so the strict state invariants hold.
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho).real
    eigvals, eigvecs = np.linalg.eigh(rho)
    eigvals = np.clip(eigvals, 0.0, None)
    rho = (eigvecs * eigvals) @ eigvecs.conj().T
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
