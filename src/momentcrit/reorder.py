"""Reorderings of bipartite block matrices: factor transposition, realignment.

A matrix over a product index range is stored flat with the *fast* factor
varying fastest: flat = slow * d_fast + fast.  Moment matrices put the A side
on the fast factor (d_fast = d_A, d_slow = d_B); density matrices in the
Fock basis put mode A on the slow factor.  The same two kernels below serve
both call sites.

Functions of a moment matrix take the built ``MomentMatrix``, so a criterion
builds M once; only ``build_pt_moment_matrix`` builds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DegenerateStateError, DimensionError
from .moments import MomentMatrix, OperatorClass, TableSource, build_moment_matrix
from .fock import State

# Singular values below this fraction of the largest are rank-deficiency noise.
_SVD_REL_FLOOR = 1e-13


def _blocks(matrix: np.ndarray, d_slow: int, d_fast: int) -> np.ndarray:
    m = np.asarray(matrix)
    if m.shape != (d_slow * d_fast, d_slow * d_fast):
        raise DimensionError(
            f"matrix shape {m.shape} does not factor as ({d_slow}*{d_fast})^2"
        )
    return m.reshape(d_slow, d_fast, d_slow, d_fast)


def transpose_factor(
    matrix: np.ndarray, d_slow: int, d_fast: int, factor: str
) -> np.ndarray:
    """Transpose one tensor factor: out[(s,f),(s',f')] picks the swapped index.

    factor="fast": out[(s,f),(s',f')] = in[(s,f'),(s',f)]
    factor="slow": out[(s,f),(s',f')] = in[(s',f),(s,f')]
    """
    four = _blocks(matrix, d_slow, d_fast)
    if factor == "fast":
        out = four.transpose(0, 3, 2, 1)
    elif factor == "slow":
        out = four.transpose(2, 1, 0, 3)
    else:
        raise ValueError("factor must be 'fast' or 'slow'")
    return out.reshape(d_slow * d_fast, d_slow * d_fast)


def realign_blocks(matrix: np.ndarray, d_slow: int, d_fast: int) -> np.ndarray:
    """Realignment: out[(s,s'),(f,f')] = in[(s,f),(s',f')], shape (d_slow^2, d_fast^2)."""
    four = _blocks(matrix, d_slow, d_fast)
    return four.transpose(0, 2, 1, 3).reshape(d_slow * d_slow, d_fast * d_fast)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values, with a relative floor on rank-deficient noise."""
    s = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    return float(np.sum(s[s > _SVD_REL_FLOOR * s[0]]))


def partial_transpose(m: MomentMatrix, side: str = "A") -> MomentMatrix:
    """Partial transposition of a moment matrix.

    side="A" exchanges the A-side (fast) indices k <-> k'; side="B" exchanges
    the B-side (slow) indices l <-> l'.  The two results are transposes of
    each other, so spectra, principal minors and trace norms coincide.
    """
    if side == "A":
        out = transpose_factor(m.entries, m.d_b, m.d_a, "fast")
    elif side == "B":
        out = transpose_factor(m.entries, m.d_b, m.d_a, "slow")
    else:
        raise ValueError("side must be 'A' or 'B'")
    return dataclasses.replace(m, entries=out)


def realign(m: MomentMatrix) -> np.ndarray:
    """Realigned moment matrix, rows (l, l') and columns (k, k'); generally not square.

    This pairing matches the worked 4x4 realignment pattern; the trace norm is
    invariant under the transposed one.
    """
    return realign_blocks(m.entries, m.d_b, m.d_a)


def build_pt_moment_matrix(state: State | TableSource, cls: OperatorClass) -> MomentMatrix:
    """Moment matrix of the partially transposed state, by index swap.

    Entries obey out[(k,l),(k',l')] = M[(k,l'),(k',l)], the exchange of the
    B-side indices of the state's own moment matrix; no explicit state-level
    partial transpose is performed.
    """
    return partial_transpose(build_moment_matrix(state, cls), "B")


def _normalizer(m: MomentMatrix) -> float:
    tr = m.trace()
    if tr <= 1e-12:
        raise DegenerateStateError("moment matrix has (numerically) zero trace")
    return tr


def nu_gamma(m: MomentMatrix) -> float:
    """Normalized trace norm of the partially transposed moment matrix.

    Values above 1 witness entanglement; both sides give the same number.
    """
    return trace_norm(partial_transpose(m).entries) / _normalizer(m)


def nu_realign(m: MomentMatrix) -> float:
    """Normalized trace norm of the realigned moment matrix."""
    return trace_norm(realign(m)) / _normalizer(m)
