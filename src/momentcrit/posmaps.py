"""Positive (not completely positive) maps and their partial application.

The catalog covers the three-parameter diagonal-type map on 3x3 matrices
(with its indecomposable special case), the rotation-parameterized map built
on an orthonormal traceless generator basis, and the time-reversal map on
even dimensions built from a skew-symmetric unitary.  Partially applying any
of these to one factor of a separable block matrix preserves positivity, so
a negative output eigenvalue witnesses entanglement of the input.

Every map here is linear, so a ``PositiveMap`` is its d^2 x d^2 superoperator
matrix S on row-major vectorizations: vec(A) = A.reshape(-1), that is
vec(A)[i*d + j] = A[i, j], and S @ vec(A) = vec(Phi(A)).  Each builder forms
S once from the map's closed form; applying the map to one matrix, or to
every block of one tensor factor, is a product with S.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionError
from .moments import MomentMatrix

_ORTHO_TOL = 1e-10
MAP_DIMENSION_CAP = 32  # a superoperator has d^4 entries: 16 MB at the cap


@dataclasses.dataclass(frozen=True)
class ChoiParams:
    """Parameters (alpha, beta, gamma) of the diagonal-type map on 3x3 inputs.

    Validated to be a positive map at construction:
    alpha >= 1, alpha + beta + gamma >= 3, and for 1 <= alpha <= 2
    additionally beta * gamma >= (2 - alpha)^2.  The ``decomposable`` flag
    records whether the map is decomposable (alpha >= 1 and, for
    1 <= alpha <= 3, beta * gamma >= (3 - alpha)^2 / 4); indecomposable maps
    are the ones that can in principle see PPT entanglement.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a, b, g = float(self.alpha), float(self.beta), float(self.gamma)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)
        if min(a, b, g) < 0:
            raise ValueError("map parameters must be nonnegative")
        if a < 1 or a + b + g < 3 or (1 <= a <= 2 and b * g < (2 - a) ** 2):
            raise ValueError(
                f"parameters ({a}, {b}, {g}) do not define a positive map"
            )

    @property
    def decomposable(self) -> bool:
        if self.alpha < 1:
            return False
        if 1 <= self.alpha <= 3:
            return self.beta * self.gamma >= (3 - self.alpha) ** 2 / 4
        return True


def stormer() -> ChoiParams:
    """The indecomposable special case (2, 0, 1)."""
    return ChoiParams(2.0, 0.0, 1.0)


def gell_mann_generators(n: int) -> list[np.ndarray]:
    """Traceless Hermitian basis of su(n), orthonormal under Tr(g_i g_j) = delta_ij.

    Order: symmetric pairs (j < k lexicographic), antisymmetric pairs, then
    the diagonal members.  For n = 2 these are the Pauli matrices / sqrt(2).
    """
    if n < 2:
        raise DimensionError("generator basis needs dimension >= 2")
    gens: list[np.ndarray] = []
    for j in range(n):
        for k in range(j + 1, n):
            g = np.zeros((n, n), dtype=complex)
            g[j, k] = g[k, j] = 1 / np.sqrt(2)
            gens.append(g)
    for j in range(n):
        for k in range(j + 1, n):
            g = np.zeros((n, n), dtype=complex)
            g[j, k] = -1j / np.sqrt(2)
            g[k, j] = 1j / np.sqrt(2)
            gens.append(g)
    for l in range(1, n):
        g = np.zeros((n, n), dtype=complex)
        g[np.diag_indices(n)] = [1.0] * l + [-l] + [0.0] * (n - l - 1)
        g /= np.sqrt(l * (l + 1))
        gens.append(g)
    return gens


def _orthogonal(r: np.ndarray, dim: int) -> np.ndarray:
    """r as a real array, once it is dim x dim and orthogonal within 1e-10."""
    r = np.asarray(r, dtype=float)
    if r.shape != (dim, dim):
        raise DimensionError(f"rotation must be {dim}x{dim}, got {r.shape}")
    if np.max(np.abs(r @ r.T - np.eye(dim))) > _ORTHO_TOL:
        raise ValueError("rotation matrix is not orthogonal within 1e-10")
    return r


def _check_rotation(r: np.ndarray, dim: int) -> np.ndarray:
    r = _orthogonal(r, dim)
    if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
        raise ValueError("rotation matrix must have determinant +1 within 1e-10")
    return r


def _kossakowski_matrix(n: int, rotation: np.ndarray) -> np.ndarray:
    """(I/n) Tr A + sum_ij g_i R_ij Tr(A g_j) / (n - 1) over the generators g_i."""
    gens = np.array(gell_mann_generators(n))
    vec_g = gens.reshape(len(gens), -1)  # rows vec(g_i)
    trace_g = gens.transpose(0, 2, 1).reshape(len(gens), -1)  # Tr(A g_j) = vec(g_j^T) . vec(A)
    vec_eye = np.eye(n).reshape(-1)
    return np.outer(vec_eye, vec_eye) / n + vec_g.T @ rotation @ trace_g / (n - 1)


@dataclasses.dataclass(frozen=True)
class KossakowskiParams:
    """Rotation map data: dimension n and rotation R on the generator space
    (default: the identity).

    This is the y = 0 member of the family (the usage this package needs).  It is
    positive for every orthogonal R.  Write a state as rho = I/n + sum_j r_j g_j over
    the orthonormal generators g_j; a pure state has |r|^2 = Tr rho^2 - 1/n = (n-1)/n.
    The map sends r to R r / (n - 1), of length 1/sqrt(n (n - 1)) for a pure state,
    and I/n + s.g is positive semidefinite whenever |s| <= 1/sqrt(n (n - 1)), the
    radius of the largest ball about I/n inside the state space.  So every pure
    state, and by linearity every PSD input, maps to a PSD output; only the rotation
    itself is checked (``_check_rotation``).
    """

    n: int
    rotation: np.ndarray | None = None

    def __post_init__(self):
        n = int(self.n)
        object.__setattr__(self, "n", n)
        if not 2 <= n <= MAP_DIMENSION_CAP:
            raise DimensionError(f"dimension must be in 2..{MAP_DIMENSION_CAP}, got {n}")
        dim = n * n - 1
        rotation = _check_rotation(np.eye(dim) if self.rotation is None else self.rotation, dim)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "_superoperator", _kossakowski_matrix(n, rotation))


def _check_breuer_dim(d: int) -> None:
    if d < 4 or d % 2 or d > MAP_DIMENSION_CAP:
        raise DimensionError(f"dimension must be even and in 4..{MAP_DIMENSION_CAP}, got {d}")


@dataclasses.dataclass(frozen=True)
class BreuerParams:
    """Time-reversal map data: even dimension d and skew-symmetric unitary U."""

    d: int
    unitary: np.ndarray

    def __post_init__(self):
        d = int(self.d)
        object.__setattr__(self, "d", d)
        _check_breuer_dim(d)
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (d, d):
            raise DimensionError(f"unitary must be {d}x{d}, got {u.shape}")
        if np.max(np.abs(u @ u.conj().T - np.eye(d))) > _ORTHO_TOL:
            raise ValueError("U is not unitary within 1e-10")
        if np.max(np.abs(u.T + u)) > _ORTHO_TOL:
            raise ValueError("U is not skew-symmetric within 1e-10")
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)


def breuer_unitary(phases: tuple[float, ...], rotation: np.ndarray | None = None) -> np.ndarray:
    """Skew-symmetric unitary U = R D R^T from 2x2 rotation blocks D.

    D places e^{i phi_k} (|2k><2k+1| - |2k+1><2k|) on consecutive pairs; any
    real orthogonal R (default identity) conjugates it.
    """
    d = 2 * len(phases)
    _check_breuer_dim(d)
    dmat = np.zeros((d, d), dtype=complex)
    for k, phi in enumerate(phases):
        phase = np.exp(1j * float(phi))
        dmat[2 * k, 2 * k + 1] = phase
        dmat[2 * k + 1, 2 * k] = -phase
    if rotation is None:
        return dmat
    r = _orthogonal(rotation, d)
    return r @ dmat @ r.T


def breuer_antidiagonal_unitary(d: int) -> np.ndarray:
    """The anti-diagonal skew-symmetric unitary with +1 above, -1 below center."""
    _check_breuer_dim(d)
    u = np.zeros((d, d), dtype=complex)
    for i in range(d):
        u[i, d - 1 - i] = 1.0 if i < d // 2 else -1.0
    return u


@dataclasses.dataclass(frozen=True)
class PositiveMap:
    """A validated positive map: name, input dimension d and its read-only
    d^2 x d^2 superoperator ``matrix`` on row-major vec (module docstring)."""

    name: str
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=complex)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise DimensionError(f"map acts on {self.dim}x{self.dim} matrices, got {a.shape}")
        return (self.matrix @ a.reshape(-1)).reshape(a.shape)


def choi_map(p: ChoiParams) -> PositiveMap:
    """-A plus the cyclic recombination of (a00, a11, a22) on the diagonal."""
    a, b, g = p.alpha, p.beta, p.gamma
    matrix = -np.eye(9)
    diagonal = [0, 4, 8]  # vec positions of a00, a11, a22
    matrix[np.ix_(diagonal, diagonal)] += [[a, b, g], [g, a, b], [b, g, a]]
    return PositiveMap(f"choi({a:g},{b:g},{g:g})", 3, matrix)


def stormer_map() -> PositiveMap:
    return dataclasses.replace(choi_map(stormer()), name="stormer")


def kossakowski_map(p: KossakowskiParams) -> PositiveMap:
    return PositiveMap(f"kossakowski(n={p.n})", p.n, p._superoperator)


def breuer_map(p: BreuerParams) -> PositiveMap:
    """I Tr A - A - U A^T U^dag, with vec(U B U^dag) = (U kron conj(U)) vec(B)."""
    d = p.d
    vec_eye = np.eye(d).reshape(-1)
    transpose = np.arange(d * d).reshape(d, d).T.reshape(-1)  # vec(A^T) = vec(A)[transpose]
    theta = np.kron(p.unitary, p.unitary.conj())[:, transpose]
    matrix = np.outer(vec_eye, vec_eye) - np.eye(d * d) - theta
    return PositiveMap(f"breuer(d={d})", d, matrix)


def apply_partial(
    m: MomentMatrix | np.ndarray,
    pmap: PositiveMap,
    side: str = "A",
    dims: tuple[int, int] | None = None,
) -> np.ndarray:
    """Apply a positive map to one tensor factor of a bipartite block matrix.

    side="A" transforms the fast (A-side) d_A x d_A blocks, side="B" the slow
    ones.  The worked witness patterns in the regression suite all use
    side="A"; both sides are first-class.  All blocks of the factor are
    mapped by one product with ``pmap.matrix``.  Returns a plain array: the
    output is generally not a moment matrix.
    """
    if isinstance(m, MomentMatrix):
        entries, d_a, d_b = m.entries, m.d_a, m.d_b
    else:
        if dims is None:
            raise DimensionError("dims=(d_a, d_b) is required for a raw array")
        d_a, d_b = dims
        entries = np.asarray(m, dtype=complex)
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    d = d_a if side == "A" else d_b
    if pmap.dim != d:
        raise DimensionError(f"map dimension {pmap.dim} != d_{side.lower()} {d}")
    four = entries.reshape(d_b, d_a, d_b, d_a)
    # Put the mapped factor's row and column indices last: every leading index pair is one block.
    axes = (0, 2, 1, 3) if side == "A" else (1, 3, 0, 2)
    blocks = four.transpose(axes)
    mapped = (blocks.reshape(-1, d * d) @ pmap.matrix.T).reshape(blocks.shape)
    return mapped.transpose(np.argsort(axes)).reshape(d_a * d_b, d_a * d_b)
