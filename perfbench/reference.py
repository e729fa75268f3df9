"""Plain-numpy reference values for the correctness gate.

Independent of the package: states are rebuilt here from the config, every
ladder monomial is a product of single-mode matrices applied mode by mode,
and the witnesses of ``pt_min_eig``, ``pt_norm`` and ``realign_norm`` follow
from the resulting moment matrix by explicit index maps.
"""

from __future__ import annotations

import math

import numpy as np

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
EPSILON = 1e-10  # the package's default coherent norm-deficit target


def mode_operator(n: int, m: int, cutoff: int) -> np.ndarray:
    """(a^dag)^n a^m on one mode truncated at ``cutoff``."""
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)
    return np.linalg.matrix_power(a.conj().T, n) @ np.linalg.matrix_power(a, m)


def powers(text: str, num_modes: int) -> tuple[tuple[int, int], ...]:
    """Per-mode (creation, annihilation) powers of a compact monomial string."""
    out = [[0, 0] for _ in range(num_modes)]
    if text != "1":
        for ch in text:
            out[_LETTERS.index(ch.lower())][0 if ch.isupper() else 1] += 1
    return tuple((n, m) for n, m in out)


# -- states --------------------------------------------------------------------


def coherent_cutoff(alpha: float, eps: float = EPSILON) -> int:
    """Smallest cutoff whose Poisson tail weight is below eps."""
    n2 = alpha * alpha
    term = math.exp(-n2)
    total = 0.0
    c = 0
    while True:
        total += term
        c += 1
        if 1.0 - total < eps:
            return c
        term *= n2 / c


def _ket(occupations: tuple[int, ...], cutoffs: tuple[int, ...]) -> np.ndarray:
    v = np.zeros(cutoffs, dtype=complex)
    v[occupations] = 1.0
    return v.reshape(-1)


def _coherent(alpha: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    mags = np.exp(-alpha * alpha / 2 + n * math.log(abs(alpha)) - log_fact / 2) if alpha else (n == 0) * 1.0
    return (mags * np.sign(alpha) ** n).astype(complex)


def _coherent_product(alphas: tuple[float, ...], cutoffs: tuple[int, ...]) -> np.ndarray:
    v = np.ones(1, dtype=complex)
    for alpha, c in zip(alphas, cutoffs):
        v = np.kron(v, _coherent(alpha, c))
    return v


_FOCK_TERMS = {
    "singlet": (2, [(1, (0, 1)), (-1, (1, 0))]),
    "bell_phi_plus": (2, [(1, (0, 0)), (1, (1, 1))]),
    "partial_example2": (2, [(1, (0, 0)), (1, (0, 1)), (1, (1, 0))]),
    "ghz3": (3, [(1, (0, 0, 0)), (1, (1, 1, 1))]),
    "w3": (3, [(1, (0, 0, 1)), (1, (0, 1, 0)), (1, (1, 0, 0))]),
}
_COHERENT_TERMS = {
    "cat_prime": lambda a, b: [(1, (a, -b)), (-1, (-a, b))],
    "cat_double_prime": lambda a, b: [(1, (a, b)), (-1, (-a, -b))],
    "product_coherent": lambda a, b: [(1, (a, b))],
}


def library_state(name: str, params: dict) -> tuple[str, tuple, np.ndarray]:
    """("pure", cutoffs, vector) for the library states the workloads use."""
    params = params or {}
    if name in _FOCK_TERMS:
        modes, terms = _FOCK_TERMS[name]
        cutoffs = (int(params.get("cutoff", 2)),) * modes
        vec = sum(c * _ket(occ, cutoffs) for c, occ in terms)
    else:
        a, b = float(params["alpha"]), float(params["beta"])
        terms = _COHERENT_TERMS[name](a, b)
        cutoffs = (coherent_cutoff(a), coherent_cutoff(b))
        vec = sum(c * _coherent_product(alphas, cutoffs) for c, alphas in terms)
    return "pure", cutoffs, vec / np.linalg.norm(vec)


# -- moment matrices -----------------------------------------------------------


def _apply(tensor: np.ndarray, ops: tuple[tuple[int, int], ...]) -> np.ndarray:
    for q, (n, m) in enumerate(ops):
        if n or m:
            op = mode_operator(n, m, tensor.shape[q])
            tensor = np.moveaxis(np.tensordot(op, tensor, axes=(1, q)), 0, q)
    return tensor


def tensor_class_ops(cls: dict, num_modes: int) -> tuple[list, int, int]:
    """Flat row monomials (A side fastest) and side sizes of a tensor class."""
    side_a = [powers(s, num_modes) for s in cls.get("side_a", ["1", "a"])]
    side_b = [powers(s, num_modes) for s in cls.get("side_b", ["1", "b"])]
    rows = [
        tuple((na + nb, ma + mb) for (na, ma), (nb, mb) in zip(fa, fb))
        for fb in side_b
        for fa in side_a
    ]
    return rows, len(side_a), len(side_b)


def moment_matrix(state: tuple, rows: list) -> np.ndarray:
    """M_ij = <F_i^dag F_j> on a zero-padded copy of the state."""
    kind, cutoffs, data = state
    pads = [max(r[q][0] for r in rows) + max(r[q][1] for r in rows) for q in range(len(cutoffs))]
    working = tuple(c + p for c, p in zip(cutoffs, pads))
    if kind == "pure":
        weights, vectors = np.ones(1), data[None, :]
    else:
        weights, vecs = np.linalg.eigh(data)
        vectors = vecs.T
    out = np.zeros((len(rows), len(rows)), dtype=complex)
    for w, v in zip(weights, vectors):
        padded = np.zeros(working, dtype=complex)
        padded[tuple(slice(0, c) for c in cutoffs)] = v.reshape(cutoffs)
        phi = np.array([_apply(padded, r).reshape(-1) for r in rows])
        out += w * (phi.conj() @ phi.T)
    return out


def witnesses(matrix: np.ndarray, d_a: int, d_b: int) -> dict[str, float]:
    """Reference witness values keyed by report criterion name."""
    four = matrix.reshape(d_b, d_a, d_b, d_a)  # [l, k, l', k']
    size = d_a * d_b
    trace = float(np.trace(matrix).real)
    # PT state: out[(l,k),(l',k')] = M[(l',k),(l,k')]
    pt_state = np.einsum("mklj->lkmj", four).reshape(size, size)
    # A-side transpose: out[(l,k),(l',k')] = M[(l,k'),(l',k)]
    pt_a = np.einsum("ljmk->lkmj", four).reshape(size, size)
    realigned = np.einsum("lkmj->lmkj", four).reshape(d_b * d_b, d_a * d_a)
    return {
        "pt_min_eig": float(np.linalg.eigvalsh((pt_state + pt_state.conj().T) / 2)[0]),
        "pt_norm": float(np.linalg.svd(pt_a, compute_uv=False).sum()) / trace,
        "realign_norm": float(np.linalg.svd(realigned, compute_uv=False).sum()) / trace,
    }
