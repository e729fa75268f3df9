"""Independent oracles used to freeze expected values, kept separate from the
code paths they check."""

import math

import numpy as np

from momentcrit.fock import ModeCutoffs, Monomial, StateVector
from momentcrit.posmaps import PositiveMap, gell_mann_generators


def coherent_overlap(b1: complex, b2: complex) -> complex:
    """<b1|b2> = exp(-|b1|^2/2 - |b2|^2/2 + conj(b1) b2) for coherent states."""
    return np.exp(-abs(b1) ** 2 / 2 - abs(b2) ** 2 / 2 + np.conj(b1) * b2)


def coherent_monomial_moment(coeffs, alpha_sets, powers) -> complex:
    """Moment of a normally ordered monomial on a coherent superposition.

    Uses <b1| a^dag^n a^m |b2> = conj(b1)^n b2^m <b1|b2> per mode, summed over
    all cross terms of sum_s c_s |alphas_s> and normalized by the norm.
    """
    num = 0j
    den = 0j
    for cs, als in zip(coeffs, alpha_sets):
        for ct, alt in zip(coeffs, alpha_sets):
            overlap = 1.0 + 0j
            full = 1.0 + 0j
            for (n, m), b1, b2 in zip(powers, als, alt):
                o = coherent_overlap(b1, b2)
                overlap *= o
                full *= np.conj(b1) ** n * b2 ** m * o
            num += np.conj(cs) * ct * full
            den += np.conj(cs) * ct * overlap
    return num / den


def brute_realignment(matrix: np.ndarray, d_slow: int, d_fast: int) -> np.ndarray:
    """Element-by-element realignment map, written as explicit index loops."""
    out = np.zeros((d_slow * d_slow, d_fast * d_fast), dtype=complex)
    for s in range(d_slow):
        for f in range(d_fast):
            for sp in range(d_slow):
                for fp in range(d_fast):
                    out[s * d_slow + sp, f * d_fast + fp] = matrix[
                        s * d_fast + f, sp * d_fast + fp
                    ]
    return out


def brute_factor_transpose(
    matrix: np.ndarray, d_slow: int, d_fast: int, factor: str
) -> np.ndarray:
    """Element-by-element single-factor transpose, written as explicit loops."""
    out = np.zeros_like(np.asarray(matrix, dtype=complex))
    for s in range(d_slow):
        for f in range(d_fast):
            for sp in range(d_slow):
                for fp in range(d_fast):
                    if factor == "fast":
                        out[s * d_fast + f, sp * d_fast + fp] = matrix[
                            s * d_fast + fp, sp * d_fast + f
                        ]
                    else:
                        out[s * d_fast + f, sp * d_fast + fp] = matrix[
                            sp * d_fast + f, s * d_fast + fp
                        ]
    return out


def choi_apply(p, a: np.ndarray) -> np.ndarray:
    """Diagonal-type map on a 3x3 matrix: -A plus a cyclic diagonal recombination."""
    a = np.asarray(a, dtype=complex)
    d = np.array(
        [
            p.alpha * a[0, 0] + p.beta * a[1, 1] + p.gamma * a[2, 2],
            p.gamma * a[0, 0] + p.alpha * a[1, 1] + p.beta * a[2, 2],
            p.beta * a[0, 0] + p.gamma * a[1, 1] + p.alpha * a[2, 2],
        ]
    )
    return -a + np.diag(d)


def kossakowski_apply(p, a: np.ndarray) -> np.ndarray:
    """(I/n) Tr A + g . (R x) / (n - 1) with x_i = Tr(A g_i)."""
    a = np.asarray(a, dtype=complex)
    gens = gell_mann_generators(p.n)
    coeffs = p.rotation @ np.array([np.trace(a @ g) for g in gens])
    out = np.eye(p.n, dtype=complex) * np.trace(a) / p.n
    for c, g in zip(coeffs, gens):
        out = out + c * g / (p.n - 1)
    return out


def breuer_apply(p, a: np.ndarray) -> np.ndarray:
    """I Tr A - A - U A^T U^dag."""
    a = np.asarray(a, dtype=complex)
    theta = p.unitary @ a.T @ p.unitary.conj().T
    return np.eye(p.d, dtype=complex) * np.trace(a) - a - theta


def blockwise_apply_partial(entries: np.ndarray, apply, side: str, dims) -> np.ndarray:
    """Apply a map block by block to one tensor factor, one Python call per block."""
    d_a, d_b = dims
    four = np.asarray(entries, dtype=complex).reshape(d_b, d_a, d_b, d_a)
    out = np.empty_like(four)
    if side == "A":
        for l in range(d_b):
            for lp in range(d_b):
                out[l, :, lp, :] = apply(four[l, :, lp, :])
    else:
        for k in range(d_a):
            for kp in range(d_a):
                out[:, k, :, kp] = apply(four[:, k, :, kp])
    return out.reshape(d_a * d_b, d_a * d_b)


def identity_map(dim: int) -> PositiveMap:
    return PositiveMap(f"identity({dim})", dim, np.eye(dim * dim))


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random special orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return z @ z.conj().T


# -- dense ladder operators on a zero-padded space ------------------------------


def ladder_matrices(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated annihilation/creation matrices: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        a[n - 1, n] = math.sqrt(n)
    return a, a.conj().T


def monomial_matrix(spec: Monomial, cutoffs: ModeCutoffs) -> np.ndarray:
    """Dense matrix of the monomial on the truncated multi-mode space."""
    out = np.eye(1, dtype=complex)
    for (n, m), c in zip(spec.powers, cutoffs.cutoffs):
        a, adag = ladder_matrices(c)
        factor = np.linalg.matrix_power(adag, n) @ np.linalg.matrix_power(a, m)
        out = np.kron(out, factor)
    return out


def pad_vector(amplitudes: np.ndarray, old: ModeCutoffs, new: ModeCutoffs) -> np.ndarray:
    out = np.zeros(new.cutoffs, dtype=complex)
    out[tuple(slice(0, c) for c in old.cutoffs)] = amplitudes.reshape(old.cutoffs)
    return out.reshape(-1)


def pad_matrix(matrix: np.ndarray, old: ModeCutoffs, new: ModeCutoffs) -> np.ndarray:
    out = np.zeros(new.cutoffs + new.cutoffs, dtype=complex)
    out[tuple(slice(0, c) for c in old.cutoffs + old.cutoffs)] = matrix.reshape(
        old.cutoffs + old.cutoffs
    )
    d = new.total_dimension
    return out.reshape(d, d)


def dense_gram(state, ops) -> np.ndarray:
    """<ops_i^dag ops_j> from dense operators on the state padded by the largest
    creation plus the largest annihilation power per mode, where no product
    reaches the truncation."""
    old = state.cutoffs
    new = ModeCutoffs(
        tuple(
            c + max(op.powers[q][0] for op in ops) + max(op.powers[q][1] for op in ops)
            for q, c in enumerate(old.cutoffs)
        ),
        cap=10**9,
    )
    mats = [monomial_matrix(op, new) for op in ops]
    if isinstance(state, StateVector):
        phis = np.array([m @ pad_vector(state.amplitudes, old, new) for m in mats])
        return phis.conj() @ phis.T
    rho = pad_matrix(state.matrix, old, new)
    right = [m @ rho for m in mats]
    # Tr(F_i^dag F_j rho) = sum conj(F_i) * (F_j rho), entrywise
    return np.array([[np.vdot(fi, fj_rho) for fj_rho in right] for fi in mats])


def dense_moment(state, spec: Monomial) -> complex:
    """<spec> as Tr(spec rho) on the padded space."""
    one = Monomial.identity(spec.num_modes)
    return complex(dense_gram(state, (one, spec))[0, 1])
