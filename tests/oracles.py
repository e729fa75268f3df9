"""Independent oracles used to freeze expected values, kept separate from the
code paths they check."""

import numpy as np

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
