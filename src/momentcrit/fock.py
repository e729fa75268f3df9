"""Truncated Fock-space states and normally ordered ladder monomials.

Basis convention used everywhere in this package: multi-mode amplitudes are
mode-major with the *last* mode varying fastest and 0-based occupations, so
the basis ket |n_1, ..., n_m> sits at flat index
n_1 * (c_2 * ... * c_m) + ... + n_{m-1} * c_m + n_m
for per-mode cutoffs (c_1, ..., c_m).

States are immutable after construction and every operation here is a pure
function, so values may be shared freely between threads.  Each state also
carries a private memo of the Gram matrices that ``moments`` computed on it,
keyed by the exact op tuple.  The memo is an idempotent cache: a state never
changes, so two threads that fill the same key store equal read-only arrays,
and sharing a state between threads stays safe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError, DimensionError, InsufficientCutoffError

#: Default upper bound on the total dense dimension accepted at construction.
DENSE_DIMENSION_CAP = 4096
#: Largest rows x output kets (n * D_out) one moment build may hold, about 50 B each.
MOMENT_WORKING_CAP = 1 << 21

_MODE_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class ModeCutoffs:
    """Per-mode Fock dimensions: mode q keeps occupations 0 .. cutoffs[q]-1."""

    cutoffs: tuple[int, ...]
    cap: int = DENSE_DIMENSION_CAP

    def __post_init__(self):
        cuts = tuple(int(c) for c in self.cutoffs)
        object.__setattr__(self, "cutoffs", cuts)
        if not cuts:
            raise DimensionError("at least one mode is required")
        if any(c < 1 for c in cuts):
            raise DimensionError(f"every cutoff must be >= 1, got {cuts}")
        if self.total_dimension > self.cap:
            raise DimensionError(
                f"total dimension {self.total_dimension} exceeds the dense budget {self.cap}"
            )

    @property
    def num_modes(self) -> int:
        return len(self.cutoffs)

    @property
    def total_dimension(self) -> int:
        return math.prod(self.cutoffs)


@dataclass(frozen=True)
class Monomial:
    """Normally ordered ladder monomial  prod_q (a_q^dag)^{n_q} a_q^{m_q}.

    ``powers[q] = (n_q, m_q)`` holds the creation and annihilation powers of
    mode q.  The compact string form uses one letter per mode (a <-> mode 0,
    b <-> mode 1, ...), uppercase for creation and lowercase for annihilation:
    "Aa" is the number operator of mode 0, "ab" annihilates one quantum in
    each of the first two modes and "1" is the identity.
    """

    powers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        powers = tuple((int(n), int(m)) for n, m in self.powers)
        object.__setattr__(self, "powers", powers)
        if any(n < 0 or m < 0 for n, m in powers):
            raise ValueError(f"ladder powers must be nonnegative, got {powers}")

    @property
    def num_modes(self) -> int:
        return len(self.powers)

    @classmethod
    def identity(cls, num_modes: int) -> "Monomial":
        return cls(((0, 0),) * num_modes)

    @classmethod
    def from_string(cls, text: str, num_modes: int) -> "Monomial":
        """Parse the compact letter form, e.g. ``"Ab"`` -> a^dag b."""
        text = text.strip()
        creation = [0] * num_modes
        annihilation = [0] * num_modes
        if text not in ("1", ""):
            for ch in text:
                low = ch.lower()
                if low not in _MODE_LETTERS[:num_modes]:
                    raise ValueError(
                        f"unknown mode letter {ch!r} in {text!r} for {num_modes} modes"
                    )
                mode = _MODE_LETTERS.index(low)
                if ch.isupper():
                    creation[mode] += 1
                else:
                    annihilation[mode] += 1
        return cls(tuple(zip(creation, annihilation)))

    def to_string(self) -> str:
        parts = []
        for mode, (n, m) in enumerate(self.powers):
            parts.append(_MODE_LETTERS[mode].upper() * n)
        for mode, (n, m) in enumerate(self.powers):
            parts.append(_MODE_LETTERS[mode] * m)
        s = "".join(parts)
        return s if s else "1"

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, (n, m) in enumerate(self.powers) if n or m)

    def dagger(self) -> "Monomial":
        """Hermitian adjoint; again normally ordered with (n, m) swapped."""
        return Monomial(tuple((m, n) for n, m in self.powers))

    def restricted_to(self, modes: tuple[int, ...]) -> "Monomial":
        return Monomial(
            tuple((n, m) if q in modes else (0, 0) for q, (n, m) in enumerate(self.powers))
        )

    def merged_with(self, other: "Monomial") -> "Monomial":
        """Product of two monomials with disjoint supports."""
        if self.num_modes != other.num_modes:
            raise DimensionError("monomials act on different numbers of modes")
        if set(self.support) & set(other.support):
            raise ValueError("cannot merge monomials with overlapping mode support")
        return Monomial(
            tuple(
                (n1 + n2, m1 + m2)
                for (n1, m1), (n2, m2) in zip(self.powers, other.powers)
            )
        )


def _check_amplitude_length(amplitudes: np.ndarray, cutoffs: ModeCutoffs) -> None:
    if amplitudes.shape != (cutoffs.total_dimension,):
        raise DimensionError(
            f"amplitude vector of length {amplitudes.shape} does not match "
            f"total dimension {cutoffs.total_dimension}"
        )


@dataclass(frozen=True)
class StateVector:
    """Pure multi-mode state; normalized at construction.

    ``exact`` marks states whose moments are exact on the truncation
    (finite-excitation constructions).  Truncated coherent superpositions set
    it to False, which widens the default verdict tolerances downstream.
    """

    cutoffs: ModeCutoffs
    amplitudes: np.ndarray
    label: str = "state"
    exact: bool = True
    _grams: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        _check_amplitude_length(amps, self.cutoffs)
        if not np.isfinite(amps).all():
            raise ValueError("state amplitudes must be finite; got NaN or infinity")
        norm = float(np.linalg.norm(amps))
        if norm < 1e-12:
            raise DegenerateStateError("state vector has (numerically) zero norm")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_modes(self) -> int:
        return self.cutoffs.num_modes

    def density(self) -> "DensityMatrix":
        return DensityMatrix(
            self.cutoffs,
            np.outer(self.amplitudes, self.amplitudes.conj()),
            label=self.label,
            exact=self.exact,
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed multi-mode state: Hermitian, unit trace, PSD within tolerance."""

    cutoffs: ModeCutoffs
    matrix: np.ndarray
    label: str = "state"
    exact: bool = True
    _grams: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.cutoffs.total_dimension
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} does not match dimension {d}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite; got NaN or infinity")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(mat).real - 1.0) > 1e-12 or abs(np.trace(mat).imag) > 1e-12:
            raise ValueError("density matrix trace is not 1 within 1e-12")
        if float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0]) < -1e-10:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def num_modes(self) -> int:
        return self.cutoffs.num_modes


State = StateVector | DensityMatrix


def make_fock_state(
    occupations: tuple[int, ...] | list[int],
    cutoffs: ModeCutoffs | tuple[int, ...] | None = None,
    label: str | None = None,
) -> StateVector:
    """Basis ket |n_1, ..., n_m>.  Default cutoffs are occupation + 1 per mode."""
    occ = tuple(int(n) for n in occupations)
    if any(n < 0 for n in occ):
        raise DimensionError("occupations must be nonnegative")
    if cutoffs is None:
        cutoffs = ModeCutoffs(tuple(n + 1 for n in occ))
    elif not isinstance(cutoffs, ModeCutoffs):
        cutoffs = ModeCutoffs(tuple(cutoffs))
    if len(occ) != cutoffs.num_modes:
        raise DimensionError("occupation list and cutoffs disagree on the number of modes")
    for q, (n, c) in enumerate(zip(occ, cutoffs.cutoffs)):
        if n >= c:
            raise DimensionError(f"occupation {n} of mode {q} exceeds cutoff {c}")
    amps = np.zeros(cutoffs.total_dimension, dtype=complex)
    amps[int(np.ravel_multi_index(occ, cutoffs.cutoffs))] = 1.0
    name = label if label is not None else "|" + ",".join(map(str, occ)) + ">"
    return StateVector(cutoffs, amps, label=name)


def superpose(
    terms: list[tuple[complex, StateVector]],
    label: str = "superposition",
) -> StateVector:
    """Normalized linear combination of states sharing one cutoff structure."""
    if not terms:
        raise DegenerateStateError("superposition needs at least one term")
    cutoffs = terms[0][1].cutoffs
    for _, state in terms:
        if state.cutoffs.cutoffs != cutoffs.cutoffs:
            raise DimensionError("all superposed states must share the same cutoffs")
    amps = np.zeros(cutoffs.total_dimension, dtype=complex)
    for coeff, state in terms:
        amps += complex(coeff) * state.amplitudes
    if np.linalg.norm(amps) <= 1e-12:
        raise DegenerateStateError("superposition has (numerically) zero norm")
    exact = all(state.exact for _, state in terms)
    return StateVector(cutoffs, amps, label=label, exact=exact)


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!), unnormalized."""
    amps = np.zeros(cutoff, dtype=complex)
    term = complex(np.exp(-abs(alpha) ** 2 / 2))
    for k in range(cutoff):
        amps[k] = term
        term = term * complex(alpha) / math.sqrt(k + 1)
    return amps


def _poisson_tails(alpha: complex):
    """Truncation deficits 1 - sum_{n < c} e^{-|alpha|^2} |alpha|^{2n} / n! for c = 0, 1, ..."""
    n2 = abs(alpha) ** 2
    cumulative, term = 0.0, math.exp(-n2)
    for c in itertools.count(1):
        yield 1.0 - cumulative
        cumulative += term
        term = term * n2 / c


def coherent_truncation_deficit(alpha: complex, cutoff: int) -> float:
    """Probability weight of the removed tail of a coherent state."""
    return max(0.0, next(itertools.islice(_poisson_tails(alpha), cutoff, None)))


def required_coherent_cutoff(alpha: complex, eps: float, cap: int = DENSE_DIMENSION_CAP) -> int:
    """Smallest cutoff whose truncation deficit is below eps."""
    for c, deficit in itertools.islice(enumerate(_poisson_tails(alpha)), 1, cap + 1):
        if deficit < eps:
            return c
    raise DimensionError(f"no cutoff below {cap} meets eps={eps} for |alpha|={abs(alpha)}")


def make_coherent_superposition(
    terms: list[tuple[complex, tuple[complex, ...]]],
    cutoffs: ModeCutoffs | tuple[int, ...] | None = None,
    eps: float = 1e-10,
    label: str = "coherent superposition",
) -> StateVector:
    """Normalized truncated superposition of multi-mode coherent states.

    ``terms`` lists (coefficient, per-mode amplitudes).  With ``cutoffs=None``
    the smallest cutoffs meeting the norm-deficit target ``eps`` are chosen;
    explicit cutoffs that miss the target raise InsufficientCutoffError naming
    the required cutoff.  The normalization constant comes from the truncated
    vector itself.
    """
    if not terms:
        raise DegenerateStateError("coherent superposition needs at least one term")
    num_modes = len(terms[0][1])
    if any(len(alphas) != num_modes for _, alphas in terms):
        raise DimensionError("all terms must supply amplitudes for every mode")
    if cutoffs is None:
        per_mode = tuple(
            max(required_coherent_cutoff(alphas[q], eps) for _, alphas in terms)
            for q in range(num_modes)
        )
        cutoffs = ModeCutoffs(per_mode)
    elif not isinstance(cutoffs, ModeCutoffs):
        cutoffs = ModeCutoffs(tuple(cutoffs))
    for _, alphas in terms:
        for q, alpha in enumerate(alphas):
            deficit = coherent_truncation_deficit(alpha, cutoffs.cutoffs[q])
            if not deficit < eps:
                raise InsufficientCutoffError(
                    mode=q,
                    cutoff=cutoffs.cutoffs[q],
                    required=required_coherent_cutoff(alpha, eps),
                    deficit=deficit,
                    eps=eps,
                )
    amps = np.zeros(cutoffs.total_dimension, dtype=complex)
    for coeff, alphas in terms:
        vec = np.ones(1, dtype=complex)
        for q, alpha in enumerate(alphas):
            vec = np.kron(vec, coherent_amplitudes(alpha, cutoffs.cutoffs[q]))
        amps += complex(coeff) * vec
    if np.linalg.norm(amps) <= 1e-12:
        raise DegenerateStateError("coherent superposition has (numerically) zero norm")
    exact = all(alpha == 0 for _, alphas in terms for alpha in alphas)
    return StateVector(cutoffs, amps, label=label, exact=exact)


def mix(terms: list[tuple[float, StateVector | DensityMatrix]], label: str = "mixture") -> DensityMatrix:
    """Convex mixture; weights are normalized to unit sum."""
    if not terms:
        raise DegenerateStateError("mixture needs at least one term")
    cutoffs = terms[0][1].cutoffs
    total = sum(w for w, _ in terms)
    if total <= 0:
        raise DegenerateStateError("mixture weights must have positive sum")
    d = cutoffs.total_dimension
    mat = np.zeros((d, d), dtype=complex)
    exact = True
    for w, state in terms:
        if w < 0:
            raise ValueError("mixture weights must be nonnegative")
        if state.cutoffs.cutoffs != cutoffs.cutoffs:
            raise DimensionError("all mixed states must share the same cutoffs")
        rho = state.density().matrix if isinstance(state, StateVector) else state.matrix
        mat += (w / total) * rho
        exact = exact and state.exact
    return DensityMatrix(cutoffs, mat, label=label, exact=exact)
