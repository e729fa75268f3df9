"""Named library of states used throughout the fixtures and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .fock import (
    DensityMatrix,
    ModeCutoffs,
    StateVector,
    make_coherent_superposition,
    make_fock_state,
    superpose,
)


def _fock_superposition(
    kets: list[tuple[float, tuple[int, ...]]], cutoff: int | None, label: str
) -> StateVector:
    """Normalized sum of basis kets, each mode cut at ``cutoff`` (default 2)."""
    cuts = ModeCutoffs((2 if cutoff is None else cutoff,) * len(kets[0][1]))
    return superpose([(c, make_fock_state(occ, cuts)) for c, occ in kets], label=label)


def singlet(cutoff: int | None = None) -> StateVector:
    """(|01> - |10>) / sqrt(2)."""
    return _fock_superposition([(1.0, (0, 1)), (-1.0, (1, 0))], cutoff, "singlet")


def bell_phi_plus(cutoff: int | None = None) -> StateVector:
    """(|00> + |11>) / sqrt(2)."""
    return _fock_superposition([(1.0, (0, 0)), (1.0, (1, 1))], cutoff, "bell_phi_plus")


def partial_example2(cutoff: int | None = None) -> StateVector:
    """(|00> + |01> + |10>) / sqrt(3), a partially entangled two-mode state."""
    return _fock_superposition(
        [(1.0, (0, 0)), (1.0, (0, 1)), (1.0, (1, 0))], cutoff, "partial_example2"
    )


def _two_mode_coherent(name, terms, alpha, beta, cutoff, epsilon) -> StateVector:
    """Coherent superposition cut at ``cutoff`` per mode, or where epsilon allows."""
    return make_coherent_superposition(
        terms, cutoffs=None if cutoff is None else (cutoff, cutoff), eps=epsilon,
        label=f"{name}(alpha={alpha}, beta={beta})",
    )


def cat_prime(
    alpha: complex = 0.3, beta: complex = 0.2, cutoff: int | None = None, epsilon: float = 1e-10
) -> StateVector:
    """Two-mode coherent superposition |alpha, -beta> - |-alpha, beta>, normalized."""
    terms = [(1.0, (alpha, -beta)), (-1.0, (-alpha, beta))]
    return _two_mode_coherent("cat_prime", terms, alpha, beta, cutoff, epsilon)


def cat_double_prime(
    alpha: complex = 0.3, beta: complex = 0.2, cutoff: int | None = None, epsilon: float = 1e-10
) -> StateVector:
    """Two-mode coherent superposition |alpha, beta> - |-alpha, -beta>, normalized."""
    terms = [(1.0, (alpha, beta)), (-1.0, (-alpha, -beta))]
    return _two_mode_coherent("cat_double_prime", terms, alpha, beta, cutoff, epsilon)


def product_coherent(
    alpha: complex = 0.0, beta: complex = 0.0, cutoff: int | None = None, epsilon: float = 1e-10
) -> StateVector:
    """Separable two-mode coherent product |alpha>|beta>."""
    return _two_mode_coherent(
        "product_coherent", [(1.0, (alpha, beta))], alpha, beta, cutoff, epsilon
    )


def ghz3(cutoff: int | None = None) -> StateVector:
    """(|000> + |111>) / sqrt(2)."""
    return _fock_superposition([(1.0, (0, 0, 0)), (1.0, (1, 1, 1))], cutoff, "ghz3")


def w3(cutoff: int | None = None) -> StateVector:
    """(|001> + |010> + |100>) / sqrt(3)."""
    return _fock_superposition(
        [(1.0, (0, 0, 1)), (1.0, (0, 1, 0)), (1.0, (1, 0, 0))], cutoff, "w3"
    )


def fock(occupations: tuple[int, ...] = (0, 0), cutoff: int | None = None) -> StateVector:
    """Basis ket |n_1, ..., n_m>; one shared per-mode cutoff, default n_i + 1."""
    occ = tuple(int(n) for n in occupations)
    cutoffs = None
    if cutoff is not None:
        cutoff = int(cutoff)
        if cutoff <= max(occ):
            raise DimensionError("cutoff must exceed every occupation")
        cutoffs = ModeCutoffs((cutoff,) * len(occ))
    return make_fock_state(occ, cutoffs)


def thermal(nbar: float = 0.5, cutoff: int = 30) -> DensityMatrix:
    """Single-mode thermal state with mean occupation nbar, truncated and renormalized."""
    if nbar < 0:
        raise ValueError("mean occupation must be nonnegative")
    n = np.arange(cutoff)
    weights = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar) if nbar > 0 else (n == 0).astype(float)
    weights = weights / weights.sum()
    return DensityMatrix(
        ModeCutoffs((cutoff,)), np.diag(weights.astype(complex)), label=f"thermal(nbar={nbar})"
    )


LIBRARY = {
    "singlet": (singlet, "two-mode singlet (|01>-|10>)/sqrt(2)"),
    "bell_phi_plus": (bell_phi_plus, "Bell state (|00>+|11>)/sqrt(2)"),
    "partial_example2": (partial_example2, "(|00>+|01>+|10>)/sqrt(3)"),
    "cat_prime": (cat_prime, "coherent superposition |a,-b> - |-a,b>"),
    "cat_double_prime": (cat_double_prime, "coherent superposition |a,b> - |-a,-b>"),
    "product_coherent": (product_coherent, "separable coherent product |a>|b>"),
    "ghz3": (ghz3, "three-mode GHZ state"),
    "w3": (w3, "three-mode W state"),
    "fock": (fock, "basis ket |n_1,...,n_m>"),
    "thermal": (thermal, "single-mode thermal state"),
}


def list_states() -> dict[str, str]:
    return {name: desc for name, (_, desc) in LIBRARY.items()}


def build_state(name: str, params: dict | None = None, cutoff: int | None = None, epsilon: float | None = None):
    """Instantiate a library state by name with keyword parameters."""
    if name not in LIBRARY:
        raise KeyError(f"unknown state {name!r}; available: {', '.join(sorted(LIBRARY))}")
    factory, _ = LIBRARY[name]
    kwargs = dict(params or {})
    if "occupations" in kwargs:
        kwargs["occupations"] = tuple(kwargs["occupations"])
    if cutoff is not None:
        kwargs.setdefault("cutoff", cutoff)
    if epsilon is not None and name in ("cat_prime", "cat_double_prime", "product_coherent"):
        kwargs.setdefault("epsilon", epsilon)
    return factory(**kwargs)
