"""Seeded random states for property batteries and soundness scans."""

from __future__ import annotations

import numpy as np

from .fock import (
    DensityMatrix,
    ModeCutoffs,
    StateVector,
    make_coherent_superposition,
    mix,
    required_coherent_cutoff,
)


def random_pure_state(
    rng: np.random.Generator, cutoffs: tuple[int, ...] = (2, 2), label: str = "random_pure"
) -> StateVector:
    cuts = ModeCutoffs(cutoffs)
    d = cuts.total_dimension
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(cuts, amps, label=label)


def random_density(
    rng: np.random.Generator,
    cutoffs: tuple[int, ...] = (2, 2),
    rank: int = 3,
    label: str = "random_mixed",
) -> DensityMatrix:
    weights = rng.random(rank) + 0.05
    return mix(
        [(w, random_pure_state(rng, cutoffs)) for w in weights],
        label=label,
    )


def random_product_pure(
    rng: np.random.Generator, cutoffs: tuple[int, ...] = (2, 2), label: str = "random_product"
) -> StateVector:
    """Tensor product of independent single-mode pure states."""
    cuts = ModeCutoffs(cutoffs)
    amps = np.ones(1, dtype=complex)
    for c in cutoffs:
        factor = rng.standard_normal(c) + 1j * rng.standard_normal(c)
        factor = factor / np.linalg.norm(factor)
        amps = np.kron(amps, factor)
    return StateVector(cuts, amps, label=label)


def random_separable_mixture(
    rng: np.random.Generator,
    cutoffs: tuple[int, ...] = (2, 2),
    terms: int = 4,
    label: str = "random_separable",
) -> DensityMatrix:
    """Convex mixture of random product pure states: separable by construction."""
    weights = rng.random(terms) + 0.05
    return mix(
        [(w, random_product_pure(rng, cutoffs)) for w in weights],
        label=label,
    )


def _coherent_pair(rng: np.random.Generator, max_amp: float) -> tuple[complex, complex]:
    """Two amplitudes with real and imaginary parts uniform in [-max_amp, max_amp]."""
    return tuple(
        complex(rng.uniform(-max_amp, max_amp), rng.uniform(-max_amp, max_amp)) for _ in range(2)
    )


def random_coherent_product(
    rng: np.random.Generator, max_amp: float = 0.6, eps: float = 1e-10
) -> StateVector:
    """Truncated coherent product state |alpha>|beta>; separable, not exact."""
    return make_coherent_superposition(
        [(1.0, _coherent_pair(rng, max_amp))], eps=eps, label="random_coherent_product"
    )


def random_coherent_separable_mixture(
    rng: np.random.Generator, terms: int = 3, max_amp: float = 0.6, eps: float = 1e-10
) -> DensityMatrix:
    """Mixture of coherent products on a shared cutoff; separable, not exact."""
    draws = [_coherent_pair(rng, max_amp) for _ in range(terms)]
    target = tuple(max(required_coherent_cutoff(a[q], eps) for a in draws) for q in range(2))
    components = [
        make_coherent_superposition([(1.0, alphas)], cutoffs=target, eps=eps, label="component")
        for alphas in draws
    ]
    weights = rng.random(terms) + 0.05
    return mix(list(zip(weights, components)), label="random_coherent_mixture")

