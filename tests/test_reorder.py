import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentcrit.criteria import pt_min_eig_test, pt_sylvester_test
from momentcrit.errors import DegenerateStateError
from momentcrit.fock import DensityMatrix, ModeCutoffs, StateVector
from momentcrit.moments import MomentMatrix, OperatorClass, build_moment_matrix
from momentcrit.reorder import (
    nu_gamma,
    nu_realign,
    partial_transpose,
    realign,
    realign_blocks,
    trace_norm,
    transpose_factor,
)
from momentcrit.sampling import random_density, random_pure_state, random_separable_mixture
from momentcrit import states
from oracles import brute_factor_transpose, brute_realignment

STD = OperatorClass.from_strings(["1", "a"], ["1", "b"])

SINGLET_M = np.array(
    [[1, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]], dtype=complex
)


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_kernels_match_brute_force_index_maps():
    rng = np.random.default_rng(0)
    for d_slow, d_fast in ((2, 2), (2, 3), (3, 2)):
        m = _random_complex(rng, d_slow * d_fast)
        for factor in ("fast", "slow"):
            np.testing.assert_allclose(
                transpose_factor(m, d_slow, d_fast, factor),
                brute_factor_transpose(m, d_slow, d_fast, factor),
                atol=0,
            )
        np.testing.assert_allclose(
            realign_blocks(m, d_slow, d_fast),
            brute_realignment(m, d_slow, d_fast),
            atol=0,
        )


def test_singlet_pt_pattern():
    pt = transpose_factor(SINGLET_M, 2, 2, "fast")
    expected = np.array(
        [[1, 0, 0, -0.5], [0, 0.5, 0, 0], [0, 0, 0.5, 0], [-0.5, 0, 0, 0]]
    )
    np.testing.assert_allclose(pt, expected, atol=1e-15)


def test_singlet_realign_pattern():
    expected = np.array(
        [[1, 0, 0, 0.5], [0, 0, -0.5, 0], [0, -0.5, 0, 0], [0.5, 0, 0, 0]]
    )
    np.testing.assert_allclose(realign_blocks(SINGLET_M, 2, 2), expected, atol=1e-15)
    realigned = realign(build_moment_matrix(states.singlet(), STD))
    np.testing.assert_allclose(realigned, expected, atol=1e-14)


def test_realign_single_entry_lands_at_worked_position():
    # M_23 = 1 must land at row 2, column 3 of the realigned 4x4 (1-based),
    # per the brute-force enumeration of the index map.
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = 1.0
    r = realign_blocks(m, 2, 2)
    brute = brute_realignment(m, 2, 2)
    np.testing.assert_array_equal(r, brute)
    assert r[1, 2] == 1.0
    assert np.count_nonzero(r) == 1


@settings(max_examples=40)
@given(
    arrays(
        np.float64,
        (6, 6),
        elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    )
)
def test_pt_is_involution_and_trace_preserving(base):
    m = base + base.T  # real symmetric stand-in for a Hermitian block matrix
    for d_slow, d_fast in ((2, 3), (3, 2)):
        for factor in ("fast", "slow"):
            out = transpose_factor(m, d_slow, d_fast, factor)
            np.testing.assert_allclose(
                transpose_factor(out, d_slow, d_fast, factor), m, atol=0
            )
            assert abs(np.trace(out) - np.trace(m)) < 1e-12
        # Hermiticity is preserved
        out = transpose_factor(m, d_slow, d_fast, "fast")
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_pt_sides_are_global_transposes_with_equal_spectra():
    m = build_moment_matrix(states.partial_example2(), STD)
    pa = partial_transpose(m, "A").entries
    pb = partial_transpose(m, "B").entries
    np.testing.assert_allclose(pa, pb.T, atol=0)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(pa), np.linalg.eigvalsh(pb), atol=1e-12
    )


def test_realign_preserves_entry_multiset():
    rng = np.random.default_rng(1)
    m = _random_complex(rng, 6)
    r = realign_blocks(m, 2, 3)
    assert r.shape == (4, 9)
    np.testing.assert_allclose(
        np.sort_complex(r.reshape(-1)), np.sort_complex(m.reshape(-1)), atol=0
    )


def test_realign_is_involution_on_square_blocks():
    rng = np.random.default_rng(2)
    m = _random_complex(rng, 9)
    np.testing.assert_array_equal(
        realign_blocks(realign_blocks(m, 3, 3), 3, 3), m
    )


def test_realign_rank_one_for_product_moment_matrix():
    ma = np.array([[1, 0.3], [0.3, 0.5]], dtype=complex)
    mb = np.array([[1, 0.1j], [-0.1j, 0.25]], dtype=complex)
    m = np.kron(mb, ma)  # B slow, A fast
    r = realign_blocks(m, 2, 2)
    assert np.linalg.matrix_rank(r, tol=1e-12) == 1


def test_trace_norm_basics():
    assert abs(trace_norm(np.eye(5)) - 5) < 1e-12
    assert abs(trace_norm(np.array([[0, 1], [0, 0]])) - 1) < 1e-12
    realigned = realign_blocks(SINGLET_M, 2, 2)
    assert abs(trace_norm(realigned) - (1 + np.sqrt(2))) < 1e-12


def test_nu_bounded_for_separable_fixtures():
    rng = np.random.default_rng(9)
    for _ in range(10):
        state = random_separable_mixture(rng, (2, 2))
        m = build_moment_matrix(state, STD)
        assert nu_gamma(m) <= 1 + 1e-9
        assert nu_realign(m) <= 1 + 1e-9
    m = build_moment_matrix(states.product_coherent(0.4, 0.3), STD)
    assert nu_gamma(m) <= 1 + 1e-6
    assert nu_realign(m) <= 1 + 1e-6


def test_nu_rejects_zero_trace():
    zero = MomentMatrix(np.zeros((4, 4)), 2, 2)
    bad = StateVector(ModeCutoffs((2, 2)), [1, 0, 0, 0])
    cls = OperatorClass.from_strings(["a"], ["b"])  # all moments vanish on vacuum
    with pytest.raises(DegenerateStateError):
        nu_gamma(build_moment_matrix(bad, cls))
    assert zero.trace() == 0.0


_SWAP = str.maketrans("aAbB", "bBaA")
_SIDE_A = ["a", "A", "Aa", "aa", "AA"]


@st.composite
def _state_and_class(draw):
    """A random pure or rank-2 two-mode state and a tensor class of 2-3 rows per side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    mixed = draw(st.booleans())
    state = random_density(rng, cuts, rank=2) if mixed else random_pure_state(rng, cuts)
    sides = [["1"] + draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
             for pool in (_SIDE_A, [t.translate(_SWAP) for t in _SIDE_A])]
    return state, *sides


def _witnesses(state, side_a, side_b) -> np.ndarray:
    """nu_gamma, nu_realign, the PT minimum eigenvalue and the PT minor on rows (1, last),
    which is (1, 4) on a 2 x 2 class."""
    cls = OperatorClass.from_strings(side_a, side_b)
    m = build_moment_matrix(state, cls)
    return np.array([
        nu_gamma(m),
        nu_realign(m),
        pt_min_eig_test(state, cls).witness["min_eigenvalue"],
        pt_sylvester_test(state, cls, r_list=[(1, m.size)]).witness["min_principal_minor"],
    ])


def _transformed(state, amplitudes, matrix, cutoffs):
    """The state of the same kind carrying the given amplitude map and cutoffs."""
    if isinstance(state, StateVector):
        return StateVector(ModeCutoffs(cutoffs), amplitudes(state.amplitudes))
    return DensityMatrix(ModeCutoffs(cutoffs), matrix(state.matrix))


@settings(max_examples=60, deadline=None)
@given(_state_and_class(), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
def test_witnesses_invariant_under_local_phase_rotations(case, phi, theta):
    # psi(n_a, n_b) -> exp(-i(phi n_a + theta n_b)) psi changes M by a diagonal unitary
    state, side_a, side_b = case
    c_a, c_b = state.cutoffs.cutoffs
    u = np.exp(-1j * (phi * np.arange(c_a)[:, None] + theta * np.arange(c_b))).reshape(-1)
    rotated = _transformed(state, lambda psi: u * psi,
                           lambda rho: u[:, None] * rho * u.conj(), (c_a, c_b))
    np.testing.assert_allclose(_witnesses(rotated, side_a, side_b),
                               _witnesses(state, side_a, side_b), rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(_state_and_class())
def test_witnesses_invariant_under_swapping_the_modes_with_the_class_sides(case):
    state, side_a, side_b = case
    c_a, c_b = state.cutoffs.cutoffs
    d = c_a * c_b
    swapped = _transformed(
        state,
        lambda psi: psi.reshape(c_a, c_b).T.reshape(-1),
        lambda rho: rho.reshape(c_a, c_b, c_a, c_b).transpose(1, 0, 3, 2).reshape(d, d),
        (c_b, c_a),
    )
    np.testing.assert_allclose(
        _witnesses(swapped, [t.translate(_SWAP) for t in side_b],
                   [t.translate(_SWAP) for t in side_a]),
        _witnesses(state, side_a, side_b), rtol=0, atol=1e-10,
    )
