import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcrit.errors import (
    DegenerateStateError,
    DimensionError,
    InsufficientCutoffError,
)
from momentcrit.fock import (
    ModeCutoffs,
    Monomial,
    StateVector,
    coherent_truncation_deficit,
    make_coherent_superposition,
    make_fock_state,
    mix,
    required_coherent_cutoff,
    superpose,
)
from momentcrit.moments import moment
from oracles import coherent_monomial_moment, conjugated_on, ladder_matrices, monomial_matrix


def test_cutoffs_validation():
    assert ModeCutoffs((2, 3)).total_dimension == 6
    with pytest.raises(DimensionError):
        ModeCutoffs((0, 2))
    with pytest.raises(DimensionError):
        ModeCutoffs((100, 100))  # above the 4096 dense budget
    assert ModeCutoffs((100, 41), cap=8096).total_dimension == 4100


def test_vacuum_basis_state():
    vac = make_fock_state((0, 0), (2, 2))
    assert vac.amplitudes[0] == 1.0
    assert np.count_nonzero(vac.amplitudes) == 1


def test_basis_indexing_last_mode_fastest():
    st11 = make_fock_state((1, 1), (3, 3))
    assert st11.amplitudes[1 * 3 + 1] == 1.0


def test_occupation_beyond_cutoff_rejected():
    with pytest.raises(DimensionError):
        make_fock_state((2, 0), (2, 2))


def test_singlet_from_two_calls():
    cuts = ModeCutoffs((2, 2))
    singlet = superpose(
        [(1.0, make_fock_state((0, 1), cuts)), (-1.0, make_fock_state((1, 0), cuts))]
    )
    expected = np.zeros(4)
    expected[1] = 1 / np.sqrt(2)
    expected[2] = -1 / np.sqrt(2)
    np.testing.assert_allclose(singlet.amplitudes, expected, atol=1e-15)


def test_superpose_equal_coefficients():
    cuts = ModeCutoffs((2, 2))
    state = superpose(
        [
            (1.0, make_fock_state((0, 0), cuts)),
            (1.0, make_fock_state((0, 1), cuts)),
            (1.0, make_fock_state((1, 0), cuts)),
        ]
    )
    np.testing.assert_allclose(
        np.sort(np.abs(state.amplitudes))[::-1][:3], [1 / np.sqrt(3)] * 3, atol=1e-15
    )


def test_superpose_zero_coefficient_is_noop():
    cuts = ModeCutoffs((2, 2))
    a = make_fock_state((0, 0), cuts)
    b = make_fock_state((1, 1), cuts)
    out = superpose([(1.0, a), (0.0, b)])
    np.testing.assert_allclose(out.amplitudes, a.amplitudes, atol=1e-15)


def test_superpose_zero_norm_rejected():
    cuts = ModeCutoffs((2, 2))
    a = make_fock_state((0, 1), cuts)
    with pytest.raises(DegenerateStateError):
        superpose([(1.0, a), (-1.0, a)])


def test_ladder_matrices_qubit_case():
    a, adag = ladder_matrices(2)
    np.testing.assert_array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
    np.testing.assert_array_equal(adag, a.conj().T)


def test_ladder_action_and_number_operator():
    a, adag = ladder_matrices(3)
    ket2 = np.array([0, 0, 1.0])
    np.testing.assert_allclose(a @ ket2, [0, np.sqrt(2), 0])
    np.testing.assert_allclose(np.diag(adag @ a).real, [0, 1, 2])


@given(st.integers(min_value=1, max_value=12))
def test_creation_is_exact_adjoint(cutoff):
    a, adag = ladder_matrices(cutoff)
    assert np.array_equal(adag, a.conj().T)


def test_monomial_string_round_trip():
    m = Monomial.from_string("AAab", 2)
    assert m.powers == ((2, 1), (0, 1))
    assert m.to_string() == "AAab"
    assert Monomial.from_string("1", 3).powers == ((0, 0),) * 3
    with pytest.raises(ValueError):
        Monomial.from_string("c", 2)


def test_monomial_dagger_and_conjugation():
    m = Monomial.from_string("Aab", 2)  # a^dag a b
    assert m.dagger().powers == ((1, 1), (1, 0))
    assert conjugated_on(m, (1,)).powers == ((1, 1), (1, 0))
    assert conjugated_on(m, (0,)).powers == ((1, 1), (0, 1))


def test_monomial_matrix_number_operator():
    mat = monomial_matrix(Monomial.from_string("Aa", 1), ModeCutoffs((3,)))
    np.testing.assert_allclose(np.diag(mat).real, [0, 1, 2])


def test_monomial_matrix_kills_singlet_for_ab():
    cuts = ModeCutoffs((2, 2))
    singlet = superpose(
        [(1.0, make_fock_state((0, 1), cuts)), (-1.0, make_fock_state((1, 0), cuts))]
    )
    ab = monomial_matrix(Monomial.from_string("ab", 2), cuts)
    np.testing.assert_allclose(ab @ singlet.amplitudes, 0, atol=1e-15)
    assert moment(singlet, Monomial.from_string("ab", 2)) == 0


def test_monomial_matrix_insufficient_excitation_is_zero():
    mat = monomial_matrix(Monomial.from_string("AAaa", 1), ModeCutoffs((2,)))
    np.testing.assert_array_equal(mat, np.zeros((2, 2)))


def test_density_from_state_vector_is_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state = StateVector(ModeCutoffs((3, 2)), amps)
        rho = state.density()
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-10


def test_mix_weights_normalized():
    cuts = ModeCutoffs((2, 2))
    rho = mix([(2.0, make_fock_state((0, 0), cuts)), (2.0, make_fock_state((1, 1), cuts))])
    assert abs(np.trace(rho.matrix) - 1) < 1e-12
    assert abs(rho.matrix[0, 0] - 0.5) < 1e-12


# -- coherent-state constructions ---------------------------------------------


def test_coherent_single_term_alpha_zero_is_vacuum():
    state = make_coherent_superposition([(1.0, (0.0,))], cutoffs=(4,))
    assert state.amplitudes[0] == 1.0
    assert state.exact


def test_coherent_overlap_matches_gaussian_formula():
    alpha = 0.3
    plus = make_coherent_superposition([(1.0, (alpha,))], cutoffs=(20,), eps=1e-12)
    minus = make_coherent_superposition([(1.0, (-alpha,))], cutoffs=(20,), eps=1e-12)
    overlap = np.vdot(minus.amplitudes, plus.amplitudes)
    assert abs(overlap - np.exp(-2 * alpha**2)) < 1e-10


def test_cat_state_norm_and_flag():
    state = make_coherent_superposition(
        [(1.0, (0.3, 0.2)), (-1.0, (-0.3, -0.2))], eps=1e-10
    )
    assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12
    assert not state.exact


def test_insufficient_cutoff_names_requirement():
    with pytest.raises(InsufficientCutoffError) as err:
        make_coherent_superposition([(1.0, (1.5,))], cutoffs=(3,), eps=1e-10)
    assert err.value.required == required_coherent_cutoff(1.5, 1e-10)
    assert err.value.cutoff == 3


def test_required_cutoff_meets_deficit():
    for alpha in (0.2, 0.7, 1.4):
        c = required_coherent_cutoff(alpha, 1e-10)
        assert coherent_truncation_deficit(alpha, c) < 1e-10
        assert coherent_truncation_deficit(alpha, c - 1) >= 1e-10


def test_coherent_zero_norm_rejected():
    with pytest.raises(DegenerateStateError):
        make_coherent_superposition(
            [(1.0, (0.3, 0.2)), (-1.0, (0.3, 0.2))], cutoffs=(8, 8)
        )


def test_coherent_moments_stable_under_extra_cutoff():
    # Degree <= 4 moments agree within 1e-8 between cutoffs N and N+5 once
    # the deficit target 1e-10 is met.
    terms = [(1.0, (0.3, 0.2)), (-1.0, (-0.3, -0.2))]
    base = make_coherent_superposition(terms, eps=1e-10)
    bigger = make_coherent_superposition(
        terms, cutoffs=tuple(c + 5 for c in base.cutoffs.cutoffs), eps=1e-10
    )
    for text in ("Ab", "AaBb", "AAaa", "ab", "AABb"):
        spec = Monomial.from_string(text, 2)
        assert abs(moment(base, spec) - moment(bigger, spec)) < 1e-8


def test_cat_moment_matches_analytic_oracle():
    # Frozen from the cross-term overlap oracle at alpha=0.3, beta=0.2.
    expected = 0.4641355369120054
    state = make_coherent_superposition(
        [(1.0, (0.3, 0.2)), (-1.0, (-0.3, -0.2))], eps=1e-10
    )
    value = moment(state, Monomial.from_string("Ab", 2))
    assert abs(value - expected) < 1e-8
    oracle = coherent_monomial_moment(
        [1.0, -1.0], [(0.3, 0.2), (-0.3, -0.2)], ((1, 0), (0, 1))
    )
    assert abs(oracle - expected) < 1e-12


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
        ),
        min_size=1,
        max_size=4,
    )
)
def test_superpose_always_normalized(coeff_pairs):
    cuts = ModeCutoffs((2, 2))
    kets = [
        make_fock_state((0, 0), cuts),
        make_fock_state((0, 1), cuts),
        make_fock_state((1, 0), cuts),
        make_fock_state((1, 1), cuts),
    ]
    terms = [(complex(re, im), kets[i % 4]) for i, (re, im) in enumerate(coeff_pairs)]
    if all(abs(c) < 1e-6 for c, _ in terms):
        return
    try:
        state = superpose(terms)
    except DegenerateStateError:
        return
    assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12
