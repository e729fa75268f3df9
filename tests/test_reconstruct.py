import numpy as np
import pytest

from momentcrit.criteria import Outcome
from momentcrit.errors import (
    InconsistentMomentsError,
    MissingMomentError,
    SeriesDivergenceError,
)
from momentcrit.fock import DensityMatrix, ModeCutoffs, Monomial, make_fock_state
from momentcrit.moments import moment
from momentcrit.reconstruct import (
    TableSource,
    density_element,
    reconstruct_density,
    state_level_tests,
    two_qubit_density,
)
from momentcrit.sampling import random_density, random_pure_state
from momentcrit import states


def test_vacuum_diagonal_element():
    vac = make_fock_state((0,), (3,))
    assert abs(density_element(vac, 0, 0, 3) - 1.0) < 1e-14


def test_single_excitation_element():
    one = make_fock_state((1,), (2,))
    assert abs(density_element(one, 1, 1, 2) - 1.0) < 1e-14
    assert abs(density_element(one, 0, 0, 2)) < 1e-14


def test_singlet_full_reconstruction_exact():
    s = states.singlet()
    rho = reconstruct_density(s, (2, 2))
    np.testing.assert_allclose(rho.matrix, s.density().matrix, atol=1e-12)
    assert abs(rho.matrix[1, 1] - 0.5) < 1e-12
    assert abs(rho.matrix[1, 2] + 0.5) < 1e-12


def test_two_qubit_vacuum_reconstruction():
    rho = two_qubit_density(make_fock_state((0, 0), (2, 2)))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-14)


def test_two_qubit_closed_form_matches_exact_density():
    rng = np.random.default_rng(8)
    for _ in range(20):
        state = random_pure_state(rng, (2, 2))
        rho = two_qubit_density(state)
        np.testing.assert_allclose(rho.matrix, state.density().matrix, atol=1e-10)


def test_two_qubit_closed_form_matches_series_on_mixed_states():
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = random_density(rng, (2, 2))
        a = two_qubit_density(state)
        b = reconstruct_density(state, (2, 2))
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)


def test_round_trip_moments_preserved():
    rng = np.random.default_rng(10)
    specs = [
        Monomial(((p, q), (r, s)))
        for p in (0, 1)
        for q in (0, 1)
        for r in (0, 1)
        for s in (0, 1)
    ]
    for _ in range(10):
        state = random_pure_state(rng, (2, 2))
        rho = two_qubit_density(state)
        for spec in specs:
            assert abs(moment(rho, spec) - moment(state, spec)) < 1e-10


def test_table_source_and_missing_moments():
    table = {Monomial(((0, 0), (0, 0))): 1.0 + 0j}
    src = TableSource(table, 2)
    with pytest.raises(MissingMomentError) as err:
        two_qubit_density(src)
    assert "Aa" in "".join(err.value.missing)


def test_table_source_conjugate_consistency():
    good = {
        Monomial(((1, 0), (0, 0))): 0.5 + 0.25j,
        Monomial(((0, 1), (0, 0))): 0.5 - 0.25j,
    }
    TableSource(good, 2)
    bad = {
        Monomial(((1, 0), (0, 0))): 0.5 + 0.25j,
        Monomial(((0, 1), (0, 0))): 0.5 + 0.25j,
    }
    with pytest.raises(InconsistentMomentsError):
        TableSource(bad, 2)


def test_table_source_uses_conjugate_fallback():
    # only one of a conjugate pair is present; the other is derived
    singlet = states.singlet()
    specs = [
        Monomial(((p, q), (r, s)))
        for p in (0, 1)
        for q in (0, 1)
        for r in (0, 1)
        for s in (0, 1)
    ]
    table = {spec: moment(singlet, spec) for spec in specs}
    del table[Monomial(((0, 1), (1, 0)))]  # drop <a b^dag>, keep <a^dag b>
    rho = two_qubit_density(TableSource(table, 2))
    np.testing.assert_allclose(rho.matrix, singlet.density().matrix, atol=1e-12)


def test_inconsistent_moments_rejected():
    specs = [
        Monomial(((p, q), (r, s)))
        for p in (0, 1)
        for q in (0, 1)
        for r in (0, 1)
        for s in (0, 1)
    ]
    singlet = states.singlet()
    table = {spec: moment(singlet, spec) for spec in specs}
    table[Monomial(((1, 1), (1, 1)))] = 5.0 + 0j  # wildly wrong <N_a N_b>
    with pytest.raises(InconsistentMomentsError):
        two_qubit_density(TableSource(table, 2))


def test_thermal_divergence_guard():
    for nbar in (1.0, 1.5):
        th = states.thermal(nbar, cutoff=60)
        with pytest.raises(SeriesDivergenceError):
            density_element(th, 0, 0, 30)


def test_thermal_below_threshold_converges():
    th = states.thermal(0.5, cutoff=60)
    assert abs(density_element(th, 0, 0, 40) - 1 / 1.5) < 1e-9
    assert abs(density_element(th, 1, 1, 40) - (0.5 / 1.5) / 1.5) < 1e-9


def test_state_level_tests_singlet():
    rho = two_qubit_density(states.singlet())
    verdicts = {v.criterion: v for v in state_level_tests(rho, (2, 2))}
    assert verdicts["state_pt_min_eig"].outcome is Outcome.ENTANGLED
    assert abs(verdicts["state_pt_min_eig"].witness["min_eigenvalue"] + 0.5) < 1e-10
    assert abs(verdicts["state_pt_norm"].witness["trace_norm"] - 2.0) < 1e-10
    # textbook PT spectrum of the singlet: {1/2, 1/2, 1/2, -1/2}
    spectrum = np.linalg.eigvalsh(verdicts["state_pt_min_eig"].witness["matrix"])
    np.testing.assert_allclose(spectrum, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)


def test_state_level_tests_separability_scope():
    mixed = DensityMatrix(ModeCutoffs((2, 2)), np.eye(4) / 4)
    verdicts = {v.criterion: v for v in state_level_tests(mixed, (2, 2))}
    assert verdicts["state_pt_min_eig"].outcome is Outcome.SEPARABLE
    mixed23 = DensityMatrix(ModeCutoffs((2, 3)), np.eye(6) / 6)
    verdicts = {v.criterion: v for v in state_level_tests(mixed23, (2, 3))}
    assert verdicts["state_pt_min_eig"].outcome is Outcome.SEPARABLE
    # no separability claim at 3x3
    mixed33 = DensityMatrix(ModeCutoffs((3, 3)), np.eye(9) / 9)
    verdicts = {v.criterion: v for v in state_level_tests(mixed33, (3, 3))}
    assert verdicts["state_pt_min_eig"].outcome is Outcome.INCONCLUSIVE


@pytest.mark.parametrize(
    "cutoffs, eig_outcome",
    [((2, 2), Outcome.SEPARABLE), ((2, 3), Outcome.SEPARABLE), ((3, 3), Outcome.INCONCLUSIVE)],
)
def test_state_level_boundary_flags(cutoffs, eig_outcome):
    # |00> sits exactly on every threshold: PT min eigenvalue 0, both trace norms 1
    rho = make_fock_state((0, 0), cutoffs).density()
    eig, pt_norm, realign_norm = state_level_tests(rho, cutoffs)
    assert (eig.criterion, eig.witness["min_eigenvalue"], eig.threshold) == (
        "state_pt_min_eig", 0.0, 0.0)
    assert eig.outcome is eig_outcome and eig.boundary
    for v, name in ((pt_norm, "state_pt_norm"), (realign_norm, "state_realign_norm")):
        assert (v.criterion, v.witness["trace_norm"], v.threshold) == (name, 1.0, 1.0)
        assert v.outcome is Outcome.INCONCLUSIVE and v.boundary
