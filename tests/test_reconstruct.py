import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcrit.criteria import Outcome
from momentcrit.errors import (
    DimensionError,
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
from momentcrit import moments, states

from oracles import complete_table, series_density, series_density_element, traced_peak


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
        np.testing.assert_allclose(a.matrix, series_density(state, (2, 2)), atol=1e-12)


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


# -- one Gram matrix read through the per-mode series map ------------------------


@st.composite
def _reconstruction_case(draw):
    """A random pure or mixed state, or its complete table, on 1-3 modes of dims 1-4."""
    # the element-by-element oracle queries one moment per term, so D stays small
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                      .filter(lambda d: math.prod(d) <= 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_density(rng, dims) if draw(st.booleans()) else random_pure_state(rng, dims)
    return (complete_table(state, max(dims)) if draw(st.booleans()) else state), dims


@settings(max_examples=40, deadline=None)
@given(_reconstruction_case(), st.data())
def test_reconstruction_matches_the_series_oracle(case, data):
    source, dims = case
    want = series_density(source, dims)
    np.testing.assert_allclose(reconstruct_density(source, dims).matrix, want, rtol=0, atol=1e-12)
    occupations = list(np.ndindex(*dims))
    for _ in range(3):
        i, j = data.draw(st.tuples(*[st.integers(0, len(occupations) - 1)] * 2))
        got = density_element(source, occupations[i], occupations[j], dims)
        assert abs(got - want[i, j]) <= 1e-12


@pytest.mark.parametrize("kind", ["pure", "mixed", "table"])
def test_a_reconstruction_computes_one_gram(monkeypatch, kind):
    state = random_density(np.random.default_rng(4), (3, 3))
    source = {"pure": states.w3(), "mixed": state, "table": complete_table(state, 3)}[kind]
    dims = (2, 2, 2) if kind == "pure" else (3, 3)
    calls = []
    compute = moments._compute_gram
    monkeypatch.setattr(moments, "_compute_gram", lambda s, ops: calls.append(ops) or compute(s, ops))
    reconstruct_density(source, dims)
    density_element(source, (1,) * len(dims), (0,) * len(dims), dims)  # read from the memo
    assert len(calls) == 1


@pytest.mark.parametrize("nbar, dim, element, diverges", [
    (1.0, 30, 0, True), (1.5, 30, 0, True), (0.5, 40, 8, True),
    (0.5, 40, 0, False), (0.5, 40, 1, False), (0.5, 40, 36, False),
])
def test_divergence_guard_matches_the_oracle(nbar, dim, element, diverges):
    th = states.thermal(nbar, cutoff=60)
    args = (th, (element,), (element,), (dim,))
    if diverges:
        for fn in (density_element, series_density_element):
            with pytest.raises(SeriesDivergenceError):
                fn(*args)
        with pytest.raises(SeriesDivergenceError):
            reconstruct_density(th, (dim,))
    else:
        assert abs(density_element(*args) - series_density_element(*args)) <= 1e-12


def test_one_error_names_every_missing_monomial():
    # "Ab" and its adjoint serve only elements (01, 10) and (10, 01), "Bbb" and its adjoint
    # only (02, 01), (01, 00) and their transposes: the element-by-element series named
    # only the first failing element's monomial
    table = complete_table(random_density(np.random.default_rng(3), (2, 3)), 3).table
    dropped = {"Ab", "Ba", "Bbb", "BBb"}
    source = TableSource({s: v for s, v in table.items() if s.to_string() not in dropped}, 2)
    with pytest.raises(MissingMomentError) as err:
        reconstruct_density(source, (2, 3))
    missing = set(err.value.missing)
    assert len(missing) == 2 and missing & {"Ab", "Ba"} and missing & {"Bbb", "BBb"}
    assert source._grams == {}


@pytest.mark.parametrize("source", [
    states.singlet(), states.singlet().density(), complete_table(states.singlet(), 2),
], ids=type)
@pytest.mark.parametrize("call", [
    lambda s: reconstruct_density(s, (12, 11)),  # 132^3 terms
    lambda s: density_element(s, (1, 0), (0, 0), (129, 1)),
    lambda s: reconstruct_density(s, (2,)),
    lambda s: reconstruct_density(s, (2, 2, 2)),
    lambda s: density_element(s, (0, 0), (0, 0), (2, 2, 2)),
], ids=["over-budget", "element-over-budget", "one-dim", "three-dims", "element-three-dims"])
def test_refusals_come_before_any_work(source, call):
    def refused():
        with pytest.raises(DimensionError):
            call(source)

    assert traced_peak(refused) < 1 << 20
    assert source._grams == {}
