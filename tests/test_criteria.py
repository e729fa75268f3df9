import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentcrit.criteria
import momentcrit.moments
import momentcrit.reorder
from momentcrit.cli import RunConfig, analyze_state
from momentcrit.criteria import (
    MINOR_SCAN_BUDGET,
    TOL_EXACT,
    Outcome,
    breuer_bell_test,
    breuer_inequality_test,
    generic_pt_det_test,
    hz_three_mode,
    hz_two_mode,
    map_test,
    min_eig_test,
    multimode_bipartition,
    pt_min_eig_test,
    pt_norm_test,
    pt_sylvester_test,
    realign_norm_test,
    resolve_tol,
    sv_cat_state_test,
    sylvester_scan,
)
from momentcrit.errors import DimensionError
from momentcrit.fock import make_fock_state, superpose
from momentcrit.moments import (
    GenericClass,
    OperatorClass,
    build_moment_matrix,
    principal_submatrix,
)
from momentcrit.posmaps import BreuerParams, breuer_antidiagonal_unitary, breuer_map
from momentcrit.regression import fixtures
from momentcrit.sampling import (
    random_coherent_product,
    random_coherent_separable_mixture,
    random_pure_state,
    random_separable_mixture,
)
from momentcrit import states
from oracles import loop_sylvester_scan, traced_peak

BATTERY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "separable_battery.json"
STD = OperatorClass.from_strings(["1", "a"], ["1", "b"])
F2 = OperatorClass.from_strings(["1", "a", "Aa", "1"], ["1", "b", "Bb", "1"])
BREUER4 = breuer_map(BreuerParams(4, breuer_antidiagonal_unitary(4)))


def test_sylvester_scan_psd_input_inconclusive():
    v = sylvester_scan(np.diag([1.0, 2.0, 0.0]))
    assert v.outcome is Outcome.INCONCLUSIVE


def test_sylvester_full_enumeration_finds_hidden_minor():
    # matrix whose leading minors are all >= 0 but an inner one is negative
    m = np.diag([0.0, -1.0, 2.0])
    v = sylvester_scan(m, max_minor_size=1)
    assert v.outcome is Outcome.ENTANGLED
    assert v.witness["r"] == (2,)


def test_min_eig_test_fixtures():
    vac = build_moment_matrix(make_fock_state((0, 0), (2, 2)), STD)
    assert min_eig_test(vac).outcome is Outcome.INCONCLUSIVE


def test_min_eig_confirms_stormer_fixture():
    # independent eigensolve of the frozen witness matrix of the pinned-value table
    fixture = {f.fixture_id: f for f in fixtures()}["singlet.stormer_r237_matrix"].expected
    assert np.linalg.eigvalsh(fixture)[0] < 0


def test_norm_tests_inconclusive_on_coherent_product():
    state = states.product_coherent(0.5, 0.3)
    assert pt_norm_test(state, STD).outcome is Outcome.INCONCLUSIVE
    assert realign_norm_test(state, STD).outcome is Outcome.INCONCLUSIVE


def test_breuer_bell_fixture_and_vacuum():
    vac = make_fock_state((0, 0), (2, 2))
    assert breuer_bell_test(vac).outcome is Outcome.INCONCLUSIVE


def test_hz_two_mode_equals_sylvester_r14_on_random_states(
):
    rng = np.random.default_rng(21)
    for _ in range(50):
        state = random_pure_state(rng, (2, 2))
        hz = hz_two_mode(state)
        syl = pt_sylvester_test(state, STD, r_list=[(1, 4)])
        assert abs(hz.witness["det"] - syl.witness["min_principal_minor"]) < 1e-10
        assert hz.outcome == syl.outcome


def test_hz_three_mode_vacuum_inconclusive():
    vac = make_fock_state((0, 0, 0), (2, 2, 2))
    for variant in (1, 2):
        assert hz_three_mode(vac, variant=variant).outcome is Outcome.INCONCLUSIVE


def test_breuer_inequality_fixture_and_separable():
    sep = states.product_coherent(0.4, 0.2)
    assert breuer_inequality_test(sep).outcome is Outcome.INCONCLUSIVE


def test_breuer_inequality_equals_map_test_on_random_states():
    # the inequality is exactly the determinant condition of the mapped
    # submatrix r=(2,5) for the redundant class
    rng = np.random.default_rng(33)
    for _ in range(20):
        state = random_pure_state(rng, (2, 2))
        ineq = breuer_inequality_test(state)
        mapped = map_test(state, F2, BREUER4, side="A", r=(2, 5))
        assert abs(ineq.witness["det"] - mapped.witness["det"]) < 1e-10
        entangled_by_det = mapped.witness["det"] < -mapped.tol
        assert ineq.entangled == entangled_by_det


def test_sv_cat_detects_both_cat_states():
    sep = states.product_coherent(0.3, 0.2)
    assert sv_cat_state_test(sep).outcome is Outcome.INCONCLUSIVE


def test_multimode_bipartition_builders():
    bp = multimode_bipartition(states.ghz3(), 0)
    assert bp.modes_a == (0,) and bp.modes_b == (1, 2)
    # two-mode reduction is the ordinary bipartition
    singlet = states.singlet()
    bp2 = multimode_bipartition(singlet, 0)
    reduced = generic_pt_det_test(singlet, bp2.generic_class(["1", "ab"]))
    plain = generic_pt_det_test(singlet, GenericClass.from_strings(["1", "ab"]))
    np.testing.assert_array_equal(reduced.witness["matrix"], plain.witness["matrix"])


def test_mid_mode_bipartition():
    # distinguished mode in the middle: class letters must respect sides
    cuts = (2, 2, 2)
    state = superpose(
        [(1.0, make_fock_state((0, 1, 1), cuts)), (1.0, make_fock_state((1, 0, 0), cuts))],
        label="mid",
    )
    bp = multimode_bipartition(state, 1)
    assert bp.modes_a == (1,) and bp.modes_b == (0, 2)
    gcls = bp.generic_class(["1", "abc"])
    v = generic_pt_det_test(state, gcls)
    assert v.witness["det"] <= 1e-12


def test_negative_minor_implies_negative_min_eig():
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(200):
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (z + z.conj().T) / 2
        scan = sylvester_scan(h, max_minor_size=3)
        if scan.outcome is Outcome.ENTANGLED:
            hits += 1
            assert min_eig_test(h).outcome is Outcome.ENTANGLED
    assert hits > 50  # the generator produces plenty of indefinite matrices


def test_tolerance_discipline_no_flips_at_doubled_tol():
    fixtures = [
        states.singlet(),
        states.bell_phi_plus(),
        states.partial_example2(),
        make_fock_state((0, 0), (2, 2)),
        make_fock_state((1, 1), (2, 2)),
    ]
    for state in fixtures:
        for tol in (1e-9,):
            pairs = [
                (pt_norm_test(state, STD, tol=tol), pt_norm_test(state, STD, tol=2 * tol)),
                (realign_norm_test(state, STD, tol=tol), realign_norm_test(state, STD, tol=2 * tol)),
                (pt_min_eig_test(state, STD, tol=tol), pt_min_eig_test(state, STD, tol=2 * tol)),
                (hz_two_mode(state, tol=tol), hz_two_mode(state, tol=2 * tol)),
                (breuer_inequality_test(state, tol=tol), breuer_inequality_test(state, tol=2 * tol)),
            ]
            for v1, v2 in pairs:
                assert v1.outcome == v2.outcome


@pytest.mark.parametrize("tol", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
def test_resolve_tol_refuses_negative_or_non_finite(tol):
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        resolve_tol(None, tol)
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        pt_min_eig_test(states.product_coherent(0.3, 0.2), STD, tol=tol)
    assert resolve_tol(None, 0) == 0.0


@pytest.mark.parametrize("test", [pt_norm_test, realign_norm_test])
def test_norm_tests_build_the_moment_matrix_once(monkeypatch, test):
    calls = []

    def counted(state, cls):
        calls.append(cls)
        return build_moment_matrix(state, cls)

    for module in (momentcrit.criteria, momentcrit.moments, momentcrit.reorder):
        monkeypatch.setattr(module, "build_moment_matrix", counted)
    assert test(states.singlet(), STD).outcome is Outcome.ENTANGLED
    assert calls == [STD]


def test_separable_battery_never_entangled():
    rng = np.random.default_rng(99)
    battery = []
    for _ in range(50):
        battery.append(random_separable_mixture(rng, (2, 2), terms=int(rng.integers(1, 5))))
    for _ in range(25):
        battery.append(random_coherent_product(rng, max_amp=0.5))
    for _ in range(25):
        battery.append(random_coherent_separable_mixture(rng, terms=2, max_amp=0.5))
    assert len(battery) >= 100
    criteria = RunConfig.from_dict(json.loads(BATTERY_CONFIG.read_text())).criteria
    assert len(criteria) >= 10  # the shared soundness list must not shrink unnoticed
    for state in battery:
        report = analyze_state(state, criteria)
        flagged = [r for r in report["verdicts"] if r["outcome"] in ("ENTANGLED", "ERROR")]
        assert not flagged, f"separable state {state.label}: {flagged}"


def test_mode_preconditions_fail_fast():
    singlet = states.singlet()
    with pytest.raises(DimensionError, match="2-mode state"):
        hz_three_mode(singlet)
    with pytest.raises(DimensionError, match="2-mode state"):
        hz_two_mode(singlet, modes=(0, 2))
    with pytest.raises(DimensionError, match="2-mode state"):
        breuer_inequality_test(singlet, modes=(1, 1))


def test_sylvester_scan_budget():
    def over_budget():
        with pytest.raises(ValueError, match="budget"):
            sylvester_scan(np.eye(36), max_minor_size=20)

    # refused before any index array exists
    assert traced_peak(over_budget) < 2**20
    assert sylvester_scan(np.eye(16), max_minor_size=4).outcome is Outcome.INCONCLUSIVE
    # 36 rows at size 4 (66 711 minors) stay inside the budget, in bounded memory and time
    assert sum(math.comb(36, k) for k in range(1, 5)) <= MINOR_SCAN_BUDGET
    assert traced_peak(lambda: sylvester_scan(np.eye(36), max_minor_size=4)) < 64 * 2**20
    start = time.perf_counter()
    assert sylvester_scan(np.eye(36), max_minor_size=4).witness["min_principal_minor"] == 1.0
    assert time.perf_counter() - start < 1.0  # one det per minor in Python takes about 1.5 s


# few distinct values, so ties (and 0.0 beside -0.0) are common; NaN is allowed
_entry = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.nan]),
    st.floats(-3, 3, allow_nan=False),
)


@st.composite
def _scan_case(draw):
    size = draw(st.integers(1, 8))
    m = np.zeros((size, size), dtype=complex)
    for i in range(size):
        m[i, i] = complex(draw(_entry), 0.0)
        for j in range(i + 1, size):
            m[i, j] = complex(draw(_entry), draw(_entry))
            m[j, i] = m[i, j].conjugate()
    if draw(st.booleans()):
        return m, draw(st.integers(1, size)), None
    subset = st.sets(st.integers(1, size), min_size=1).map(lambda r: tuple(sorted(r)))
    return m, 4, draw(st.lists(subset, max_size=12))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # det of minors with NaN entries
@settings(max_examples=200, deadline=None)
@given(_scan_case())
def test_sylvester_scan_equals_the_per_minor_loop(case):
    m, max_minor_size, r_list = case
    v = sylvester_scan(m, max_minor_size=max_minor_size, r_list=r_list)
    det, r = loop_sylvester_scan(m, max_minor_size, r_list)
    assert repr(v.witness["min_principal_minor"]) == repr(det)  # bitwise, sign of zero too
    assert v.witness["r"] == r
    sub = principal_submatrix(m, r) if r else m
    assert v.witness["submatrix"].tobytes() == sub.tobytes()
    assert v.outcome is (Outcome.ENTANGLED if det < -TOL_EXACT else Outcome.INCONCLUSIVE)
