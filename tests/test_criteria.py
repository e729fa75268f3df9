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
from momentcrit.posmaps import (
    BreuerParams,
    ChoiParams,
    KossakowskiParams,
    breuer_antidiagonal_unitary,
    breuer_map,
    choi_map,
    kossakowski_map,
    stormer_map,
)
from momentcrit.sampling import (
    random_coherent_product,
    random_coherent_separable_mixture,
    random_density,
    random_pure_state,
    random_separable_mixture,
)
from momentcrit import states
from oracles import (
    complete_table,
    hz_three_mode_formula,
    hz_two_mode_formula,
    loop_sylvester_scan,
    permute_modes,
    pinned,
    rotate_phases,
    traced_peak,
)

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
    assert np.linalg.eigvalsh(pinned("singlet.stormer_r237_matrix"))[0] < 0


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
    # mode 0 versus the other two modes of a three-mode state
    cls = GenericClass.from_strings(["a", "bc"], (0,), (1, 2))
    v = generic_pt_det_test(states.ghz3(), cls)
    assert v.boundary
    assert v.witness["det"] == hz_three_mode(states.ghz3(), variant=2).witness["margin"]
    # the class refuses an empty side and a mode outside the state
    with pytest.raises(DimensionError):
        GenericClass.from_strings(["1"], (), (0, 1))
    with pytest.raises(DimensionError):
        GenericClass.from_strings(["1"], (0,), (1, 3), num_modes=3)


def test_mid_mode_bipartition():
    # distinguished mode in the middle: class letters must respect sides
    cuts = (2, 2, 2)
    state = superpose(
        [(1.0, make_fock_state((0, 1, 1), cuts)), (1.0, make_fock_state((1, 0, 0), cuts))],
        label="mid",
    )
    v = generic_pt_det_test(state, GenericClass.from_strings(["1", "abc"], (1,), (0, 2)))
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


@pytest.mark.parametrize("scan", [{"max_minor_size": 0}, {"max_minor_size": -2}, {"r_list": []}])
def test_sylvester_scan_refuses_an_empty_scan(scan):
    # a scan of no minors used to return INCONCLUSIVE with min_principal_minor = inf
    with pytest.raises(ValueError, match="max_minor_size >= 1 and a nonempty r_list"):
        sylvester_scan(np.diag([1.0, -1.0]), **scan)
    with pytest.raises(ValueError, match="max_minor_size >= 1 and a nonempty r_list"):
        pt_sylvester_test(states.singlet(), STD, **scan)


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
    return m, 4, draw(st.lists(subset, min_size=1, max_size=12))


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


# -- the named inequalities: presets of the generic PT matrix -------------------


@st.composite
def _named_case(draw):
    """A pure or rank-2 state of 2-3 modes, two distinct modes of it and, on three
    modes, an ordering of all three."""
    num_modes = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = tuple(draw(st.integers(2, 3)) for _ in range(num_modes))
    mixed = draw(st.booleans())
    state = random_density(rng, cuts, rank=2) if mixed else random_pure_state(rng, cuts)
    order = tuple(draw(st.permutations(range(num_modes))))
    return state, order[:2], order if num_modes == 3 else None


def _named_witnesses(state, pair, triple) -> dict[str, np.ndarray]:
    """The scalar witnesses of hz_two_mode and breuer_inequality on ``pair`` and, on
    three modes, of both hz_three_mode variants on ``triple``, per criterion."""
    verdicts = [hz_two_mode(state, pair), breuer_inequality_test(state, pair)]
    if triple is not None:
        verdicts += [hz_three_mode(state, variant, triple) for variant in (1, 2)]
    return {v.criterion: np.array([x for x in v.witness.values() if isinstance(x, float)])
            for v in verdicts}


@settings(max_examples=60, deadline=None)
@given(_named_case(), st.booleans())
def test_presets_match_the_moment_formulas(case, as_table):
    state, pair, triple = case
    source = complete_table(state, 2) if as_table else state
    checks = [(hz_two_mode(source, pair), hz_two_mode_formula(source, pair))]
    if triple is not None:
        checks += [(hz_three_mode(source, variant, triple),
                    hz_three_mode_formula(source, variant, triple)) for variant in (1, 2)]
    for verdict, formula in checks:
        assert verdict.witness.keys() == formula.keys()
        scale = max(1.0, *(abs(x) for x in formula.values()))
        for key, value in formula.items():
            assert abs(verdict.witness[key] - value) <= 1e-12 * scale, (verdict.criterion, key)


@settings(max_examples=60, deadline=None)
@given(_named_case(), st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3))
def test_named_inequalities_invariant_under_local_phase_rotations(case, phases):
    # psi -> exp(-i sum_q phi_q n_q) psi multiplies each moment by a phase.  The
    # number-correlation witnesses are moduli of single moments; the time-reversal
    # witness adds <N_a b> to <a^dag b>, whose phases differ by phi_a, so it holds
    # only under rotations that leave mode a alone.
    state, pair, triple = case
    phases = np.array(phases[: state.num_modes])
    fixed_a = np.where(np.arange(state.num_modes) == pair[0], 0.0, phases)
    rotated = _named_witnesses(rotate_phases(state, phases), pair, triple)
    rotated["breuer_inequality"] = _named_witnesses(
        rotate_phases(state, fixed_a), pair, triple)["breuer_inequality"]
    for name, values in _named_witnesses(state, pair, triple).items():
        np.testing.assert_allclose(rotated[name], values, rtol=0, atol=1e-10, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(_named_case(), st.data())
def test_named_inequalities_invariant_under_permuting_the_modes(case, data):
    state, pair, triple = case
    perm = data.draw(st.permutations(range(state.num_modes)))
    moved = permute_modes(state, perm)  # mode q of state is mode perm.index(q) of moved

    def where(modes):
        return None if modes is None else tuple(perm.index(q) for q in modes)

    expected = _named_witnesses(state, pair, triple)
    for name, values in _named_witnesses(moved, where(pair), where(triple)).items():
        np.testing.assert_allclose(values, expected[name], rtol=0, atol=1e-10, err_msg=name)


# -- positive maps: invariances of the map witnesses -----------------------------

_SWAP = str.maketrans("aAbB", "bBaA")
_MAPS = [stormer_map(), choi_map(ChoiParams(1.5, 1.0, 1.0)), kossakowski_map(KossakowskiParams(3))]
C16 = OperatorClass.from_strings(["1", "a", "Aa", "aa"], ["1", "b", "Bb", "bb"])


@st.composite
def _two_mode_state(draw):
    """A pure or rank-2 two-mode state with cutoffs 2-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    return random_density(rng, cuts, rank=2) if draw(st.booleans()) else random_pure_state(rng, cuts)


@st.composite
def _map_case(draw):
    """A two-mode state, a 3 x 3 tensor class, a 3-dimensional map, the side it acts
    on and the rows of the tested submatrix (None for all nine)."""
    state = draw(_two_mode_state())
    side_a = ["1"] + draw(st.lists(st.sampled_from(["a", "A", "Aa", "aa"]), min_size=2, max_size=2))
    side_b = ["1"] + draw(st.lists(st.sampled_from(["b", "B", "Bb", "bb"]), min_size=2, max_size=2))
    rows = draw(st.none() | st.sets(st.integers(1, 9), min_size=1, max_size=9))
    r = None if rows is None else tuple(sorted(rows))
    return state, side_a, side_b, draw(st.sampled_from(_MAPS)), draw(st.sampled_from("AB")), r


def _map_witness(state, side_a, side_b, pmap, side, r) -> np.ndarray:
    w = map_test(state, OperatorClass.from_strings(side_a, side_b), pmap, side, r).witness
    return np.array([w["min_eigenvalue"], w["det"]])


@settings(max_examples=60, deadline=None)
@given(_map_case(), st.floats(-np.pi, np.pi))
def test_map_witness_invariant_under_phase_rotations_of_the_untouched_mode(case, phi):
    # a phase on the untouched mode conjugates M by a diagonal unitary on that factor,
    # which commutes with the map and keeps every principal submatrix's spectrum
    state, side_a, side_b, pmap, side, r = case
    phases = (0.0, phi) if side == "A" else (phi, 0.0)
    np.testing.assert_allclose(
        _map_witness(rotate_phases(state, phases), side_a, side_b, pmap, side, r),
        _map_witness(state, side_a, side_b, pmap, side, r), rtol=1e-9, atol=1e-10)


def _swapped_rows(r, d_a, d_b):
    """Rows r of a d_a x d_b class as rows of the class with its sides exchanged."""
    return None if r is None else tuple(sorted(
        ((x - 1) % d_a) * d_b + (x - 1) // d_a + 1 for x in r))


@settings(max_examples=60, deadline=None)
@given(_map_case())
def test_map_witness_invariant_under_swapping_the_modes_with_the_class_and_side(case):
    state, side_a, side_b, pmap, side, r = case
    np.testing.assert_allclose(
        _map_witness(permute_modes(state, (1, 0)), [t.translate(_SWAP) for t in side_b],
                     [t.translate(_SWAP) for t in side_a], pmap, "B" if side == "A" else "A",
                     _swapped_rows(r, 3, 3)),
        _map_witness(state, side_a, side_b, pmap, side, r), rtol=1e-9, atol=1e-10)


def _bell_dets(state) -> np.ndarray:
    w = breuer_bell_test(state).witness
    return np.array([w["det_f1"], w["det_f2"]])


@settings(max_examples=40, deadline=None)
@given(_two_mode_state(), st.floats(-np.pi, np.pi))
def test_breuer_bell_invariant_under_phase_rotations_of_mode_b(state, phi):
    np.testing.assert_allclose(_bell_dets(rotate_phases(state, (0.0, phi))), _bell_dets(state),
                               rtol=1e-9, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(_two_mode_state())
def test_breuer_bell_on_swapped_modes_is_the_map_on_side_b(state):
    # both classes are symmetric under a <-> b, so swapping the modes moves the map to
    # side B and the rows (1, 6, 9) to (1, 3, 6)
    on_b = [map_test(state, cls, BREUER4, side="B", r=(1, 3, 6)).witness["det"]
            for cls in (C16, F2)]
    np.testing.assert_allclose(_bell_dets(permute_modes(state, (1, 0))), on_b,
                               rtol=1e-9, atol=1e-10)
