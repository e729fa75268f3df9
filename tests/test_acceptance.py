"""Acceptance suite: every criterion at its stated tolerance, one line each.

``test_pinned_value`` runs one test per row of the pinned-value table in
``momentcrit.regression``, the same table ``momentcrit regress`` checks; the
other tests cover properties that no single number pins."""

import json
from pathlib import Path

import numpy as np
import pytest

from momentcrit.cli import RunConfig, analyze_state
from momentcrit.criteria import generic_pt_det_test, hz_two_mode
from momentcrit.errors import SeriesDivergenceError
from momentcrit.moments import GenericClass, OperatorClass, build_moment_matrix
from momentcrit.posmaps import (
    BreuerParams,
    ChoiParams,
    KossakowskiParams,
    apply_partial,
    breuer_antidiagonal_unitary,
    breuer_map,
    breuer_unitary,
    choi_map,
    kossakowski_map,
    stormer_map,
)
from momentcrit.reconstruct import density_element, two_qubit_density
from momentcrit.reorder import build_pt_moment_matrix, partial_transpose
from momentcrit.regression import check, fixtures, norm_ordering_records
from momentcrit.sampling import (
    random_coherent_product,
    random_coherent_separable_mixture,
    random_density,
    random_product_pure,
    random_pure_state,
    random_separable_mixture,
)
from momentcrit import states
from oracles import (
    HermitianOperator,
    hz_two_mode_formula,
    partial_transpose_fock,
    product_state_factorization,
    random_psd,
    random_rotation,
    series_density,
)

BATTERY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "separable_battery.json"
STD = OperatorClass.from_strings(["1", "a"], ["1", "b"])
TRIPLE = OperatorClass.from_strings(["1", "a", "a"], ["1", "b", "b"])
BREUER4 = breuer_map(BreuerParams(4, breuer_antidiagonal_unitary(4)))


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name} {detail}"


@pytest.mark.parametrize("fixture", fixtures(), ids=lambda f: f.fixture_id)
def test_pinned_value(fixture):
    result = check(fixture)
    got = result.error or repr(result.actual)
    _report(fixture.fixture_id, result.passed, f"expected {fixture.expected!r} within {fixture.tol:g}, got {got}")


def test_acceptance_07_symbolic_entry_patterns():
    # Coefficient extraction by feeding elementary matrices through the
    # partial map and reading the listed output entries.  Matches are exact.
    def coefficients(dim_pair, pmap, out_entry):
        d_a, d_b = dim_pair
        n = d_a * d_b
        coeffs = {}
        for u in range(n):
            for v in range(n):
                probe = np.zeros((n, n), dtype=complex)
                probe[u, v] = 1.0
                out = apply_partial(probe, pmap, side="A", dims=dim_pair)
                value = out[out_entry[0] - 1, out_entry[1] - 1]
                if value != 0:
                    coeffs[(u + 1, v + 1)] = value
        return coeffs

    expected_stormer = {
        (2, 2): {(1, 1): 1.0, (2, 2): 1.0},
        (2, 3): {(2, 3): -1.0},
        (2, 7): {(2, 7): -1.0},
        (3, 3): {(2, 2): 1.0, (3, 3): 1.0},
        (3, 7): {(3, 7): -1.0},
        (7, 7): {(7, 7): 1.0, (9, 9): 1.0},
    }
    for entry, expected in expected_stormer.items():
        got = coefficients((3, 3), stormer_map(), entry)
        _report(f"07.stormer.out{entry}", got == expected, f"{got}")

    expected_breuer = {
        (2, 2): {(1, 1): 1.0, (4, 4): 1.0},
        (2, 5): {(2, 5): -1.0, (4, 7): -1.0},
        (5, 5): {(6, 6): 1.0, (7, 7): 1.0},
    }
    for entry, expected in expected_breuer.items():
        got = coefficients((4, 4), BREUER4, entry)
        _report(f"07.breuer.out{entry}", got == expected, f"{got}")


def test_acceptance_08a_moment_matrix_psd():
    rng = np.random.default_rng(801)
    classes = [STD, TRIPLE, OperatorClass.from_strings(["1", "a", "Aa"], ["1", "b", "Bb"])]
    worst = 0.0
    for i in range(200):
        cls = classes[i % len(classes)]
        state = (
            random_pure_state(rng, (2, 2))
            if i % 2
            else random_density(rng, (2, 2), rank=int(rng.integers(1, 4)))
        )
        lam = float(np.linalg.eigvalsh(build_moment_matrix(state, cls).entries)[0])
        worst = min(worst, lam)
        assert lam >= -1e-9
    _report("08a.psd_200_states", True, f"worst min eig {worst:.2e}")


def test_acceptance_08b_pt_commutation_identity():
    rng = np.random.default_rng(802)
    pool_a = ["1", "a", "A", "Aa", "aa", "AA"]
    pool_b = ["1", "b", "B", "Bb", "bb", "BB"]
    worst = 0.0
    for i in range(100):
        side_a = ["1"] + list(rng.choice(pool_a, size=int(rng.integers(1, 3))))
        side_b = ["1"] + list(rng.choice(pool_b, size=int(rng.integers(1, 3))))
        cls = OperatorClass.from_strings(side_a, side_b)
        state = (
            random_pure_state(rng, (2, 3)) if i % 2 else random_density(rng, (2, 2))
        )
        swapped = build_pt_moment_matrix(state, cls)
        reordered = partial_transpose(build_moment_matrix(state, cls), "B")
        err = np.max(np.abs(swapped.entries - reordered.entries))
        pt_state = HermitianOperator(
            state.cutoffs,
            partial_transpose_fock(
                state.matrix if hasattr(state, "matrix") else state.density().matrix,
                state.cutoffs,
                (1,),
            ),
        )
        err2 = np.max(np.abs(swapped.entries - build_moment_matrix(pt_state, cls).entries))
        worst = max(worst, err, err2)
        assert err <= 1e-10 and err2 <= 1e-10
    _report("08b.commutation_100_pairs", True, f"worst defect {worst:.2e}")


def test_acceptance_08c_product_factorization():
    rng = np.random.default_rng(803)
    worst = 0.0
    for _ in range(50):
        cls = OperatorClass.from_strings(["1", "a", "Aa"], ["1", "b", "bb"])
        import momentcrit.fock as fk

        a = random_pure_state(rng, (3,))
        b = random_pure_state(rng, (3,))
        joint = fk.StateVector(
            fk.ModeCutoffs((3, 3)), np.kron(a.amplitudes, b.amplitudes)
        )
        m = build_moment_matrix(joint, cls)
        err = np.max(np.abs(m.entries - product_state_factorization(a, b, cls)))
        worst = max(worst, err)
        assert err <= 1e-10
    _report("08c.factorization", True, f"worst defect {worst:.2e}")


def test_acceptance_08d_separable_soundness():
    rng = np.random.default_rng(804)
    battery = (
        [random_separable_mixture(rng, (2, 2), terms=int(rng.integers(1, 5))) for _ in range(50)]
        + [random_product_pure(rng, (2, 2)) for _ in range(25)]
        + [random_coherent_product(rng, 0.5) for _ in range(15)]
        + [random_coherent_separable_mixture(rng, 2, 0.5) for _ in range(10)]
    )
    criteria = RunConfig.from_dict(json.loads(BATTERY_CONFIG.read_text())).criteria
    flagged = errors = 0
    for state in battery:
        report = analyze_state(state, criteria)
        flagged += report["entangled_count"]
        errors += report["error_count"]
    _report("08d.separable_battery", flagged == errors == 0,
            f"{len(battery)} states x {len(criteria)} criteria, {flagged} false flags, {errors} errors")


def test_acceptance_08e_maps_preserve_psd():
    rng = np.random.default_rng(805)
    maps = [
        stormer_map(),
        choi_map(ChoiParams(1, 1, 1)),
        kossakowski_map(KossakowskiParams(3, random_rotation(rng, 8))),
        BREUER4,
        breuer_map(BreuerParams(4, breuer_unitary((0.3, 2.1), random_rotation(rng, 4)))),
    ]
    worst = 0.0
    for pmap in maps:
        for _ in range(200):
            out = pmap(random_psd(rng, pmap.dim))
            lam = float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0])
            worst = min(worst, lam)
            assert lam >= -1e-10
    _report("08e.positive_maps", True, f"worst output eig {worst:.2e}")


def test_acceptance_09_reconstruction():
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(20):
        state = random_pure_state(rng, (2, 2))
        rho = two_qubit_density(state)
        err = np.max(np.abs(rho.matrix - state.density().matrix))
        worst = max(worst, err)
        assert err <= 1e-10
        assert np.max(np.abs(series_density(state, (2, 2)) - rho.matrix)) <= 1e-10
    _report("09.two_qubit_reconstruction", True, f"worst defect {worst:.2e}")
    raised = False
    try:
        density_element(states.thermal(1.0, cutoff=60), 0, 0, 30)
    except SeriesDivergenceError:
        raised = True
    _report("09.thermal_divergence", raised)


def test_acceptance_10_multimode():
    # the two-mode number inequality, read off the generic (1, ab) PT matrix of the
    # bipartition, equals its moment formula <N_a N_b> - |<a b^dag>|^2
    singlet = states.singlet()
    hz = hz_two_mode(singlet).witness["det"]
    generic = generic_pt_det_test(singlet, GenericClass.from_strings(["1", "ab"]))
    formula = hz_two_mode_formula(singlet)["det"]
    _report(
        "10.two_mode_reduction",
        max(abs(hz - formula), abs(generic.witness["det"] - formula)) < 1e-12,
        f"hz={hz} generic={generic.witness['det']} formula={formula}",
    )


def test_acceptance_11_norm_ordering_monitor(tmp_path):
    records = norm_ordering_records()
    counterexamples = [r for r in records if not r["ok"]]
    print(
        f"[MONITOR] nu_gamma >= nu_realign - 1e-9 held on "
        f"{len(records) - len(counterexamples)}/{len(records)} pairs"
    )
    if counterexamples:
        dump = tmp_path / "norm_ordering_counterexamples.json"
        dump.write_text(json.dumps(counterexamples, indent=2))
        print(f"[MONITOR] counterexamples dumped to {dump}")
    # monitored observation: reported, never failed
