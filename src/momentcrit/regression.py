"""The one table of pinned reference values.

``fixtures()`` lists every number, matrix, flag and outcome that the paper's
worked examples pin, each with its tolerance.  A row computes its value on
call, through the public criterion that ``analyze`` runs wherever one exists
(``pt_min_eig_test``, ``map_test``, ``hz_two_mode``, ...), so a pin checks the
same code path as a report.  Listing the table builds no state.

Two readers share it: ``run_regression_suite`` (the CLI ``regress``
subcommand, which exits nonzero on any failure) and the parametrized
``tests/test_acceptance.py::test_pinned_value``, one test per row.  Both judge
a row with ``check``; the comparison follows from the type of the pinned
value: arrays by max-abs difference, bools and ``Outcome``s by equality, other
numbers by absolute difference, always strictly below the tolerance.

The suite also carries a monitored (non-failing) observation: across the
battery the normalized PT norm never drops below the normalized realignment
norm.  Counterexamples, if any ever appear, are collected for inspection
rather than failed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import states
from .criteria import (
    Bipartition,
    Outcome,
    Verdict,
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
    sv_cat_state_test,
)
from .fock import Monomial, make_fock_state, superpose
from .moments import GenericClass, OperatorClass, build_moment_matrix, shift_tables
from .posmaps import (
    BreuerParams,
    ChoiParams,
    KossakowskiParams,
    breuer_antidiagonal_unitary,
    breuer_map,
    choi_map,
    kossakowski_map,
    stormer,
    stormer_map,
)
from .reorder import nu_gamma, nu_realign, realign, trace_norm
from .sampling import random_density, random_pure_state


@dataclass(frozen=True)
class Fixture:
    fixture_id: str
    description: str
    compute: Callable[[], object]
    expected: object
    tol: float = 0.0


@dataclass
class FixtureResult:
    fixture_id: str
    description: str
    passed: bool
    expected: object
    actual: object
    tol: float
    error: str | None = None


@dataclass
class RegressionReport:
    results: list[FixtureResult] = field(default_factory=list)
    observations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(r.passed for r in self.results)

    @property
    def failed(self) -> int:
        return sum(not r.passed for r in self.results)

    @property
    def ok(self) -> bool:
        return self.failed == 0


SQ2 = math.sqrt(2.0)
SQ13 = math.sqrt(13.0)


def _std_class() -> OperatorClass:
    return OperatorClass.from_strings(["1", "a"], ["1", "b"])


def _w_like():
    cuts = (2, 2, 2)
    return superpose(
        [(1.0, make_fock_state((0, 1, 1), cuts)), (1.0, make_fock_state((1, 0, 0), cuts))],
        label="(|011>+|100>)/sqrt(2)",
    )


def _lowering_matrix(cutoff: int) -> np.ndarray:
    """Matrix of the annihilation operator read off its shift table."""
    src, weight = shift_tables((Monomial(((0, 1),)),), (cutoff,))
    out = np.zeros((cutoff, cutoff), dtype=complex)
    live = src[0] >= 0
    out[np.flatnonzero(live), src[0][live]] = weight[0][live]
    return out


def _run(criterion: Callable, build: Callable, *args, **kwargs) -> Callable[[], Verdict]:
    """A thunk that runs criterion on a freshly built state."""
    return lambda: criterion(build(), *args, **kwargs)


def _witness(verdict: Callable[[], Verdict], key: str) -> Callable[[], object]:
    return lambda: verdict().witness[key]


def _outcome(verdict: Callable[[], Verdict]) -> Callable[[], Outcome]:
    return lambda: verdict().outcome


def fixtures() -> list[Fixture]:
    """Every pinned value, in report order.  Rows compute on call."""
    std = _std_class()
    triple = OperatorClass.from_strings(["1", "a", "a"], ["1", "b", "b"])
    pair = GenericClass.from_strings(["1", "ab"])
    singlet, partial, ghz = states.singlet, states.partial_example2, states.ghz3
    stormer3, breuer4 = stormer_map(), breuer_map(BreuerParams(4, breuer_antidiagonal_unitary(4)))
    f1 = OperatorClass.from_strings(["1", "a", "Aa", "aa"], ["1", "b", "Bb", "bb"])
    f2 = OperatorClass.from_strings(["1", "a", "Aa", "1"], ["1", "b", "Bb", "1"])
    f3 = OperatorClass.from_strings(["1", "a", "1", "1"], ["1", "b", "1", "1"])

    def full_pt_det(build):  # the PT determinant is the principal minor over every row
        minor = _run(pt_sylvester_test, build, std, r_list=[(1, 2, 3, 4)])
        return _witness(minor, "min_principal_minor")

    s_pt_eig = _run(pt_min_eig_test, singlet, std)
    s_norm, s_realign = _run(pt_norm_test, singlet, std), _run(realign_norm_test, singlet, std)
    s_r14 = _run(pt_sylvester_test, singlet, std, r_list=[(1, 4)])
    s_generic, s_hz = _run(generic_pt_det_test, singlet, pair), _run(hz_two_mode, singlet)
    s_stormer = _run(map_test, singlet, triple, stormer3, side="A", r=(2, 3, 7))
    p_stormer = _run(map_test, partial, triple, stormer3, side="A", r=(2, 3, 7))
    s_f1 = _run(map_test, singlet, f1, breuer4, side="A", r=(2, 5))
    s_f2 = _run(map_test, singlet, f2, breuer4, side="A", r=(2, 5))
    s_f3 = _run(map_test, singlet, f3, breuer4, side="A", r=(2, 5))
    s_f3_big = _run(map_test, singlet, f3, breuer4, side="A", r=(2, 5, 7, 8))
    s_ineq = _run(breuer_inequality_test, singlet)
    p_norm, p_realign = _run(pt_norm_test, partial, std), _run(realign_norm_test, partial, std)
    p_r14 = _run(pt_sylvester_test, partial, std, r_list=[(1, 4)])
    p_generic, p_hz = _run(generic_pt_det_test, partial, pair), _run(hz_two_mode, partial)
    b_bell = _run(breuer_bell_test, states.bell_phi_plus)
    fock11_hz = _run(hz_two_mode, lambda: states.fock((1, 1)))
    w_v1 = _run(hz_three_mode, _w_like, variant=1)
    w_generic = _run(generic_pt_det_test, _w_like, Bipartition(3, 0).generic_class(["1", "abc"]))
    ghz_v2 = _run(hz_three_mode, ghz, variant=2)
    ghz_generic = _run(generic_pt_det_test, ghz, Bipartition(3, 0).generic_class(["a", "bc"]))
    ENT, INC = Outcome.ENTANGLED, Outcome.INCONCLUSIVE
    choi = choi_map(ChoiParams(2.5, 0.4, 0.3))
    diag123 = np.diag([1.0, 2.0, 3.0])
    probe3 = np.array([[1, 2, 0], [0, 2, 0], [0, 1j, 3]])  # diagonal 1, 2, 3
    probe4 = np.array([[1, 5, 0, 0], [0, 2, 0, 0], [1j, 0, 3, 0], [0, 0, 0, 4]])

    rows = [
        Fixture("ladder.qubit_lowering",
                "cutoff-2 annihilation matrix equals the qubit lowering operator",
                lambda: _lowering_matrix(2), np.array([[0, 1], [0, 0]], dtype=complex), 1e-15),
        Fixture("singlet.moment_matrix", "4x4 moment matrix of the singlet over (1,a)x(1,b)",
                _witness(s_norm, "moment_matrix"),
                np.array([[1, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]],
                         dtype=complex), 1e-12),
        Fixture("singlet.pt_det", "determinant of the PT moment matrix",
                full_pt_det(singlet), -1.0 / 16.0, 1e-12),
        Fixture("singlet.pt_min_eig", "minimum eigenvalue of the PT moment matrix",
                _witness(s_pt_eig, "min_eigenvalue"), (1.0 - SQ2) / 2.0, 1e-9),
        Fixture("singlet.pt_min_eig_outcome", "pt_min_eig detects the singlet",
                _outcome(s_pt_eig), ENT),
        Fixture("singlet.nu_gamma", "normalized PT trace norm",
                _witness(s_norm, "nu_gamma"), (1.0 + SQ2) / 2.0, 1e-9),
        Fixture("singlet.pt_norm_outcome", "pt_norm detects the singlet", _outcome(s_norm), ENT),
        Fixture("singlet.nu_realign", "normalized realignment trace norm",
                _witness(s_realign, "nu_realign"), (1.0 + SQ2) / 2.0, 1e-9),
        Fixture("singlet.realign_norm_outcome", "realign_norm detects the singlet",
                _outcome(s_realign), ENT),
        Fixture("singlet.realign_trace_norm",
                "unnormalized realignment trace norm (trace of the moment matrix is 2)",
                lambda: trace_norm(realign(build_moment_matrix(singlet(), std))),
                1.0 + SQ2, 1e-9),
        Fixture("singlet.sylvester_r14_minor", "principal minor (1,4) of the PT moment matrix",
                _witness(s_r14, "min_principal_minor"), -0.25, 1e-12),
        Fixture("singlet.sylvester_r14_outcome", "the (1,4) minor detects the singlet",
                _outcome(s_r14), ENT),
        Fixture("singlet.generic_pt_matrix", "2x2 PT moment matrix over the generic class (1, ab)",
                _witness(s_generic, "matrix"),
                np.array([[1, -0.5], [-0.5, 0]], dtype=complex), 1e-12),
        Fixture("singlet.generic_pt_det", "determinant over the generic class (1, ab)",
                _witness(s_generic, "det"), -0.25, 1e-12),
        Fixture("singlet.hz_det", "two-mode number-correlation determinant",
                _witness(s_hz, "det"), -0.25, 1e-12),
        Fixture("singlet.hz_outcome", "hz_two_mode detects the singlet", _outcome(s_hz), ENT),
        Fixture("singlet.stormer_r237_matrix", "partially mapped 9x9, rows (2,3,7)",
                _witness(s_stormer, "matrix"),
                0.5 * np.array([[3, -1, 1], [-1, 2, 1], [1, 1, 1]], dtype=complex), 1e-12),
        Fixture("singlet.stormer_r237_det", "determinant of the mapped submatrix",
                _witness(s_stormer, "det"), -0.25, 1e-12),
        Fixture("singlet.stormer_r237_outcome", "the Stormer submatrix detects the singlet",
                _outcome(s_stormer), ENT),
        Fixture("singlet.breuer_f1_r25_matrix",
                "time-reversal map on (1,a,Aa,aa)x(1,b,Bb,bb), rows (2,5)",
                _witness(s_f1, "matrix"), np.array([[1, 0.5], [0.5, 0]], dtype=complex), 1e-12),
        Fixture("singlet.breuer_f1_r25_det", "determinant of the rich-class witness",
                _witness(s_f1, "det"), -0.25, 1e-12),
        Fixture("singlet.breuer_f1_r25_outcome", "the rich-class witness detects the singlet",
                _outcome(s_f1), ENT),
        Fixture("singlet.breuer_f2_r25_matrix",
                "time-reversal map on (1,a,Aa,1)x(1,b,Bb,1), rows (2,5)",
                _witness(s_f2, "matrix"), np.array([[2, 0.5], [0.5, 0]], dtype=complex), 1e-12),
        Fixture("singlet.breuer_f2_r25_det", "determinant of the reduced witness",
                _witness(s_f2, "det"), -0.25, 1e-12),
        Fixture("singlet.breuer_f2_r25_outcome", "the reduced witness detects the singlet",
                _outcome(s_f2), ENT),
        Fixture("singlet.breuer_f3_r25_psd", "rows (2,5) of the minimal redundant class stay PSD",
                lambda: bool(s_f3().witness["min_eigenvalue"] >= -1e-12), True),
        Fixture("singlet.breuer_f3_r25_outcome", "rows (2,5) of the minimal class are inconclusive",
                _outcome(s_f3), INC),
        Fixture("singlet.breuer_f3_r2578_det",
                "rows (2,5,7,8) of the minimal redundant class detect the singlet",
                _witness(s_f3_big, "det"), -0.25, 1e-12),
        Fixture("singlet.breuer_f3_r2578_outcome", "rows (2,5,7,8) give ENTANGLED",
                _outcome(s_f3_big), ENT),
        Fixture("singlet.breuer_inequality_det", "two-mode time-reversal inequality determinant",
                _witness(s_ineq, "det"), -0.25, 1e-12),
        Fixture("singlet.breuer_inequality_outcome",
                "the time-reversal inequality detects the singlet",
                _outcome(s_ineq), ENT),
        Fixture("partial.moment_matrix", "4x4 moment matrix of (|00>+|01>+|10>)/sqrt(3)",
                _witness(p_norm, "moment_matrix"),
                np.array([[3, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 0]],
                         dtype=complex) / 3.0, 1e-12),
        Fixture("partial.nu_gamma", "normalized PT trace norm",
                _witness(p_norm, "nu_gamma"), 1.1891, 5e-5),
        Fixture("partial.nu_realign", "normalized realignment trace norm",
                _witness(p_realign, "nu_realign"), 1.1891, 5e-5),
        Fixture("partial.pt_det", "determinant of the PT moment matrix",
                full_pt_det(partial), -1.0 / 81.0, 1e-12),
        Fixture("partial.sylvester_r14_minor", "principal minor (1,4) of the PT moment matrix",
                _witness(p_r14, "min_principal_minor"), -1.0 / 9.0, 1e-12),
        Fixture("partial.generic_pt_matrix", "2x2 PT moment matrix over (1, ab)",
                _witness(p_generic, "matrix"),
                np.array([[1, 1 / 3], [1 / 3, 0]], dtype=complex), 1e-12),
        Fixture("partial.hz_det", "two-mode number-correlation determinant",
                _witness(p_hz, "det"), -1.0 / 9.0, 1e-12),
        Fixture("partial.hz_min_eig", "minimum eigenvalue of the 2x2 PT submatrix",
                lambda: min_eig_test(p_generic().witness["matrix"]).witness["min_eigenvalue"],
                (3.0 - SQ13) / 6.0, 1e-9),
        Fixture("partial.stormer_r237_matrix", "partially mapped 9x9, rows (2,3,7)",
                _witness(p_stormer, "matrix"),
                np.array([[4, -1, -1], [-1, 2, -1], [-1, -1, 1]], dtype=complex) / 3.0, 1e-12),
        Fixture("partial.stormer_r237_det", "determinant of the mapped submatrix",
                _witness(p_stormer, "det"), -1.0 / 27.0, 1e-12),
        Fixture("bell.breuer_r169_det_f1",
                "Bell state, time-reversal map witness, rows (1,6,9), rich class",
                _witness(b_bell, "det_f1"), -0.25, 1e-12),
        Fixture("bell.breuer_r169_det_f2",
                "Bell state, time-reversal map witness, rows (1,6,9), reduced class",
                _witness(b_bell, "det_f2"), -0.25, 1e-12),
        Fixture("bell.breuer_bell_outcome", "breuer_bell detects the Bell state",
                _outcome(b_bell), ENT),
        Fixture("fock11.hz_n_a_n_b", "<N_a N_b> on |11>",
                _witness(fock11_hz, "n_a_n_b"), 1.0, 1e-12),
        Fixture("fock11.hz_outcome", "hz_two_mode is inconclusive on |11>",
                _outcome(fock11_hz), INC),
        Fixture("stormer.indecomposable", "the (2,0,1) map is flagged indecomposable",
                lambda: not stormer().decomposable, True),
        Fixture("choi.diag_probe", "choi(2.5,0.4,0.3) on diag(1,2,3): -A + diag(4.2, 6.5, 8.5)",
                lambda: choi(diag123), np.diag([3.2, 4.5, 5.5]).astype(complex), 1e-12),
        Fixture("choi.offdiag_probe", "choi(2.5,0.4,0.3) negates the off-diagonal entries",
                lambda: choi(probe3),
                np.array([[3.2, -2, 0], [0, 4.5, 0], [0, -1j, 5.5]]), 1e-12),
        Fixture("stormer.diag_probe", "stormer on diag(1,2,3): -A + diag(2+3, 1+4, 2+6)",
                lambda: stormer3(diag123), np.diag([4.0, 3.0, 5.0]).astype(complex), 1e-12),
        Fixture("kossakowski.flip_probe",
                "n=3 rotation map flipping the (0,1) and (0,2) symmetric generators, on trace 6: "
                "I + A/2 - (A01 + A10)/2 (E01 + E10) - (A02 + A20)/2 (E02 + E20)",
                lambda: kossakowski_map(KossakowskiParams(3, np.diag([-1.0, -1] + [1] * 6)))(probe3),
                np.array([[1.5, 0, 0], [-1, 2, 0], [0, 0.5j, 2.5]]), 1e-12),
        Fixture("breuer4.probe",
                "anti-diagonal breuer(d=4): 10 I - A - U A^T U^dag, "
                "(U A^T U^dag)_ij = s_i s_j A_(3-j)(3-i), s = (1, 1, -1, -1)",
                lambda: breuer4(probe4),
                np.array([[5, -5, 0, 0], [0, 5, 0, 0], [-1j, 0, 5, -5], [0, 1j, 0, 5]]), 1e-12),
    ]
    for name in ("cat_prime", "cat_double_prime"):
        cat = functools.partial(getattr(states, name), 0.3, 0.2)
        sv = _run(sv_cat_state_test, cat)
        rows += [
            Fixture(f"{name}.nu_realign",
                    "normalized realignment trace norm at alpha=0.3, beta=0.2",
                    _witness(_run(realign_norm_test, cat, std), "nu_realign"), 1.1666, 1e-4),
            Fixture(f"{name}.nu_gamma", "normalized PT trace norm at alpha=0.3, beta=0.2",
                    _witness(_run(pt_norm_test, cat, std), "nu_gamma"), 1.1783, 1e-4),
            Fixture(f"{name}.sv_det_negative", "3x3 PT determinant over (1, b, ab) is negative",
                    lambda sv=sv: bool(sv().witness["det"] < 0), True),
            Fixture(f"{name}.sv_outcome", "sv_cat detects the cat state", _outcome(sv), ENT),
        ]
    rows += [
        Fixture("three_mode.number_margin",
                "three-mode number inequality margin on (|011>+|100>)/sqrt(2)",
                _witness(w_v1, "margin"), -0.25, 1e-12),
        Fixture("three_mode.n_a_n_b_n_c", "<N_a N_b N_c> vanishes", _witness(w_v1, "n_a_n_b_n_c"),
                0.0, 1e-12),
        Fixture("three_mode.abs_sq_adag_b_c", "|<a^dag b c>|^2", _witness(w_v1, "abs_sq_adag_b_c"),
                0.25, 1e-12),
        Fixture("three_mode.detects", "the margin certifies entanglement", _outcome(w_v1), ENT),
        Fixture("three_mode.generic_1_abc_det", "determinant over (1, abc), mode a vs modes b, c",
                _witness(w_generic, "det"), -0.25, 1e-12),
        Fixture("three_mode.generic_1_abc_outcome", "the (1, abc) determinant detects",
                _outcome(w_generic), ENT),
        Fixture("ghz.variant2_boundary", "GHZ sits exactly on the strict-inequality boundary",
                lambda: ghz_v2().boundary, True),
        Fixture("ghz.variant2_outcome", "the boundary is inconclusive", _outcome(ghz_v2), INC),
        Fixture("ghz.variant2_n_a_times_n_b_n_c", "<N_a><N_b N_c>",
                _witness(ghz_v2, "n_a_times_n_b_n_c"), 0.25, 1e-12),
        Fixture("ghz.variant2_abs_sq_a_b_c", "|<a b c>|^2",
                _witness(ghz_v2, "abs_sq_a_b_c"), 0.25, 1e-12),
        Fixture("ghz.generic_a_bc_matrix", "[[<N_a>, <a (bc)^PT>], [.., <N_b N_c>]] over (a, bc)",
                _witness(ghz_generic, "matrix"), np.full((2, 2), 0.5, dtype=complex), 1e-12),
        Fixture("ghz.generic_a_bc_outcome", "GHZ saturates the (a, bc) determinant",
                _outcome(ghz_generic), INC),
        Fixture("ghz.generic_a_bc_boundary", "det = 0 is flagged as boundary",
                lambda: ghz_generic().boundary, True),
    ]
    return rows


def _matches(expected, actual, tol: float) -> bool:
    """Whether actual reproduces expected; the kind of comparison follows expected."""
    if isinstance(expected, (bool, Outcome)):
        return bool(actual == expected)
    if isinstance(expected, np.ndarray):
        actual = np.asarray(actual)
        return actual.shape == expected.shape and bool(np.max(np.abs(actual - expected)) < tol)
    return bool(abs(actual - expected) < tol)


def check(fixture: Fixture) -> FixtureResult:
    """Compute one row and compare it with its pinned value."""
    try:
        actual = fixture.compute()
        passed, error = _matches(fixture.expected, actual, fixture.tol), None
    except Exception as exc:  # surfaced per fixture, batch continues
        actual, passed, error = None, False, f"{type(exc).__name__}: {exc}"
    return FixtureResult(fixture.fixture_id, fixture.description, passed, fixture.expected,
                         actual, fixture.tol, error)


def run_regression_suite(expected_overrides: dict | None = None) -> RegressionReport:
    """Check every row; ``expected_overrides`` substitutes expected values by
    fixture id (used to self-test that the harness can actually fail)."""
    overrides = expected_overrides or {}
    rows = [dataclasses.replace(f, expected=overrides.get(f.fixture_id, f.expected)) for f in fixtures()]
    return RegressionReport([check(f) for f in rows], norm_ordering_records())


def norm_ordering_records(extra_random: int = 20, seed: int = 7) -> list[dict]:
    """Monitored observation: nu_gamma >= nu_realign - 1e-9 across the battery.

    Returns one record per state/class pair; ``ok=False`` rows are
    counterexamples to the conjectured ordering and are reported, never
    asserted.
    """
    battery = [
        states.singlet(),
        states.bell_phi_plus(),
        states.partial_example2(),
        states.cat_prime(0.3, 0.2),
        states.cat_double_prime(0.3, 0.2),
        states.product_coherent(0.4, 0.1),
        states.fock((1, 1)),
    ]
    rng = np.random.default_rng(seed)
    for _ in range(extra_random // 2):
        battery.append(random_pure_state(rng, (2, 2)))
        battery.append(random_density(rng, (2, 2)))
    classes = [
        _std_class(),
        OperatorClass.from_strings(["1", "a", "Aa"], ["1", "b", "Bb"]),
    ]
    records = []
    for state in battery:
        for cls in classes:
            m = build_moment_matrix(state, cls)
            g, r = nu_gamma(m), nu_realign(m)
            records.append(
                {
                    "state": getattr(state, "label", "state"),
                    "class": cls.describe(),
                    "nu_gamma": g,
                    "nu_realign": r,
                    "ok": bool(g >= r - 1e-9),
                }
            )
    return records
