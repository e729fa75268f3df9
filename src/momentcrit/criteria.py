"""Entanglement verdicts from moment matrices.

Every criterion here is one-sided: ENTANGLED is returned only when a witness
strictly violates its threshold beyond tolerance, and the non-detection
outcome is always INCONCLUSIVE, never "separable".  (State-level PPT on 2x2
and 2x3 reconstructions is the single exception and lives in reconstruct.py.)

Default tolerances: 1e-9 for exact finite-excitation states and 1e-6 for
truncated coherent inputs, which carry truncation error on top of arithmetic
noise.  Each verdict records the witness values, threshold and the tolerance
actually used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionError
from .fock import Monomial, State
from .moments import (
    GenericClass,
    MomentMatrix,
    OperatorClass,
    build_generic_moment_matrix,
    build_moment_matrix,
    build_pt_moment_matrix,
    op_expectation,
    principal_submatrix,
)
from .posmaps import (
    BreuerParams,
    PositiveMap,
    apply_partial,
    breuer_antidiagonal_unitary,
    breuer_map,
)
from .reorder import nu_gamma, nu_realign

TOL_EXACT = 1e-9
TOL_COHERENT = 1e-6
#: Largest number of principal minors a full Sylvester scan may enumerate.
MINOR_SCAN_BUDGET = 100_000


class Outcome(str, Enum):
    ENTANGLED = "ENTANGLED"
    INCONCLUSIVE = "INCONCLUSIVE"
    SEPARABLE = "SEPARABLE"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one criterion together with everything needed to recheck it."""

    criterion: str
    outcome: Outcome
    witness: dict
    threshold: float
    tol: float
    boundary: bool = False
    provenance: dict = field(default_factory=dict)

    @property
    def entangled(self) -> bool:
        return self.outcome is Outcome.ENTANGLED


def resolve_tol(state: State | None, tol: float | None) -> float:
    if tol is not None:
        return float(tol)
    if state is not None and not getattr(state, "exact", True):
        return TOL_COHERENT
    return TOL_EXACT


def _negativity_outcome(value: float, tol: float) -> tuple[Outcome, bool]:
    """ENTANGLED iff value < -tol; boundary flags |value| <= tol."""
    if value < -tol:
        return Outcome.ENTANGLED, False
    return Outcome.INCONCLUSIVE, abs(value) <= tol


def min_eig_test(
    matrix: np.ndarray | MomentMatrix,
    tol: float = TOL_EXACT,
    criterion: str = "min_eig",
    provenance: dict | None = None,
) -> Verdict:
    """ENTANGLED iff the minimum eigenvalue of a Hermitian witness is < -tol."""
    m = matrix.entries if hasattr(matrix, "entries") else np.asarray(matrix, dtype=complex)
    if np.max(np.abs(m - m.conj().T)) > 1e-8:
        raise ValueError("min_eig_test expects a Hermitian matrix")
    lam = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    outcome, boundary = _negativity_outcome(lam, tol)
    return Verdict(
        criterion=criterion,
        outcome=outcome,
        witness={"min_eigenvalue": lam, "matrix": m},
        threshold=0.0,
        tol=tol,
        boundary=boundary,
        provenance=provenance or {},
    )


def sylvester_scan(
    matrix: np.ndarray | MomentMatrix,
    max_minor_size: int = 4,
    r_list: list[tuple[int, ...]] | None = None,
    tol: float = TOL_EXACT,
    criterion: str = "sylvester",
    provenance: dict | None = None,
) -> Verdict:
    """Scan principal minors; ENTANGLED iff some det is < -tol.

    With ``r_list`` only the listed index sets are evaluated; otherwise every
    principal minor up to ``max_minor_size`` is enumerated (the full scan is
    exponential, so the default size stays small).
    """
    m = matrix.entries if hasattr(matrix, "entries") else np.asarray(matrix, dtype=complex)
    if np.max(np.abs(m - m.conj().T)) > 1e-8:
        raise ValueError("sylvester_scan expects a Hermitian matrix")
    size = m.shape[0]
    if r_list is None:
        count = sum(math.comb(size, k) for k in range(1, min(max_minor_size, size) + 1))
        if count > MINOR_SCAN_BUDGET:
            raise ValueError(
                f"a scan of {size} rows up to size {max_minor_size} has {count} minors, "
                f"above the budget of {MINOR_SCAN_BUDGET}; pass r_list or lower max_minor_size"
            )
        candidates = [
            r
            for k in range(1, min(max_minor_size, size) + 1)
            for r in itertools.combinations(range(1, size + 1), k)
        ]
    else:
        candidates = [tuple(int(x) for x in r) for r in r_list]
    worst_det = np.inf
    worst_r: tuple[int, ...] | None = None
    for r in candidates:
        det = float(np.linalg.det(principal_submatrix(m, r)).real)
        if det < worst_det:
            worst_det, worst_r = det, r
    outcome, boundary = _negativity_outcome(worst_det, tol)
    return Verdict(
        criterion=criterion,
        outcome=outcome,
        witness={
            "min_principal_minor": worst_det,
            "r": worst_r,
            "submatrix": principal_submatrix(m, worst_r) if worst_r else m,
        },
        threshold=0.0,
        tol=tol,
        boundary=boundary,
        provenance=provenance or {},
    )


def pt_min_eig_test(state: State, cls: OperatorClass, tol: float | None = None) -> Verdict:
    """Minimum eigenvalue of the moment matrix of the partially transposed state."""
    tol = resolve_tol(state, tol)
    m = build_pt_moment_matrix(state, cls)
    return min_eig_test(
        m,
        tol=tol,
        criterion="pt_min_eig",
        provenance={"class": cls.describe(), "state": getattr(state, "label", "state")},
    )


def pt_sylvester_test(
    state: State,
    cls: OperatorClass,
    r_list: list[tuple[int, ...]] | None = None,
    max_minor_size: int = 4,
    tol: float | None = None,
) -> Verdict:
    """Principal-minor scan of the moment matrix of the partially transposed state."""
    tol = resolve_tol(state, tol)
    m = build_pt_moment_matrix(state, cls)
    return sylvester_scan(
        m,
        max_minor_size=max_minor_size,
        r_list=r_list,
        tol=tol,
        criterion="pt_sylvester",
        provenance={
            "class": cls.describe(),
            "state": getattr(state, "label", "state"),
            "r_list": r_list,
        },
    )


def pt_norm_test(state: State, cls: OperatorClass, tol: float | None = None) -> Verdict:
    """ENTANGLED iff the normalized PT trace norm exceeds 1 + tol."""
    tol = resolve_tol(state, tol)
    m = build_moment_matrix(state, cls)
    value = nu_gamma(state, cls)
    entangled = value > 1.0 + tol
    return Verdict(
        criterion="pt_norm",
        outcome=Outcome.ENTANGLED if entangled else Outcome.INCONCLUSIVE,
        witness={"nu_gamma": value, "moment_matrix": m.entries},
        threshold=1.0,
        tol=tol,
        boundary=abs(value - 1.0) <= tol,
        provenance={"class": cls.describe(), "state": getattr(state, "label", "state")},
    )


def realign_norm_test(state: State, cls: OperatorClass, tol: float | None = None) -> Verdict:
    """ENTANGLED iff the normalized realignment trace norm exceeds 1 + tol."""
    tol = resolve_tol(state, tol)
    m = build_moment_matrix(state, cls)
    value = nu_realign(state, cls)
    entangled = value > 1.0 + tol
    return Verdict(
        criterion="realign_norm",
        outcome=Outcome.ENTANGLED if entangled else Outcome.INCONCLUSIVE,
        witness={"nu_realign": value, "moment_matrix": m.entries},
        threshold=1.0,
        tol=tol,
        boundary=abs(value - 1.0) <= tol,
        provenance={"class": cls.describe(), "state": getattr(state, "label", "state")},
    )


def generic_pt_det_test(
    state: State,
    cls: GenericClass,
    r: tuple[int, ...] | None = None,
    tol: float | None = None,
    criterion: str = "generic_pt_det",
) -> Verdict:
    """Determinant of the generic moment matrix on the PT state (B-conjugated)."""
    tol = resolve_tol(state, tol)
    m = build_generic_moment_matrix(state, cls, conjugate_b_modes=True)
    sub = principal_submatrix(m, r) if r else m.entries
    det = float(np.linalg.det(sub).real)
    outcome, boundary = _negativity_outcome(det, tol)
    return Verdict(
        criterion=criterion,
        outcome=outcome,
        witness={"det": det, "matrix": sub},
        threshold=0.0,
        tol=tol,
        boundary=boundary,
        provenance={
            "class": cls.describe(),
            "state": getattr(state, "label", "state"),
            "r": r,
        },
    )


def map_test(
    state: State,
    cls: OperatorClass,
    pmap: PositiveMap,
    side: str = "A",
    r: tuple[int, ...] | None = None,
    tol: float | None = None,
) -> Verdict:
    """Partially apply a positive map to the moment matrix and test positivity.

    The moment matrix of the state is built first, the map acts on one side
    factor, and negativity of the chosen principal submatrix (the whole
    matrix when r is None) is the witness: ENTANGLED iff its minimum
    eigenvalue is < -tol.  The submatrix determinant is reported alongside.
    """
    tol = resolve_tol(state, tol)
    m = build_moment_matrix(state, cls)
    transformed = apply_partial(m, pmap, side=side)
    sub = principal_submatrix(transformed, r) if r else transformed
    sub_h = (sub + sub.conj().T) / 2
    lam = float(np.linalg.eigvalsh(sub_h)[0])
    det = float(np.linalg.det(sub).real)
    outcome, boundary = _negativity_outcome(lam, tol)
    return Verdict(
        criterion="map",
        outcome=outcome,
        witness={"min_eigenvalue": lam, "det": det, "matrix": sub},
        threshold=0.0,
        tol=tol,
        boundary=boundary,
        provenance={
            "class": cls.describe(),
            "state": getattr(state, "label", "state"),
            "map": pmap.name,
            "side": side,
            "r": r,
        },
    )


# -- named moment-inequality shortcuts ----------------------------------------


def _ev(state: State, *texts: str) -> complex:
    """Expectation of the product of monomials given in the compact letter form."""
    return op_expectation(state, tuple(Monomial.from_string(t, state.num_modes) for t in texts))


def _letters(modes: tuple[int, ...]) -> str:
    return "".join("abcdefghijklmnopqrstuvwxyz"[q] for q in modes)


def _check_modes(state: State, modes: tuple[int, ...], criterion: str) -> None:
    if len(set(modes)) != len(modes) or not set(modes) <= set(range(state.num_modes)):
        raise DimensionError(
            f"{criterion} needs {len(modes)} distinct modes of the state, "
            f"got {tuple(modes)} on a {state.num_modes}-mode state"
        )


def hz_two_mode(
    state: State, modes: tuple[int, int] = (0, 1), tol: float | None = None
) -> Verdict:
    """Two-mode number-correlation inequality.

    ENTANGLED iff <N_a N_b> < |<a b^dag>|^2 - tol, the determinant condition
    on the 2x2 PT moment submatrix of the class (1, ab).  The companion
    product condition <N_a><N_b> < |<a b>|^2 is evaluated and recorded in the
    witness as well.
    """
    _check_modes(state, modes, "hz_two_mode")
    tol = resolve_tol(state, tol)
    la, lb = _letters(modes)
    n_ab = _ev(state, la.upper() + la + lb.upper() + lb).real
    ab_dag = _ev(state, la + lb.upper())
    det = n_ab - abs(ab_dag) ** 2
    n_a = _ev(state, la.upper() + la).real
    n_b = _ev(state, lb.upper() + lb).real
    ab = _ev(state, la + lb)
    product_margin = n_a * n_b - abs(ab) ** 2
    outcome, boundary = _negativity_outcome(det, tol)
    return Verdict(
        criterion="hz_two_mode",
        outcome=outcome,
        witness={
            "det": det,
            "n_a_n_b": n_ab,
            "abs_sq_a_bdag": abs(ab_dag) ** 2,
            "product_margin": product_margin,
            "n_a_times_n_b": n_a * n_b,
            "abs_sq_ab": abs(ab) ** 2,
        },
        threshold=0.0,
        tol=tol,
        boundary=boundary,
        provenance={"modes": modes, "state": getattr(state, "label", "state")},
    )


def hz_three_mode(
    state: State,
    variant: int = 1,
    modes: tuple[int, int, int] = (0, 1, 2),
    tol: float | None = None,
) -> Verdict:
    """Three-mode number-correlation inequalities.

    variant 1: ENTANGLED iff <N_a N_b N_c> < |<a^dag b c>|^2 - tol.
    variant 2: ENTANGLED iff <N_a><N_b N_c> < |<a b c>|^2 - tol.
    Equality within tol is INCONCLUSIVE with the boundary flag set; the
    inequalities are strict.
    """
    _check_modes(state, modes, "hz_three_mode")
    tol = resolve_tol(state, tol)
    la, lb, lc = _letters(modes)
    if variant == 1:
        lhs = _ev(state, la.upper() + la + lb.upper() + lb + lc.upper() + lc).real
        amp = _ev(state, la.upper() + lb + lc)
        names = ("n_a_n_b_n_c", "abs_sq_adag_b_c")
    elif variant == 2:
        lhs = _ev(state, la.upper() + la).real * _ev(state, lb.upper() + lb + lc.upper() + lc).real
        amp = _ev(state, la + lb + lc)
        names = ("n_a_times_n_b_n_c", "abs_sq_a_b_c")
    else:
        raise ValueError("variant must be 1 or 2")
    rhs = abs(amp) ** 2
    margin = lhs - rhs
    outcome, boundary = _negativity_outcome(margin, tol)
    return Verdict(
        criterion=f"hz_three_mode_v{variant}",
        outcome=outcome,
        witness={"margin": margin, names[0]: lhs, names[1]: rhs},
        threshold=0.0,
        tol=tol,
        boundary=boundary,
        provenance={"modes": modes, "variant": variant, "state": getattr(state, "label", "state")},
    )


def breuer_inequality_test(
    state: State, modes: tuple[int, int] = (0, 1), tol: float | None = None
) -> Verdict:
    """Two-mode inequality from the time-reversal map.

    ENTANGLED iff 2(<N_a N_b> + <N_a^2 N_b>) < |<N_a b> + <a^dag b>|^2 - tol,
    the determinant condition on the 2x2 submatrix produced by the partial
    time-reversal map on the redundant class (1,a,Aa,1) x (1,b,Bb,1).
    """
    _check_modes(state, modes, "breuer_inequality")
    tol = resolve_tol(state, tol)
    la, lb = _letters(modes)
    num_a = la.upper() + la
    n_ab = _ev(state, num_a + lb.upper() + lb).real
    n2_ab = _ev(state, num_a, num_a, lb.upper() + lb).real
    off = _ev(state, num_a, lb) + _ev(state, la.upper() + lb)
    lhs = 2 * (n_ab + n2_ab)
    rhs = abs(off) ** 2
    det = lhs - rhs
    matrix = np.array([[2.0, -off], [-np.conj(off), n_ab + n2_ab]], dtype=complex)
    outcome, boundary = _negativity_outcome(det, tol)
    return Verdict(
        criterion="breuer_inequality",
        outcome=outcome,
        witness={"det": det, "lhs": lhs, "rhs": rhs, "matrix": matrix},
        threshold=0.0,
        tol=tol,
        boundary=boundary,
        provenance={"modes": modes, "state": getattr(state, "label", "state")},
    )


def breuer_bell_test(state: State, tol: float | None = None) -> Verdict:
    """Time-reversal map witness on the r = (1, 6, 9) submatrix.

    Evaluates the partially transformed 16x16 moment matrices of the two
    redundant classes (1,a,Aa,aa) x (1,b,Bb,bb) and (1,a,Aa,1) x (1,b,Bb,1)
    with the canonical anti-diagonal unitary; ENTANGLED iff either 3x3
    determinant is < -tol.  Only the first matrix is built: the second class
    repeats the first one's sides (0, 1, 2, 0), so its matrix is a row and
    column selection of the first.
    """
    if state.num_modes != 2:
        raise DimensionError("this witness is defined for two-mode states")
    tol = resolve_tol(state, tol)
    pmap = breuer_map(BreuerParams(4, breuer_antidiagonal_unitary(4)))
    r = (1, 6, 9)
    f1 = build_moment_matrix(
        state, OperatorClass.from_strings(["1", "a", "Aa", "aa"], ["1", "b", "Bb", "bb"])
    ).entries
    # flat row l * 4 + k of side pair (k, l), B side slow
    sides = np.array([0, 1, 2, 0])
    rows = (4 * sides[:, None] + sides).reshape(-1)
    dets = {}
    mats = {}
    for name, entries in (("f1", f1), ("f2", f1[np.ix_(rows, rows)])):
        transformed = apply_partial(entries, pmap, side="A", dims=(4, 4))
        sub = principal_submatrix(transformed, r)
        dets[name] = float(np.linalg.det(sub).real)
        mats[name] = sub
    worst = min(dets.values())
    outcome, boundary = _negativity_outcome(worst, tol)
    return Verdict(
        criterion="breuer_bell",
        outcome=outcome,
        witness={
            "det_f1": dets["f1"],
            "det_f2": dets["f2"],
            "matrix_f1": mats["f1"],
            "matrix_f2": mats["f2"],
        },
        threshold=0.0,
        tol=tol,
        boundary=boundary,
        provenance={"r": r, "map": pmap.name, "side": "A", "state": getattr(state, "label", "state")},
    )


def sv_cat_state_test(state: State, tol: float | None = None) -> Verdict:
    """Determinant witness for two-mode coherent superpositions.

    Uses the generic class (1, b, ab) on the partially transposed state; a
    negative 3x3 determinant certifies entanglement.
    """
    if state.num_modes != 2:
        raise DimensionError("this witness is defined for two-mode states")
    cls = GenericClass.from_strings(["1", "b", "ab"], modes_a=(0,), modes_b=(1,))
    return generic_pt_det_test(state, cls, tol=tol, criterion="sv_cat")


@dataclass(frozen=True)
class Bipartition:
    """Builder for classes over the bipartition {mode j} vs all other modes."""

    num_modes: int
    mode_a: int

    def __post_init__(self):
        if self.num_modes < 2:
            raise DimensionError("a bipartition needs at least two modes")
        if not 0 <= self.mode_a < self.num_modes:
            raise DimensionError("distinguished mode out of range")

    @property
    def modes_a(self) -> tuple[int, ...]:
        return (self.mode_a,)

    @property
    def modes_b(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.num_modes) if q != self.mode_a)

    def tensor_class(self, side_a: list[str], side_b: list[str]) -> OperatorClass:
        return OperatorClass.from_strings(
            side_a, side_b, self.modes_a, self.modes_b, num_modes=self.num_modes
        )

    def generic_class(self, ops: list[str]) -> GenericClass:
        return GenericClass.from_strings(
            ops, self.modes_a, self.modes_b, num_modes=self.num_modes
        )


def multimode_bipartition(state: State, mode_a: int) -> Bipartition:
    """Bipartition of a multimode state into mode ``mode_a`` vs the rest."""
    return Bipartition(state.num_modes, mode_a)
