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

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import DimensionError
from .fock import Monomial, State
from .moments import (
    GenericClass,
    MomentMatrix,
    OperatorClass,
    _checked_rows,
    build_generic_moment_matrix,
    build_moment_matrix,
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
from .reorder import build_pt_moment_matrix, nu_gamma, nu_realign, partial_transpose

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
    #: witness key -> (view name, base array, view params) where witness[key] is that
    #: view of base; a report writes base once and the view as a reference to it
    views: dict = field(default_factory=dict)

    @property
    def entangled(self) -> bool:
        return self.outcome is Outcome.ENTANGLED


def resolve_tol(state: State | None, tol: float | None) -> float:
    """The verdict tolerance: ``tol`` itself, else the default for the state.

    A negative or non-finite ``tol`` raises ValueError: it would turn boundary
    values into ENTANGLED verdicts, or every verdict into INCONCLUSIVE.
    """
    if tol is not None:
        tol = float(tol)
        if not math.isfinite(tol) or tol < 0:
            raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
        return tol
    if state is not None and not getattr(state, "exact", True):
        return TOL_COHERENT
    return TOL_EXACT


def _negativity_verdict(
    value: float, tol: float, criterion: str, witness: dict, provenance: dict | None
) -> Verdict:
    """ENTANGLED iff value < -tol; boundary flags |value| <= tol.  The threshold is 0."""
    entangled = value < -tol
    return Verdict(
        criterion=criterion,
        outcome=Outcome.ENTANGLED if entangled else Outcome.INCONCLUSIVE,
        witness=witness,
        threshold=0.0,
        tol=tol,
        boundary=not entangled and abs(value) <= tol,
        provenance=provenance or {},
    )


def _norm_verdict(
    value: float, tol: float, criterion: str, witness: dict, provenance: dict
) -> Verdict:
    """ENTANGLED iff value > 1 + tol; boundary flags |value - 1| <= tol.  The threshold is 1."""
    return Verdict(
        criterion=criterion,
        outcome=Outcome.ENTANGLED if value > 1.0 + tol else Outcome.INCONCLUSIVE,
        witness=witness,
        threshold=1.0,
        tol=tol,
        boundary=abs(value - 1.0) <= tol,
        provenance=provenance,
    )


def _hermitian(matrix: np.ndarray | MomentMatrix, caller: str) -> np.ndarray:
    """The entries of a moment matrix or array, refused unless Hermitian within 1e-8."""
    m = matrix.entries if hasattr(matrix, "entries") else np.asarray(matrix, dtype=complex)
    if np.max(np.abs(m - m.conj().T)) > 1e-8:
        raise ValueError(f"{caller} expects a Hermitian matrix")
    return m


def min_eig_test(
    matrix: np.ndarray | MomentMatrix,
    tol: float = TOL_EXACT,
    criterion: str = "min_eig",
    provenance: dict | None = None,
) -> Verdict:
    """ENTANGLED iff the minimum eigenvalue of a Hermitian witness is < -tol."""
    m = _hermitian(matrix, "min_eig_test")
    lam = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    witness = {"min_eigenvalue": lam, "matrix": m}
    return _negativity_verdict(lam, tol, criterion, witness, provenance)


def check_scan_budget(size: int, max_minor_size: int) -> None:
    """ValueError if a full scan of ``size`` rows up to ``max_minor_size`` would
    take more than ``MINOR_SCAN_BUDGET`` minors."""
    count = sum(math.comb(size, k) for k in range(1, min(max_minor_size, size) + 1))
    if count > MINOR_SCAN_BUDGET:
        raise ValueError(
            f"a scan of {size} rows up to size {max_minor_size} has {count} minors, "
            f"above the budget of {MINOR_SCAN_BUDGET}; pass r_list or lower max_minor_size"
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
    exponential, so the default size stays small).  A ``max_minor_size``
    below 1 or an empty ``r_list`` raises ValueError: it would scan nothing.
    """
    m = _hermitian(matrix, "sylvester_scan")
    if max_minor_size < 1 or (r_list is not None and not r_list):
        raise ValueError(
            f"a scan needs max_minor_size >= 1 and a nonempty r_list, got {max_minor_size} "
            f"and {r_list}"
        )
    size = m.shape[0]
    # runs of equal-size candidates in candidate order, as 0-based index rows
    if r_list is None:
        check_scan_budget(size, max_minor_size)
        sizes = range(1, min(max_minor_size, size) + 1)
        runs = (np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(size), k)),
                            np.intp).reshape(-1, k) for k in sizes)
    else:
        rows = [_checked_rows(r, size) for r in r_list]  # IndexError on a malformed entry
        runs = (np.array(list(run), np.intp) - 1 for _, run in itertools.groupby(rows, len))
    # the first strict minimum in candidate order; NaN and +inf never qualify
    worst_det, worst_idx = np.inf, None
    for idx in runs:
        dets = np.linalg.det(m[idx[:, :, None], idx[:, None, :]]).real
        j = int(np.argmin(np.where(dets < np.inf, dets, np.inf)))
        if dets[j] < worst_det:
            worst_det, worst_idx = float(dets[j]), idx[j]
    return _negativity_verdict(
        worst_det, tol,
        criterion=criterion,
        witness={
            "min_principal_minor": worst_det,
            "r": None if worst_idx is None else tuple(int(x) + 1 for x in worst_idx),
            "submatrix": m if worst_idx is None else m[np.ix_(worst_idx, worst_idx)],
        },
        provenance=provenance,
    )


def pt_min_eig_test(state: State, cls: OperatorClass, tol: float | None = None) -> Verdict:
    """Minimum eigenvalue of the moment matrix of the partially transposed state.

    The witness matrix is M^Gamma = partial_transpose(M, "B") of the state's own
    moment matrix M, and the verdict declares it as that view of M.
    """
    tol = resolve_tol(state, tol)
    m = build_moment_matrix(state, cls)
    verdict = min_eig_test(
        partial_transpose(m, "B"),
        tol=tol,
        criterion="pt_min_eig",
        provenance={"class": cls.describe(), "state": getattr(state, "label", "state")},
    )
    view = ("partial_transpose_B", m.entries, {"d_a": m.d_a, "d_b": m.d_b})
    return replace(verdict, views={"matrix": view})


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


def _norm_test(
    criterion: str, key: str, norm, state: State, cls: OperatorClass, tol: float | None
) -> Verdict:
    """ENTANGLED iff norm(M), a normalized trace norm of the one build M, exceeds 1 + tol."""
    tol = resolve_tol(state, tol)
    m = build_moment_matrix(state, cls)
    value = norm(m)
    return _norm_verdict(
        value, tol, criterion, {key: value, "moment_matrix": m.entries},
        {"class": cls.describe(), "state": getattr(state, "label", "state")},
    )


def pt_norm_test(state: State, cls: OperatorClass, tol: float | None = None) -> Verdict:
    """ENTANGLED iff the normalized PT trace norm exceeds 1 + tol."""
    return _norm_test("pt_norm", "nu_gamma", nu_gamma, state, cls, tol)


def realign_norm_test(state: State, cls: OperatorClass, tol: float | None = None) -> Verdict:
    """ENTANGLED iff the normalized realignment trace norm exceeds 1 + tol."""
    return _norm_test("realign_norm", "nu_realign", nu_realign, state, cls, tol)


def generic_pt_det_test(
    state: State,
    cls: GenericClass,
    r: tuple[int, ...] | None = None,
    tol: float | None = None,
    criterion: str = "generic_pt_det",
) -> Verdict:
    """Determinant of the generic moment matrix on the PT state."""
    tol = resolve_tol(state, tol)
    m = build_generic_moment_matrix(state, cls)
    sub = principal_submatrix(m, r) if r is not None else m.entries
    det = float(np.linalg.det(sub).real)
    return _negativity_verdict(
        det, tol,
        criterion=criterion,
        witness={"det": det, "matrix": sub},
        provenance={"class": cls.describe(), "state": getattr(state, "label", "state"), "r": r},
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
    sub = principal_submatrix(transformed, r) if r is not None else transformed
    sub_h = (sub + sub.conj().T) / 2
    lam = float(np.linalg.eigvalsh(sub_h)[0])
    det = float(np.linalg.det(sub).real)
    return _negativity_verdict(
        lam, tol,
        criterion="map",
        witness={"min_eigenvalue": lam, "det": det, "matrix": sub},
        provenance={
            "class": cls.describe(),
            "state": getattr(state, "label", "state"),
            "map": pmap.name,
            "side": side,
            "r": r,
        },
    )


# -- named moment inequalities --------------------------------------------------


def _ev(state: State, *texts: str) -> complex:
    """Expectation of the product of monomials given in the compact letter form."""
    return op_expectation(state, tuple(Monomial.from_string(t, state.num_modes) for t in texts))


def _letters(modes: tuple[int, ...]) -> str:
    return "".join("abcdefghijklmnopqrstuvwxyz"[q] for q in modes)


def _check_modes(state: State, modes: tuple[int, ...], count: int, criterion: str) -> None:
    distinct = len(modes) == len(set(modes)) == count
    if not distinct or not set(modes) <= set(range(state.num_modes)):
        raise DimensionError(
            f"{criterion} needs {count} distinct modes of the state, "
            f"got {tuple(modes)} on a {state.num_modes}-mode state"
        )


@functools.lru_cache(maxsize=256)
def _preset_class(ops: tuple[str, str], modes: tuple[int, ...], num_modes: int) -> GenericClass:
    return GenericClass.from_strings(list(ops), modes[:1], modes[1:], num_modes)


def _cauchy_schwarz(state: State, modes: tuple[int, ...], ops: tuple[str, str]):
    """(m00, m11, |m01|^2, det) of the 2x2 generic PT matrix over ``ops``.

    The bipartition is modes[0] versus the other listed modes.  A negative
    determinant m00 m11 - |m01|^2 violates the Cauchy-Schwarz inequality that
    every separable state obeys.
    """
    cls = _preset_class(ops, tuple(modes), state.num_modes)
    m = build_generic_moment_matrix(state, cls).entries
    m00, m11, off = float(m[0, 0].real), float(m[1, 1].real), float(abs(m[0, 1]) ** 2)
    return m00, m11, off, m00 * m11 - off


def hz_two_mode(
    state: State, modes: tuple[int, int] = (0, 1), tol: float | None = None
) -> Verdict:
    """Two-mode number-correlation inequality, a 2x2 PT determinant.

    ENTANGLED iff <N_a N_b> < |<a b^dag>|^2 - tol: the determinant of the
    generic PT matrix over (1, ab).  The companion product condition
    <N_a><N_b> < |<a b>|^2, the determinant over (a, b), is recorded in the
    witness as well.
    """
    _check_modes(state, modes, 2, "hz_two_mode")
    tol = resolve_tol(state, tol)
    la, lb = _letters(modes)
    _, n_ab, ab_dag, det = _cauchy_schwarz(state, modes, ("1", la + lb))
    n_a, n_b, ab, product_margin = _cauchy_schwarz(state, modes, (la, lb))
    return _negativity_verdict(
        det, tol,
        criterion="hz_two_mode",
        witness={
            "det": det,
            "n_a_n_b": n_ab,
            "abs_sq_a_bdag": ab_dag,
            "product_margin": product_margin,
            "n_a_times_n_b": n_a * n_b,
            "abs_sq_ab": ab,
        },
        provenance={"modes": modes, "state": getattr(state, "label", "state")},
    )


def hz_three_mode(
    state: State,
    variant: int = 1,
    modes: tuple[int, int, int] = (0, 1, 2),
    tol: float | None = None,
) -> Verdict:
    """Three-mode number-correlation inequalities, 2x2 PT determinants.

    variant 1: ENTANGLED iff <N_a N_b N_c> < |<a^dag b c>|^2 - tol, over (1, abc).
    variant 2: ENTANGLED iff <N_a><N_b N_c> < |<a b c>|^2 - tol, over (a, bc).
    Mode a is partially transposed against b and c.  Equality within tol is
    INCONCLUSIVE with the boundary flag set; the inequalities are strict.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    _check_modes(state, modes, 3, "hz_three_mode")
    tol = resolve_tol(state, tol)
    la, lb, lc = _letters(modes)
    if variant == 1:
        _, n_abc, rhs, margin = _cauchy_schwarz(state, modes, ("1", la + lb + lc))
        witness = {"margin": margin, "n_a_n_b_n_c": n_abc, "abs_sq_adag_b_c": rhs}
    else:
        n_a, n_bc, rhs, margin = _cauchy_schwarz(state, modes, (la, lb + lc))
        witness = {"margin": margin, "n_a_times_n_b_n_c": n_a * n_bc, "abs_sq_a_b_c": rhs}
    return _negativity_verdict(
        margin, tol,
        criterion=f"hz_three_mode_v{variant}",
        witness=witness,
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
    _check_modes(state, modes, 2, "breuer_inequality")
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
    return _negativity_verdict(
        det, tol,
        criterion="breuer_inequality",
        witness={"det": det, "lhs": lhs, "rhs": rhs, "matrix": matrix},
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
    return _negativity_verdict(
        worst, tol,
        criterion="breuer_bell",
        witness={
            "det_f1": dets["f1"],
            "det_f2": dets["f2"],
            "matrix_f1": mats["f1"],
            "matrix_f2": mats["f2"],
        },
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
