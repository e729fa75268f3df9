"""Independent oracles used to freeze expected values, kept separate from the
code paths they check, helpers that only tests use, and a traced-allocation
probe."""

import base64
import itertools
import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from momentcrit.errors import DimensionError, MissingMomentError, SeriesDivergenceError
from momentcrit.fock import DensityMatrix, ModeCutoffs, Monomial, StateVector
from momentcrit.moments import (
    OperatorClass,
    TableSource,
    _gram_moments,
    moment,
    normal_order,
    op_expectation,
    principal_submatrix,
)
from momentcrit.posmaps import PositiveMap, gell_mann_generators
from momentcrit.regression import fixtures


def pinned(fixture_id: str):
    """The expected value of one row of the pinned-value table."""
    return {f.fixture_id: f for f in fixtures()}[fixture_id].expected


def coherent_overlap(b1: complex, b2: complex) -> complex:
    """<b1|b2> = exp(-|b1|^2/2 - |b2|^2/2 + conj(b1) b2) for coherent states."""
    return np.exp(-abs(b1) ** 2 / 2 - abs(b2) ** 2 / 2 + np.conj(b1) * b2)


def coherent_monomial_moment(coeffs, alpha_sets, powers) -> complex:
    """Moment of a normally ordered monomial on a coherent superposition.

    Uses <b1| a^dag^n a^m |b2> = conj(b1)^n b2^m <b1|b2> per mode, summed over
    all cross terms of sum_s c_s |alphas_s> and normalized by the norm.
    """
    num = 0j
    den = 0j
    for cs, als in zip(coeffs, alpha_sets):
        for ct, alt in zip(coeffs, alpha_sets):
            overlap = 1.0 + 0j
            full = 1.0 + 0j
            for (n, m), b1, b2 in zip(powers, als, alt):
                o = coherent_overlap(b1, b2)
                overlap *= o
                full *= np.conj(b1) ** n * b2 ** m * o
            num += np.conj(cs) * ct * full
            den += np.conj(cs) * ct * overlap
    return num / den


# -- operators, indices and factorizations only the tests need -------------------


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian operator on the truncated space; no positivity or trace demand.

    Used where moments of a non-state operator are needed, e.g. the partial
    transpose of a density matrix; the moment engine reads it as it reads a
    density matrix, memo of Gram matrices included.
    """

    cutoffs: ModeCutoffs
    matrix: np.ndarray
    label: str = "operator"
    exact: bool = True
    _grams: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.cutoffs.total_dimension
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} does not match dimension {d}")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
            raise ValueError("operator is not Hermitian within 1e-10")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def num_modes(self) -> int:
        return self.cutoffs.num_modes


def partial_transpose_fock(
    matrix: np.ndarray, cutoffs: ModeCutoffs, modes: tuple[int, ...]
) -> np.ndarray:
    """Partial transpose of an operator in the Fock basis over the given modes."""
    m = cutoffs.num_modes
    if any(q < 0 or q >= m for q in modes):
        raise DimensionError("partial-transpose modes out of range")
    tensor = matrix.reshape(cutoffs.cutoffs + cutoffs.cutoffs)
    axes = list(range(2 * m))
    for q in modes:
        axes[q], axes[m + q] = axes[m + q], axes[q]
    d = cutoffs.total_dimension
    return tensor.transpose(axes).reshape(d, d)


def conjugated_on(op: Monomial, modes: tuple[int, ...]) -> Monomial:
    """Swap creation/annihilation powers on the listed modes (transpose there)."""
    return Monomial(
        tuple((m, n) if q in modes else (n, m) for q, (n, m) in enumerate(op.powers))
    )


def flatten_index(k: int, l: int, d_a: int, d_b: int | None = None) -> int:
    """1-based flat index i = (l-1)*d_A + k of the side pair (k, l)."""
    if not 1 <= k <= d_a:
        raise IndexError(f"side-A index {k} out of range 1..{d_a}")
    if l < 1 or (d_b is not None and l > d_b):
        raise IndexError(f"side-B index {l} out of range")
    return (l - 1) * d_a + k


def _project_side(ops: tuple[Monomial, ...], modes: tuple[int, ...]) -> tuple[Monomial, ...]:
    """Rewrite side monomials as monomials on the side's own modes only."""
    return tuple(Monomial(tuple(op.powers[q] for q in modes)) for op in ops)


def product_state_factorization(state_a, state_b, cls: OperatorClass) -> np.ndarray:
    """Reference kron factorization M^B (x) M^A for a product state rho_A (x) rho_B.

    With the A-fastest flattening, M[(l,k),(l',k')] = M^A_{kk'} M^B_{ll'}
    becomes the Kronecker product with the B factor on the slow side.
    The factor states live on the side modes alone.
    """
    ma = _gram_moments(state_a, _project_side(cls.side_a, cls.modes_a))
    mb = _gram_moments(state_b, _project_side(cls.side_b, cls.modes_b))
    return np.kron(mb, ma)


def complete_table(state, max_power: int) -> TableSource:
    """Every moment with creation and annihilation powers below max_power per mode."""
    per_mode = list(itertools.product(range(max_power), repeat=2))
    specs = [Monomial(p) for p in itertools.product(per_mode, repeat=state.num_modes)]
    return TableSource({spec: moment(state, spec) for spec in specs}, state.num_modes, "table")


def _same_kind(state, amplitudes, matrix, cutoffs):
    """The state of the same kind carrying the given amplitude map and cutoffs."""
    if isinstance(state, StateVector):
        return StateVector(ModeCutoffs(cutoffs), amplitudes(state.amplitudes))
    return DensityMatrix(ModeCutoffs(cutoffs), matrix(state.matrix))


def rotate_phases(state, phases):
    """psi -> exp(-i sum_q phases[q] n_q) psi, and rho -> U rho U^dag alike."""
    cuts = state.cutoffs.cutoffs
    u = np.exp(-1j * (np.asarray(phases) @ np.indices(cuts).reshape(len(cuts), -1)))
    return _same_kind(state, lambda psi: u * psi, lambda rho: u[:, None] * rho * u.conj(), cuts)


def permute_modes(state, perm):
    """The state whose mode k is mode perm[k] of ``state``."""
    cuts = state.cutoffs.cutoffs
    d, both = state.cutoffs.total_dimension, tuple(perm) + tuple(len(cuts) + p for p in perm)
    return _same_kind(
        state,
        lambda psi: psi.reshape(cuts).transpose(perm).reshape(-1),
        lambda rho: rho.reshape(cuts + cuts).transpose(both).reshape(d, d),
        tuple(cuts[p] for p in perm),
    )


# -- brute-force index maps -------------------------------------------------------


def brute_realignment(matrix: np.ndarray, d_slow: int, d_fast: int) -> np.ndarray:
    """Element-by-element realignment map, written as explicit index loops."""
    out = np.zeros((d_slow * d_slow, d_fast * d_fast), dtype=complex)
    for s in range(d_slow):
        for f in range(d_fast):
            for sp in range(d_slow):
                for fp in range(d_fast):
                    out[s * d_slow + sp, f * d_fast + fp] = matrix[
                        s * d_fast + f, sp * d_fast + fp
                    ]
    return out


def brute_factor_transpose(
    matrix: np.ndarray, d_slow: int, d_fast: int, factor: str
) -> np.ndarray:
    """Element-by-element single-factor transpose, written as explicit loops."""
    out = np.zeros_like(np.asarray(matrix, dtype=complex))
    for s in range(d_slow):
        for f in range(d_fast):
            for sp in range(d_slow):
                for fp in range(d_fast):
                    if factor == "fast":
                        out[s * d_fast + f, sp * d_fast + fp] = matrix[
                            s * d_fast + fp, sp * d_fast + f
                        ]
                    else:
                        out[s * d_fast + f, sp * d_fast + fp] = matrix[
                            sp * d_fast + f, s * d_fast + fp
                        ]
    return out


def choi_apply(p, a: np.ndarray) -> np.ndarray:
    """Diagonal-type map on a 3x3 matrix: -A plus a cyclic diagonal recombination."""
    a = np.asarray(a, dtype=complex)
    d = np.array(
        [
            p.alpha * a[0, 0] + p.beta * a[1, 1] + p.gamma * a[2, 2],
            p.gamma * a[0, 0] + p.alpha * a[1, 1] + p.beta * a[2, 2],
            p.beta * a[0, 0] + p.gamma * a[1, 1] + p.alpha * a[2, 2],
        ]
    )
    return -a + np.diag(d)


def kossakowski_apply(p, a: np.ndarray) -> np.ndarray:
    """(I/n) Tr A + g . (R x) / (n - 1) with x_i = Tr(A g_i)."""
    a = np.asarray(a, dtype=complex)
    gens = gell_mann_generators(p.n)
    coeffs = p.rotation @ np.array([np.trace(a @ g) for g in gens])
    out = np.eye(p.n, dtype=complex) * np.trace(a) / p.n
    for c, g in zip(coeffs, gens):
        out = out + c * g / (p.n - 1)
    return out


def breuer_apply(p, a: np.ndarray) -> np.ndarray:
    """I Tr A - A - U A^T U^dag."""
    a = np.asarray(a, dtype=complex)
    theta = p.unitary @ a.T @ p.unitary.conj().T
    return np.eye(p.d, dtype=complex) * np.trace(a) - a - theta


def blockwise_apply_partial(entries: np.ndarray, apply, side: str, dims) -> np.ndarray:
    """Apply a map block by block to one tensor factor, one Python call per block."""
    d_a, d_b = dims
    four = np.asarray(entries, dtype=complex).reshape(d_b, d_a, d_b, d_a)
    out = np.empty_like(four)
    if side == "A":
        for l in range(d_b):
            for lp in range(d_b):
                out[l, :, lp, :] = apply(four[l, :, lp, :])
    else:
        for k in range(d_a):
            for kp in range(d_a):
                out[:, k, :, kp] = apply(four[:, k, :, kp])
    return out.reshape(d_a * d_b, d_a * d_b)


def identity_map(dim: int) -> PositiveMap:
    return PositiveMap(f"identity({dim})", dim, np.eye(dim * dim))


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random special orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return z @ z.conj().T


# -- dense ladder operators on a zero-padded space ------------------------------


def ladder_matrices(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated annihilation/creation matrices: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        a[n - 1, n] = math.sqrt(n)
    return a, a.conj().T


def monomial_matrix(spec: Monomial, cutoffs: ModeCutoffs) -> np.ndarray:
    """Dense matrix of the monomial on the truncated multi-mode space."""
    out = np.eye(1, dtype=complex)
    for (n, m), c in zip(spec.powers, cutoffs.cutoffs):
        a, adag = ladder_matrices(c)
        factor = np.linalg.matrix_power(adag, n) @ np.linalg.matrix_power(a, m)
        out = np.kron(out, factor)
    return out


def pad_vector(amplitudes: np.ndarray, old: ModeCutoffs, new: ModeCutoffs) -> np.ndarray:
    out = np.zeros(new.cutoffs, dtype=complex)
    out[tuple(slice(0, c) for c in old.cutoffs)] = amplitudes.reshape(old.cutoffs)
    return out.reshape(-1)


def pad_matrix(matrix: np.ndarray, old: ModeCutoffs, new: ModeCutoffs) -> np.ndarray:
    out = np.zeros(new.cutoffs + new.cutoffs, dtype=complex)
    out[tuple(slice(0, c) for c in old.cutoffs + old.cutoffs)] = matrix.reshape(
        old.cutoffs + old.cutoffs
    )
    d = new.total_dimension
    return out.reshape(d, d)


def dense_gram(state, ops) -> np.ndarray:
    """<ops_i^dag ops_j> from dense operators on the state padded by the largest
    creation plus the largest annihilation power per mode, where no product
    reaches the truncation."""
    old = state.cutoffs
    new = ModeCutoffs(
        tuple(
            c + max(op.powers[q][0] for op in ops) + max(op.powers[q][1] for op in ops)
            for q, c in enumerate(old.cutoffs)
        ),
        cap=10**9,
    )
    mats = [monomial_matrix(op, new) for op in ops]
    if isinstance(state, StateVector):
        phis = np.array([m @ pad_vector(state.amplitudes, old, new) for m in mats])
        return phis.conj() @ phis.T
    rho = pad_matrix(state.matrix, old, new)
    right = [m @ rho for m in mats]
    # Tr(F_i^dag F_j rho) = sum conj(F_i) * (F_j rho), entrywise
    return np.array([[np.vdot(fi, fj_rho) for fj_rho in right] for fi in mats])


def dense_moment(state, spec: Monomial) -> complex:
    """<spec> as Tr(spec rho) on the padded space."""
    one = Monomial.identity(spec.num_modes)
    return complex(dense_gram(state, (one, spec))[0, 1])


def per_term_expectation(source, factors) -> complex:
    """<factors[0] factors[1] ...> summed over the normally ordered terms one at a time.

    A term's moment is ``dense_moment`` on a state, and on a table its entry or the
    conjugate of its adjoint's entry; one MissingMomentError names every term the
    table lacks.
    """
    if not factors:
        return 1.0 + 0.0j
    terms = normal_order(tuple(factors))
    if not isinstance(source, TableSource):
        return complex(sum(c * dense_moment(source, spec) for c, spec in terms))
    table = source.table
    missing = {s.to_string() for _, s in terms if s not in table and s.dagger() not in table}
    if missing:
        raise MissingMomentError(sorted(missing))
    return complex(sum(c * (table[s] if s in table else table[s.dagger()].conjugate())
                       for c, s in terms))


def per_entry_hermitian(source, n: int, pair) -> np.ndarray:
    """Hermitian matrix of ``per_term_expectation(source, pair(i, j))``, entry by entry for
    i <= j; one MissingMomentError names the terms missing from every entry."""
    out = np.empty((n, n), dtype=complex)
    missing: set[str] = set()
    for i in range(n):
        for j in range(i, n):
            try:
                out[i, j] = per_term_expectation(source, pair(i, j))
            except MissingMomentError as err:
                missing.update(err.missing)
            out[j, i] = np.conj(out[i, j])
    if missing:
        raise MissingMomentError(sorted(missing))
    return out


def loop_sylvester_scan(
    m: np.ndarray, max_minor_size: int = 4, r_list=None
) -> tuple[float, tuple[int, ...] | None]:
    """(smallest principal minor, its 1-based rows): one det per minor, in candidate order.

    The first strict minimum wins, so a NaN or +inf determinant is never chosen.
    """
    size = m.shape[0]
    if r_list is None:
        candidates = [
            r
            for k in range(1, min(max_minor_size, size) + 1)
            for r in itertools.combinations(range(1, size + 1), k)
        ]
    else:
        candidates = [tuple(int(x) for x in r) for r in r_list]
    worst_det = np.inf
    worst_r = None
    for r in candidates:
        det = float(np.linalg.det(principal_submatrix(m, r)).real)
        if det < worst_det:
            worst_det, worst_r = det, r
    return worst_det, worst_r


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- the density series summed element by element, one moment per term -----------


def series_density_element(source, m1, m2, dims) -> complex:
    """<m1| rho |m2> = sum_j prod_q (-1)^j_q / (j_q! sqrt(m1_q! m2_q!)) <a^dag^(m2+j) a^(m1+j)>.

    Each term queries one moment through ``per_term_expectation``.  A line of
    terms along one mode's j, the other indices fixed, that grows or stays level
    (relative margin 1e-6) over five consecutive steps raises SeriesDivergenceError.
    """
    ranges = [range(d - max(x1, x2)) for x1, x2, d in zip(m1, m2, dims)]
    prefactor = 1.0
    for x1, x2 in zip(m1, m2):
        prefactor /= math.sqrt(math.factorial(x1) * math.factorial(x2))
    total = 0j
    lines: dict[tuple, list[float]] = {}
    for js in itertools.product(*ranges):
        coeff = prefactor
        for j in js:
            coeff *= (-1) ** j / math.factorial(j)
        spec = Monomial(tuple((x2 + j, x1 + j) for x1, x2, j in zip(m1, m2, js)))
        term = coeff * per_term_expectation(source, (spec,))
        total += term
        for axis in range(len(js)):
            key = (axis,) + js[:axis] + js[axis + 1:]
            lines.setdefault(key, []).append(abs(term))
    for sequence in lines.values():
        run = 0
        for prev, cur in zip(sequence, sequence[1:]):
            run = run + 1 if prev > 0 and cur >= prev * (1.0 - 1e-6) else 0
            if run >= 5:
                raise SeriesDivergenceError("moment series shows no decay")
    return total


def series_density(source, dims) -> np.ndarray:
    """The unvalidated matrix of ``series_density_element`` over every pair of occupations."""
    occupations = list(itertools.product(*map(range, dims)))
    return np.array([[series_density_element(source, m1, m2, dims) for m2 in occupations]
                     for m1 in occupations])


def explicit_pt_gram(state, cls) -> np.ndarray:
    """<ops_i^dag ops_j> of a generic class on the explicitly partially transposed state.

    The density matrix (|psi><psi| for a pure state) is transposed on the
    class's B modes in the Fock basis and read through ``dense_gram``.
    """
    rho = state.density().matrix if isinstance(state, StateVector) else state.matrix
    pt = HermitianOperator(state.cutoffs, partial_transpose_fock(rho, state.cutoffs, cls.modes_b))
    return dense_gram(pt, cls.ops)


# -- the number-correlation inequalities written out as moment formulas ------------


def _ev(state, *texts: str) -> complex:
    """Expectation of the product of monomials given in the compact letter form."""
    return op_expectation(state, tuple(Monomial.from_string(t, state.num_modes) for t in texts))


def _letters(modes) -> str:
    return "".join("abcdefghijklmnopqrstuvwxyz"[q] for q in modes)


def hz_two_mode_formula(state, modes=(0, 1)) -> dict:
    """Witness of ``hz_two_mode``: <N_a N_b> - |<a b^dag>|^2 and <N_a><N_b> - |<a b>|^2."""
    la, lb = _letters(modes)
    n_ab = _ev(state, la.upper() + la + lb.upper() + lb).real
    ab_dag = _ev(state, la + lb.upper())
    n_a = _ev(state, la.upper() + la).real
    n_b = _ev(state, lb.upper() + lb).real
    ab = _ev(state, la + lb)
    return {
        "det": n_ab - abs(ab_dag) ** 2,
        "n_a_n_b": n_ab,
        "abs_sq_a_bdag": abs(ab_dag) ** 2,
        "product_margin": n_a * n_b - abs(ab) ** 2,
        "n_a_times_n_b": n_a * n_b,
        "abs_sq_ab": abs(ab) ** 2,
    }


def hz_three_mode_formula(state, variant, modes=(0, 1, 2)) -> dict:
    """Witness of ``hz_three_mode``: <N_a N_b N_c> - |<a^dag b c>|^2 (variant 1)
    or <N_a><N_b N_c> - |<a b c>|^2 (variant 2)."""
    la, lb, lc = _letters(modes)
    if variant == 1:
        lhs = _ev(state, la.upper() + la + lb.upper() + lb + lc.upper() + lc).real
        amp = _ev(state, la.upper() + lb + lc)
        names = ("n_a_n_b_n_c", "abs_sq_adag_b_c")
    else:
        lhs = _ev(state, la.upper() + la).real * _ev(state, lb.upper() + lb + lc.upper() + lc).real
        amp = _ev(state, la + lb + lc)
        names = ("n_a_times_n_b_n_c", "abs_sq_a_b_c")
    return {"margin": lhs - abs(amp) ** 2, names[0]: lhs, names[1]: abs(amp) ** 2}


def jsonify_array_elementwise(value: np.ndarray) -> list:
    """A witness array as report JSON, one element at a time: complex entries as
    [re, im] pairs, rows of ``np.atleast_2d``.  The reference for ``cli._jsonify``."""
    if np.iscomplexobj(value):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(value)]
    return [[float(x) for x in row] for row in np.atleast_2d(value)]


# -- structured reports -------------------------------------------------------------


def partial_transpose_b_rule(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """The report's view rule: out[(k,l),(k',l')] = m[(k,l'),(k',l)], row (k, l) at
    l * d_a + k."""
    k, l = np.arange(d_a * d_b) % d_a, np.arange(d_a * d_b) // d_a
    return np.asarray(m)[k[:, None] + d_a * l[None, :], k[None, :] + d_a * l[:, None]]


def decode_array(entry: dict) -> np.ndarray:
    """One entry of a report's ``arrays`` table as the array it was written from."""
    return np.frombuffer(base64.b64decode(entry["base64"]), entry["dtype"]).reshape(entry["shape"])


def resolve_report(report: dict) -> dict:
    """The report with every array reference replaced by the array it names (a view
    resolved by its rule) and without the ``arrays`` table: the inline form, with
    ndarrays where a witness holds an array."""
    arrays = [decode_array(entry) for entry in report["arrays"]]
    out = {k: v for k, v in report.items() if k != "arrays"}
    out["verdicts"] = []
    for rec in report["verdicts"]:
        rec = dict(rec)
        if "witness" in rec:
            rec["witness"] = {k: _resolved(arrays, v) for k, v in rec["witness"].items()}
        out["verdicts"].append(rec)
    return out


def _resolved(arrays: list, value):
    if not (isinstance(value, dict) and "array" in value):
        return value
    base = arrays[value["array"]]
    if "view" not in value:
        return base
    assert value["view"] == "partial_transpose_B", f"unknown view {value['view']!r}"
    return partial_transpose_b_rule(base, value["d_a"], value["d_b"])


def _class_dims(provenance: dict) -> tuple[int, int]:
    """(d_a, d_b) of a tensor class recorded as "(ops,...)x(ops,...)"."""
    side_a, side_b = provenance["class"][1:-1].split(")x(")
    return len(side_a.split(",")), len(side_b.split(","))


def _normalized_trace_norm(matrix: np.ndarray, m: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(matrix, compute_uv=False)) / np.trace(m).real)


# scalar witness key -> (key of the matrix it is read from, recompute(matrix, provenance))
_RECHECKS = {
    "min_eigenvalue": ("matrix", lambda m, p: float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])),
    "min_principal_minor": ("submatrix", lambda m, p: float(np.linalg.det(m).real)),
    "nu_gamma": ("moment_matrix", lambda m, p: _normalized_trace_norm(
        partial_transpose_b_rule(m, *_class_dims(p)), m)),
    "nu_realign": ("moment_matrix", lambda m, p: _normalized_trace_norm(
        brute_realignment(m, *_class_dims(p)[::-1]), m)),
}
# the value a verdict decides on: the first of these keys its witness has
_DECISION_KEYS = ("min_eigenvalue", "min_principal_minor", "nu_gamma", "nu_realign",
                  "trace_norm", "det", "margin")
_NORM_KEYS = {"nu_gamma", "nu_realign", "trace_norm"}


def recheck(report: dict) -> int:
    """Recheck a structured report from the report alone; return the number of
    witnesses recomputed.

    Refs and views are resolved, each scalar witness that one of ``_RECHECKS``
    covers is recomputed from its recorded matrix (within rounding, scaled by the
    matrix), and the threshold is reapplied to the decision value with the recorded
    ``tol``: the outcome and the boundary flag must follow.  AssertionError names
    the first record that disagrees.
    """
    recomputed = 0
    for i, rec in enumerate(resolve_report(report)["verdicts"]):
        if rec["outcome"] == "ERROR":
            continue
        where = f"record {i} ({rec['criterion']})"
        w, tol, threshold = rec["witness"], rec["tol"], rec["threshold"]
        for key, (source, recompute) in _RECHECKS.items():
            if key not in w or w.get("r", ()) is None:  # a scan with no finite minor
                continue
            m = w[source]
            value = recompute(m, rec["provenance"])
            scale = max(1.0, float(np.max(np.abs(m))) * len(m))
            assert abs(value - w[key]) <= 1e-9 * scale, f"{where}: {key} {w[key]!r}, recomputed {value!r}"
            recomputed += 1
        key = next((k for k in _DECISION_KEYS if k in w), None)
        value = w[key] if key else min(v for k, v in w.items() if k.startswith("det_"))
        if key in _NORM_KEYS:
            entangled, boundary = value > threshold + tol, abs(value - threshold) <= tol
        else:
            entangled = value < threshold - tol
            boundary = not entangled and abs(value - threshold) <= tol
        assert (rec["outcome"] == "ENTANGLED") == entangled, f"{where}: {rec['outcome']} for {value!r}"
        assert rec["boundary"] == boundary, f"{where}: boundary {rec['boundary']} for {value!r}"
    return recomputed

