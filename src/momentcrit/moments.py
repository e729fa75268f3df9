"""Moments <f_i^dag f_j> and finite moment matrices with bipartite structure.

Index convention, fixed package-wide: a tensor-product operator class with
sides (f^A_1, ..., f^A_dA) and (f^B_1, ..., f^B_dB) flattens to the single
ordered list

    (f^A_1 f^B_1, f^A_2 f^B_1, ..., f^A_dA f^B_1, f^A_1 f^B_2, ...),

i.e. 1-based flat index i = (l-1) * d_A + k with the A-side index k varying
fastest.  For the two-mode class (1, a) x (1, b) this is the row order
(1, a, b, ab).  The worked 3x3 and 2x2 witness patterns reproduced by the
regression suite hold in exactly this ordering, with partial maps acting on
the fast (A) factor; see reorder.py and posmaps.py.

Truncation-leakage policy: on the Fock basis every ladder monomial is a
weighted shift, (a^dag)^n a^m |k> = c(k) |k-m+n>, so a Fock state is read
through per-op shift tables (``shift_tables``) that act exactly on the
state's support.  Each mode's output space grows by the largest creation
power of the class, so no image is cut off and nothing is padded: all
finite-excitation fixtures are exact and coherent states converge with the
deficit-controlled cutoff.

A batch of operator products is C @ v: ``_ordering_map`` normal-orders it into
exact coefficients C over its distinct terms, and ``_expectations`` fills their
moments v by lookup on a ``TableSource`` or from one memoised Gram matrix on a
state.  A table's moment matrices are one such batch; a state's use shift tables.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InconsistentMomentsError, MissingMomentError
from .fock import MOMENT_WORKING_CAP, Monomial, State, StateVector

_HERMITICITY_TOL = 1e-10


def _check_class(ops, modes_a, modes_b) -> None:
    """Every monomial acts on the same number of modes, and the bipartition is valid."""
    num_modes = ops[0].num_modes
    if any(op.num_modes != num_modes for op in ops):
        raise DimensionError("all monomials must act on the same number of modes")
    if not modes_a or not modes_b:
        raise DimensionError("both sides of the bipartition must be nonempty")
    if set(modes_a) & set(modes_b):
        raise DimensionError("bipartition sides must be disjoint")
    if any(q < 0 or q >= num_modes for q in modes_a + modes_b):
        raise DimensionError("bipartition refers to modes outside the state")


@dataclass(frozen=True)
class OperatorClass:
    """Tensor-product operator class: ordered monomial lists per side.

    Duplicate entries are legitimate and kept verbatim; they produce repeated
    rows/columns, which some map-based witnesses rely on.
    """

    side_a: tuple[Monomial, ...]
    side_b: tuple[Monomial, ...]
    modes_a: tuple[int, ...] = (0,)
    modes_b: tuple[int, ...] = (1,)

    def __post_init__(self):
        object.__setattr__(self, "side_a", tuple(self.side_a))
        object.__setattr__(self, "side_b", tuple(self.side_b))
        object.__setattr__(self, "modes_a", tuple(self.modes_a))
        object.__setattr__(self, "modes_b", tuple(self.modes_b))
        if not self.side_a or not self.side_b:
            raise DimensionError("each side needs at least one monomial")
        _check_class(self.side_a + self.side_b, self.modes_a, self.modes_b)
        for op in self.side_a:
            if not set(op.support) <= set(self.modes_a):
                raise DimensionError(f"side-A monomial {op.to_string()} leaves side-A modes")
        for op in self.side_b:
            if not set(op.support) <= set(self.modes_b):
                raise DimensionError(f"side-B monomial {op.to_string()} leaves side-B modes")

    @property
    def num_modes(self) -> int:
        return self.side_a[0].num_modes

    @property
    def d_a(self) -> int:
        return len(self.side_a)

    @property
    def d_b(self) -> int:
        return len(self.side_b)

    @functools.lru_cache(maxsize=256)
    def flat_ops(self) -> tuple[Monomial, ...]:
        """Flattened operator list, A-side index fastest."""
        return tuple(
            fa.merged_with(fb) for fb in self.side_b for fa in self.side_a
        )

    @classmethod
    def from_strings(
        cls,
        side_a: list[str],
        side_b: list[str],
        modes_a: tuple[int, ...] = (0,),
        modes_b: tuple[int, ...] = (1,),
        num_modes: int | None = None,
    ) -> "OperatorClass":
        if num_modes is None:
            num_modes = max(tuple(modes_a) + tuple(modes_b)) + 1
        return cls(
            tuple(Monomial.from_string(s, num_modes) for s in side_a),
            tuple(Monomial.from_string(s, num_modes) for s in side_b),
            tuple(modes_a),
            tuple(modes_b),
        )

    def describe(self) -> str:
        sa = ",".join(op.to_string() for op in self.side_a)
        sb = ",".join(op.to_string() for op in self.side_b)
        return f"({sa})x({sb})"


@dataclass(frozen=True)
class GenericClass:
    """Ordered monomial list without tensor structure, plus a bipartition.

    The bipartition names the B modes that build_generic_moment_matrix
    partially transposes.
    """

    ops: tuple[Monomial, ...]
    modes_a: tuple[int, ...] = (0,)
    modes_b: tuple[int, ...] = (1,)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "modes_a", tuple(self.modes_a))
        object.__setattr__(self, "modes_b", tuple(self.modes_b))
        if not self.ops:
            raise DimensionError("a generic class needs at least one monomial")
        _check_class(self.ops, self.modes_a, self.modes_b)
        for op in self.ops:
            if not set(op.support) <= set(self.modes_a) | set(self.modes_b):
                raise DimensionError("monomial support leaves the declared bipartition")

    @property
    def num_modes(self) -> int:
        return self.ops[0].num_modes

    @property
    def size(self) -> int:
        return len(self.ops)

    @classmethod
    def from_strings(
        cls,
        ops: list[str],
        modes_a: tuple[int, ...] = (0,),
        modes_b: tuple[int, ...] = (1,),
        num_modes: int | None = None,
    ) -> "GenericClass":
        if num_modes is None:
            num_modes = max(tuple(modes_a) + tuple(modes_b)) + 1
        return cls(
            tuple(Monomial.from_string(s, num_modes) for s in ops),
            tuple(modes_a),
            tuple(modes_b),
        )

    def describe(self) -> str:
        return "(" + ",".join(op.to_string() for op in self.ops) + ")"


@dataclass(frozen=True)
class MomentMatrix:
    """Hermitian matrix of moments M_ij = <f_i^dag f_j> over a flattened class.

    ``d_a``/``d_b`` are the side sizes of a tensor class, None for a generic one.
    """

    entries: np.ndarray
    d_a: int | None = None
    d_b: int | None = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("moment matrix must be square")
        if self.d_a is not None and m.shape[0] != self.d_a * self.d_b:
            raise DimensionError("entries do not match d_a * d_b")
        if np.max(np.abs(m - m.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("moment matrix is not Hermitian within 1e-10")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


_REAL_TYPES = (int, float, np.integer, np.floating)


def _complex_from(raw) -> complex:
    """A number, or an [re, im] pair of real numbers as a config writes it, as a complex.

    Booleans, which complex() reads as 0 and 1, and strings, which it parses, are refused.
    """
    if isinstance(raw, list) and len(raw) == 2:
        re, im = raw
        if isinstance(re, _REAL_TYPES) and isinstance(im, _REAL_TYPES) and bool not in (
                type(re), type(im)):
            return complex(re, im)
    elif isinstance(raw, (*_REAL_TYPES, complex, np.complexfloating)) and type(raw) is not bool:
        return complex(raw)
    raise TypeError(f"expected a number or [re, im] pair, got {raw!r}")


class TableSource:
    """Moment source backed by an explicit table {Monomial: value}.

    The table is read in one pass.  A key is a ``Monomial`` or its letter string
    (``Monomial.from_string``), in any letter order, and two keys that name one
    monomial are refused.  A value is a number or an [re, im] pair; every value must
    be finite, and conjugate consistency is validated: whenever a spec and its
    adjoint both appear, their values must be complex conjugates within 1e-10.
    ``table`` keeps the listed values; a lookup also answers each listed spec's
    adjoint.  ``dims`` optionally records the per-mode dimensions of the measured
    state, which reconstruction needs and never infers.
    """

    def __init__(self, table: dict, num_modes: int, label: str = "table", dims=None):
        self.num_modes = int(num_modes)
        self.label = label
        self.dims = None if dims is None else tuple(int(d) for d in dims)
        self._grams: dict[tuple[Monomial, ...], np.ndarray] = {}  # see _gram_moments
        self.table: dict[Monomial, complex] = {}
        self._lookup: dict[Monomial, complex] = {}  # listed values and their adjoints'
        spelled = {}
        for key, raw in table.items():
            spec = Monomial.from_string(key, self.num_modes) if isinstance(key, str) else key
            if spec in spelled:
                raise ValueError(f"keys {spelled[spec]!r} and {key!r} name one monomial, "
                                 f"{spec.to_string()}")
            spelled[spec] = key
            value = _complex_from(raw)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise InconsistentMomentsError(
                    f"moment table value for {spec.to_string()} is not finite: {value}"
                )
            adjoint = spec.dagger()
            partner = value if adjoint == spec else self.table.get(adjoint)
            if partner is not None and abs(partner - value.conjugate()) > 1e-10:
                raise InconsistentMomentsError(
                    f"table values for {adjoint.to_string()} and its adjoint are not conjugate"
                )
            self.table[spec] = self._lookup[spec] = value
            self._lookup.setdefault(adjoint, value.conjugate())

    def moment(self, spec: Monomial) -> complex:
        """<spec> by lookup, from the adjoint's value when only that is listed."""
        return self._lookup[spec]


def moment(source: State | TableSource, spec: Monomial) -> complex:
    """Single moment <spec>: a batch of one product."""
    return op_expectation(source, (spec,))


def normal_order(factors: tuple[Monomial, ...]) -> list[tuple[int, Monomial]]:
    """Expand the product factors[0] factors[1] ... into normally ordered terms.

    Modes commute, so each mode is ordered on its own with
    a^m (a^dag)^n = sum_k C(m,k) C(n,k) k! (a^dag)^(n-k) a^(m-k); terms are
    products of the per-mode expansions, with exact integer coefficients.
    """
    per_mode = []
    for q in range(factors[0].num_modes):
        terms = {(0, 0): 1}
        for factor in factors:
            p, r = factor[q]
            grown: dict[tuple[int, int], int] = {}
            for (n, m), c in terms.items():
                for k in range(min(m, p) + 1):
                    key = (n + p - k, m - k + r)
                    weight = math.comb(m, k) * math.comb(p, k) * math.factorial(k)
                    grown[key] = grown.get(key, 0) + c * weight
            terms = grown
        per_mode.append(terms.items())
    return [
        (math.prod(c for _, c in combo), Monomial._unchecked([powers for powers, _ in combo]))
        for combo in itertools.product(*per_mode)
    ]


@functools.lru_cache(maxsize=256)
def _ordering_map(products: tuple[tuple[Monomial, ...], ...]):
    """Normal ordering of a batch: <products[k]> sums coef * <specs[term]> over the k-th run
    of terms, which begins at starts[k] (C @ v with C sparse).  For a state, <specs[s]> is
    G[rows[s], cols[s]] with G the Gram matrix of ``ann``, as (a^dag)^n a^m = (a^n)^dag a^m.
    """
    column: dict[Monomial, int] = {}
    starts, term, coef = [], [], []
    for factors in products:
        starts.append(len(term))
        for c, spec in normal_order(factors):
            term.append(column.setdefault(spec, len(column)))
            coef.append(float(c))
    ann: dict[Monomial, int] = {}
    rows = [ann.setdefault(Monomial._unchecked([(0, n) for n, _ in s]), len(ann)) for s in column]
    cols = [ann.setdefault(Monomial._unchecked([(0, m) for _, m in s]), len(ann)) for s in column]
    return tuple(column), tuple(ann), tuple(map(np.array, (starts, term, coef, rows, cols)))


def _expectations(source: State | TableSource, products) -> np.ndarray:
    """<products[k]> for every k: a table looks the moments up once one MissingMomentError
    has named every term it lacks, a state reads them off one memoised Gram matrix."""
    specs, ann, (starts, term, coef, rows, cols) = _ordering_map(products)
    if isinstance(source, TableSource):
        if missing := {s.to_string() for s in specs if s not in source._lookup}:
            raise MissingMomentError(sorted(missing))
        values = np.array([source.moment(s) for s in specs])
    else:
        values = _gram_moments(source, ann)[rows, cols]
    return np.add.reduceat(coef * values[term], starts)


def op_expectation(source: State | TableSource, factors: tuple[Monomial, ...]) -> complex:
    """Expectation of the operator product factors[0] factors[1] ...: a batch of one."""
    if not factors:
        return 1.0 + 0.0j
    if any(f.num_modes != source.num_modes for f in factors):
        raise DimensionError("monomial and source disagree on the number of modes")
    return complex(_expectations(source, (tuple(factors),))[0])


def _hermitian_batch(source: TableSource, n: int, pair) -> np.ndarray:
    """Hermitian n x n matrix of <pair(i, j)>: one batch over i <= j, mirrored below."""
    i, j = zip(*itertools.combinations_with_replacement(range(n), 2))  # np.triu_indices(n)
    upper = np.zeros((n, n), dtype=complex)
    upper[i, j] = _expectations(source, tuple(map(pair, i, j)))
    return upper + np.triu(upper, 1).conj().T


def shift_tables(
    ops: tuple[Monomial, ...], cutoffs: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Every op as a weighted shift of the Fock basis: (src, weight), each n x D_out.

    Mode q of the output space keeps occupations 0 .. cutoffs[q] + N_q - 1,
    N_q the largest creation power of mode q among ``ops``, so every image of
    a basis ket is kept.  For output ket x (flat, last mode fastest) row i
    gives ``F_i |src[i, x]> = weight[i, x] |x>``, or src -1 and weight 0
    where no ket of the state's space maps to x.  A weight is the product of
    sqrt(j + s) over the steps from the intermediate occupation j = x - n up
    to x and up to the source j + m: no factorial or lgamma is formed, so a
    weight is a few roundings from exact at any occupation.  Classes whose
    n * D_out exceeds ``MOMENT_WORKING_CAP`` are refused before any allocation.
    """
    d_out = math.prod(c + max(op.powers[q][0] for op in ops) for q, c in enumerate(cutoffs))
    if len(ops) * d_out > MOMENT_WORKING_CAP:
        raise DimensionError(
            f"{len(ops)} rows on {d_out} output kets need {len(ops) * d_out} table entries, "
            f"above the working budget of {MOMENT_WORKING_CAP}"
        )
    src = np.zeros((len(ops), 1), dtype=np.intp)
    weight = np.ones((len(ops), 1))
    for q, cutoff in enumerate(cutoffs):
        n = np.array([op.powers[q][0] for op in ops])[:, None]
        m = np.array([op.powers[q][1] for op in ops])[:, None]
        j = np.arange(cutoff + n.max()) - n
        live = (j >= 0) & (j + m < cutoff)
        j = np.where(live, j, 0)
        w = live.astype(float)
        for s in range(1, max(n.max(), m.max()) + 1):
            root = np.sqrt(j + s)
            w *= np.where(s <= n, root, 1.0) * np.where(s <= m, root, 1.0)
        src = (src[:, :, None] * cutoff + (j + m)[:, None, :]).reshape(len(ops), -1)
        weight = (weight[:, :, None] * w[:, None, :]).reshape(len(ops), -1)
    return np.where(weight > 0, src, -1), weight


def _gram_moments(source: State | TableSource, ops: tuple[Monomial, ...]) -> np.ndarray:
    """Matrix of <ops_i^dag ops_j>, computed once per op tuple and kept read-only on the source.

    Sources are immutable, so the memo never goes stale; it lives as long as the source.
    A table lookup that fails raises before anything is stored.
    """
    gram = source._grams.get(ops)
    if gram is None:
        gram = _compute_gram(source, ops)
        gram.flags.writeable = False
        source._grams[ops] = gram
    return gram


def _compute_gram(source: State | TableSource, ops: tuple[Monomial, ...]) -> np.ndarray:
    """Matrix of <ops_i^dag ops_j>: one batch on a table, shift tables on a state's own basis."""
    n = len(ops)
    if isinstance(source, TableSource):
        adjoints = [op.dagger() for op in ops]
        return _hermitian_batch(source, n, lambda i, j: (adjoints[i], ops[j]))
    src, weight = shift_tables(ops, source.cutoffs.cutoffs)
    # src -1 reads the last entry, which a zero weight cancels
    if isinstance(source, StateVector):
        phi = weight * source.amplitudes[src]  # phi[i, x] = <x|F_i|psi>
        upper = np.triu(np.conj(phi) @ phi.T)
    else:
        # Tr(F_j rho F_i^dag) = sum_x w_i[x] w_j[x] rho[src_j[x], src_i[x]], one row i at a
        # time, so no n^2 x D_out array is formed
        rho = source.matrix
        upper = np.zeros((n, n), dtype=complex)
        for i in range(n):
            upper[i, i:] = np.einsum("jx,jx->j", weight[i:] * weight[i], rho[src[i:], src[i]])
    return upper + np.triu(upper, 1).conj().T


def build_moment_matrix(state: State | TableSource, cls: OperatorClass) -> MomentMatrix:
    """Moment matrix over the flattened tensor-product class."""
    if cls.num_modes != state.num_modes:
        raise DimensionError("operator class and state disagree on the number of modes")
    return MomentMatrix(_gram_moments(state, cls.flat_ops()), cls.d_a, cls.d_b)


@functools.lru_cache(maxsize=256)
def _pt_products(cls: GenericClass) -> tuple[tuple[Monomial, ...], np.ndarray]:
    """The distinct products A_k B_l of a generic class, and idx[i, j], the position of A_i B_j."""
    a_parts = [op.restricted_to(cls.modes_a) for op in cls.ops]
    b_parts = [op.restricted_to(cls.modes_b) for op in cls.ops]
    distinct_a, distinct_b = list(dict.fromkeys(a_parts)), list(dict.fromkeys(b_parts))
    products = tuple(a.merged_with(b) for b in distinct_b for a in distinct_a)
    idx = (np.array([distinct_a.index(a) for a in a_parts])[:, None]
           + len(distinct_a) * np.array([distinct_b.index(b) for b in b_parts]))
    idx.flags.writeable = False
    return products, idx


def build_generic_moment_matrix(state: State | TableSource, cls: GenericClass) -> MomentMatrix:
    """Moment matrix over a generic class on the partially transposed state.

    Entry (i, j) = < (A_i B_j)^dag (A_j B_i) >, where A/B restrict each
    monomial to its bipartition side: the B-mode parts of the row and column
    monomials are exchanged inside each product.  Taking a submatrix of the
    plain moment matrix and transposing it afterwards is NOT equivalent for
    non-tensor classes.  Every entry is an entry of the Gram matrix of the
    distinct products A_k B_l, which a state computes in one shift-table
    pass; a table answers the entries on and above the diagonal in one batch.
    """
    if cls.num_modes != state.num_modes:
        raise DimensionError("operator class and state disagree on the number of modes")
    products, idx = _pt_products(cls)
    if isinstance(state, TableSource):
        adjoints, at = [p.dagger() for p in products], idx.tolist()
        entries = _hermitian_batch(
            state, cls.size, lambda i, j: (adjoints[at[i][j]], products[at[j][i]]))
    else:
        entries = _gram_moments(state, products)[idx, idx.T]
    return MomentMatrix(entries)


def _checked_rows(r, size: int) -> tuple[int, ...]:
    """r as ints, once it is a nonempty, strictly increasing list of 1-based rows of size."""
    r = tuple(int(x) for x in r)
    if not (r and r[0] >= 1 and r[-1] <= size and all(a < b for a, b in zip(r, r[1:]))):
        raise IndexError(f"rows {list(r)} must be strictly increasing within 1..{size}")
    return r


def principal_submatrix(
    matrix: np.ndarray | MomentMatrix,
    r: tuple[int, ...],
) -> np.ndarray:
    """Principal submatrix keeping the 1-based rows/columns listed in r."""
    m = matrix.entries if hasattr(matrix, "entries") else np.asarray(matrix)
    idx = [x - 1 for x in _checked_rows(r, m.shape[0])]
    return m[np.ix_(idx, idx)]
