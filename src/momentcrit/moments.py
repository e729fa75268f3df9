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

This module is the only place a moment is evaluated: a Fock state through
its shift tables, a measured ``TableSource`` by lookup.  Operator products
are normally ordered first, so both feed every criterion and the
reconstruction alike.
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


def _check_bipartition(modes_a, modes_b, num_modes):
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
        num_modes = self.side_a[0].num_modes
        if any(op.num_modes != num_modes for op in self.side_a + self.side_b):
            raise DimensionError("all monomials must act on the same number of modes")
        _check_bipartition(self.modes_a, self.modes_b, num_modes)
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
        num_modes = self.ops[0].num_modes
        if any(op.num_modes != num_modes for op in self.ops):
            raise DimensionError("all monomials must act on the same number of modes")
        _check_bipartition(self.modes_a, self.modes_b, num_modes)
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


class TableSource:
    """Moment source backed by an explicit table {Monomial: value}.

    Every value must be finite, and conjugate consistency is validated:
    whenever a spec and its adjoint both appear, their values must be complex
    conjugates within 1e-10.  ``dims`` optionally records the per-mode
    dimensions of the measured state, which reconstruction needs and never
    infers.
    """

    def __init__(
        self, table: dict[Monomial, complex], num_modes: int, label: str = "table", dims=None
    ):
        self.table = {spec: complex(v) for spec, v in table.items()}
        self.num_modes = int(num_modes)
        self.label = label
        self.dims = None if dims is None else tuple(int(d) for d in dims)
        self._grams: dict[tuple[Monomial, ...], np.ndarray] = {}  # see _gram_moments
        for spec, value in self.table.items():
            if not np.isfinite(value):
                raise InconsistentMomentsError(
                    f"moment table value for {spec.to_string()} is not finite: {value}"
                )
            partner = self.table.get(spec.dagger())
            if partner is not None and abs(partner - value.conjugate()) > 1e-10:
                raise InconsistentMomentsError(
                    f"table values for {spec.to_string()} and its adjoint are not conjugate"
                )

    def moment(self, spec: Monomial) -> complex:
        if spec in self.table:
            return self.table[spec]
        self.require((spec,))
        return self.table[spec.dagger()].conjugate()

    def require(self, specs) -> None:
        """Raise one MissingMomentError naming every spec the table cannot answer."""
        missing = {
            spec.to_string()
            for spec in specs
            if spec not in self.table and spec.dagger() not in self.table
        }
        if missing:
            raise MissingMomentError(sorted(missing))


def moment(source: State | TableSource, spec: Monomial) -> complex:
    """Single moment <spec>: a table lookup, or one entry of a two-row Gram matrix."""
    if spec.num_modes != source.num_modes:
        raise DimensionError("monomial and source disagree on the number of modes")
    if isinstance(source, TableSource):
        return source.moment(spec)
    # <(a^dag)^n a^m> = <(a^n)^dag a^m>: both factors only annihilate, so this costs O(D)
    left = Monomial(tuple((0, n) for n, _ in spec.powers))
    right = Monomial(tuple((0, m) for _, m in spec.powers))
    return complex(_gram_moments(source, (left, right))[0, 1])


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
            p, r = factor.powers[q]
            grown: dict[tuple[int, int], int] = {}
            for (n, m), c in terms.items():
                for k in range(min(m, p) + 1):
                    key = (n + p - k, m - k + r)
                    weight = math.comb(m, k) * math.comb(p, k) * math.factorial(k)
                    grown[key] = grown.get(key, 0) + c * weight
            terms = grown
        per_mode.append(terms.items())
    return [
        (math.prod(c for _, c in combo), Monomial(tuple(powers for powers, _ in combo)))
        for combo in itertools.product(*per_mode)
    ]


def op_expectation(source: State | TableSource, factors: tuple[Monomial, ...]) -> complex:
    """Expectation of the operator product factors[0] factors[1] ... on the source.

    The product is normally ordered and each term is one moment, so states
    and tables answer alike; a table names all the terms it lacks at once.
    """
    if not factors:
        return 1.0 + 0.0j
    if any(f.num_modes != source.num_modes for f in factors):
        raise DimensionError("monomial and source disagree on the number of modes")
    terms = normal_order(factors)
    if isinstance(source, TableSource):
        source.require(spec for _, spec in terms)
    return complex(sum(c * moment(source, spec) for c, spec in terms))


def _hermitian_from(n: int, entry) -> np.ndarray:
    """Hermitian matrix from entry(i, j), i <= j; all missing table moments are named at once."""
    out = np.empty((n, n), dtype=complex)
    missing: list[str] = []
    for i in range(n):
        for j in range(i, n):
            try:
                out[i, j] = entry(i, j)
            except MissingMomentError as err:
                missing += err.missing
            out[j, i] = np.conj(out[i, j])
    if missing:
        raise MissingMomentError(sorted(set(missing)))
    return out


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
    """Matrix of <ops_i^dag ops_j>; shift tables on the state's own basis for states."""
    n = len(ops)
    if isinstance(source, TableSource):
        return _hermitian_from(n, lambda i, j: op_expectation(source, (ops[i].dagger(), ops[j])))
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
    pass; a table is asked for the upper-triangle entries only.
    """
    if cls.num_modes != state.num_modes:
        raise DimensionError("operator class and state disagree on the number of modes")
    products, idx = _pt_products(cls)
    if isinstance(state, TableSource):
        entries = _hermitian_from(cls.size, lambda i, j: op_expectation(
            state, (products[idx[i, j]].dagger(), products[idx[j, i]])))
    else:
        entries = _gram_moments(state, products)[idx, idx.T]
    return MomentMatrix(entries)


def principal_submatrix(
    matrix: np.ndarray | MomentMatrix,
    r: tuple[int, ...],
) -> np.ndarray:
    """Principal submatrix keeping the 1-based rows/columns listed in r."""
    m = matrix.entries if hasattr(matrix, "entries") else np.asarray(matrix)
    size = m.shape[0]
    r = tuple(int(x) for x in r)
    if not r:
        raise IndexError("index list r must be nonempty")
    if any(x < 1 or x > size for x in r):
        raise IndexError(f"indices {r} out of range 1..{size}")
    if any(b <= a for a, b in zip(r, r[1:])):
        raise IndexError(f"indices {r} must be strictly increasing")
    idx = [x - 1 for x in r]
    return m[np.ix_(idx, idx)]
