import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentcrit.cli import RunConfig, analyze_state
from momentcrit.errors import DimensionError
from momentcrit.fock import (
    MOMENT_WORKING_CAP,
    ModeCutoffs,
    Monomial,
    StateVector,
    make_fock_state,
)
from momentcrit.moments import (
    GenericClass,
    OperatorClass,
    build_generic_moment_matrix,
    build_moment_matrix,
    _gram_moments,
    moment,
    op_expectation,
    principal_submatrix,
)
from momentcrit.reorder import build_pt_moment_matrix, partial_transpose
from momentcrit.sampling import random_density, random_product_pure, random_pure_state
from momentcrit import states
from oracles import (
    HermitianOperator,
    dense_gram,
    dense_moment,
    explicit_pt_gram,
    flatten_index,
    partial_transpose_fock,
    pinned,
    product_state_factorization,
    traced_peak,
)

STD = OperatorClass.from_strings(["1", "a"], ["1", "b"])


def test_flatten_index_row_order():
    # (1,a) x (1,b) flattens to (1, a, b, ab): side-A index fastest.
    assert flatten_index(2, 1, 2) == 2
    assert flatten_index(1, 2, 2) == 3
    for d_a in (1, 2, 5):
        assert flatten_index(1, 1, d_a) == 1
    with pytest.raises(IndexError):
        flatten_index(3, 1, 2)
    with pytest.raises(IndexError):
        flatten_index(1, 3, 2, d_b=2)


def test_flat_ops_order_matches_convention():
    ops = [op.to_string() for op in STD.flat_ops()]
    assert ops == ["1", "a", "b", "ab"]


def test_operator_class_validation():
    with pytest.raises(DimensionError):
        OperatorClass.from_strings(["1", "b"], ["1", "b"])  # A side uses mode b
    with pytest.raises(DimensionError):
        OperatorClass(side_a=(), side_b=(Monomial.identity(2),))
    # duplicates are allowed and kept verbatim
    cls = OperatorClass.from_strings(["1", "a", "a"], ["1", "b", "b"])
    assert cls.d_a == cls.d_b == 3


def test_moment_singlet_cross_term():
    assert abs(moment(states.singlet(), Monomial.from_string("Ab", 2)) + 0.5) < 1e-14


def test_moment_vacuum_vanishes_for_nontrivial_specs():
    vac = make_fock_state((0, 0), (2, 2))
    for text in ("a", "A", "Aa", "ab", "AaBb", "Ab"):
        assert moment(vac, Monomial.from_string(text, 2)) == 0


def test_singlet_moment_matrix_values():
    m = build_moment_matrix(states.singlet(), STD)
    np.testing.assert_allclose(m.entries, pinned("singlet.moment_matrix"), atol=1e-14)


def test_partial_state_moment_matrix_values():
    m = build_moment_matrix(states.partial_example2(), STD)
    np.testing.assert_allclose(m.entries, pinned("partial.moment_matrix"), atol=1e-14)


def test_product_state_factorization():
    rng = np.random.default_rng(5)
    cls = OperatorClass.from_strings(["1", "a", "Aa"], ["1", "b"])
    for _ in range(5):
        a = random_pure_state(rng, (3,))
        b = random_pure_state(rng, (2,))
        joint = StateVector(ModeCutoffs((3, 2)), np.kron(a.amplitudes, b.amplitudes))
        m = build_moment_matrix(joint, cls)
        np.testing.assert_allclose(
            m.entries, product_state_factorization(a, b, cls), atol=1e-10
        )


def test_moment_matrix_psd_for_states():
    rng = np.random.default_rng(11)
    cls = OperatorClass.from_strings(["1", "a", "Aa"], ["1", "b", "Bb"])
    for _ in range(25):
        state = random_density(rng, (2, 2)) if rng.random() < 0.5 else random_pure_state(rng, (2, 2))
        m = build_moment_matrix(state, cls)
        assert np.linalg.eigvalsh(m.entries)[0] >= -1e-9
        assert np.max(np.abs(m.entries - m.entries.conj().T)) < 1e-10


def test_generic_matrix_trivial_class():
    g = GenericClass.from_strings(["1"])
    for state in (states.singlet(), states.bell_phi_plus()):
        np.testing.assert_allclose(_gram_moments(state, g.ops), [[1.0]], atol=1e-14)
        m = build_generic_moment_matrix(state, g)
        np.testing.assert_allclose(m.entries, [[1.0]], atol=1e-14)


def test_generic_pt_fixture_values():
    g = GenericClass.from_strings(["1", "ab"])
    m = build_generic_moment_matrix(states.singlet(), g)
    np.testing.assert_allclose(m.entries, [[1, -0.5], [-0.5, 0]], atol=1e-14)
    m2 = build_generic_moment_matrix(states.partial_example2(), g)
    np.testing.assert_allclose(m2.entries, [[1, 1 / 3], [1 / 3, 0]], atol=1e-14)


def test_generic_pt_differs_from_naive_reorderings():
    # For non-tensor classes the PT-state matrix is not a reordering of the
    # plain matrix, and conjugating each monomial separately is wrong too:
    # the B-mode exchange pairs the row and column monomials of each entry.
    g = GenericClass.from_strings(["1", "ab"])
    singlet = states.singlet()
    plain = _gram_moments(singlet, g.ops)
    swapped = build_generic_moment_matrix(singlet, g)
    assert abs(plain[0, 1]) < 1e-14                    # <ab> = 0
    assert abs(swapped.entries[0, 1] + 0.5) < 1e-14    # <a b^dag> = -1/2
    # diagonal stays <N_a N_b> = 0; a per-monomial swap would give
    # <(a b^dag)^dag (a b^dag)> = 1/2 here
    assert abs(swapped.entries[1, 1]) < 1e-14


def test_pt_matches_explicit_state_level_pt():
    rng = np.random.default_rng(3)
    cls = OperatorClass.from_strings(["1", "a", "aa"], ["1", "b", "Bb"])
    for _ in range(10):
        rho = random_density(rng, (2, 2))
        via_swap = build_pt_moment_matrix(rho, cls)
        pt_state = HermitianOperator(
            rho.cutoffs, partial_transpose_fock(rho.matrix, rho.cutoffs, (1,))
        )
        via_state = build_moment_matrix(pt_state, cls)
        np.testing.assert_allclose(via_swap.entries, via_state.entries, atol=1e-10)


def test_pt_commutation_identity_with_reorder():
    # The index swap equals the slow-factor (B-side) transposition of the
    # moment matrix; the A-side version is its global transpose.
    rng = np.random.default_rng(4)
    for _ in range(10):
        state = random_pure_state(rng, (2, 2))
        m = build_moment_matrix(state, STD)
        swapped = build_pt_moment_matrix(state, STD)
        np.testing.assert_allclose(
            swapped.entries, partial_transpose(m, "B").entries, atol=1e-12
        )
        np.testing.assert_allclose(
            swapped.entries.T, partial_transpose(m, "A").entries, atol=1e-12
        )


def test_pt_of_product_state_is_psd():
    rng = np.random.default_rng(6)
    for _ in range(5):
        state = random_product_pure(rng, (2, 2))
        pt = build_pt_moment_matrix(state, STD)
        assert np.linalg.eigvalsh(pt.entries)[0] >= -1e-9


def test_pt_index_swap_equals_generic_b_conjugation():
    # Three routes: the index-swap PT of a tensor class, the generic gather from
    # the Gram matrix of the products A_k B_l over the flattened operator list,
    # and dense moments of the explicitly partially transposed state.
    rng = np.random.default_rng(7)
    cls = OperatorClass.from_strings(["1", "a", "Aa"], ["1", "b", "Bb"])
    flat = GenericClass(cls.flat_ops(), cls.modes_a, cls.modes_b)
    for _ in range(5):
        state = (
            random_product_pure(rng, (3, 3))
            if rng.random() < 0.5
            else random_pure_state(rng, (3, 3))
        )
        pt = build_pt_moment_matrix(state, cls)
        generic = build_generic_moment_matrix(state, flat)
        np.testing.assert_allclose(pt.entries, generic.entries, atol=1e-10)
        np.testing.assert_allclose(generic.entries, explicit_pt_gram(state, flat), atol=1e-10)


@st.composite
def _generic_case(draw):
    """A 2- or 3-mode pure or mixed state, and a generic class with a repeated row over a
    random bipartition."""
    modes = draw(st.integers(2, 3))
    cutoffs = tuple(draw(st.integers(2, 3)) for _ in range(modes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        state = random_pure_state(rng, cutoffs)
    else:
        state = random_density(rng, cutoffs, rank=draw(st.integers(1, 3)))
    # annihilation powers below the cutoff, so few rows kill the state; the dense
    # oracle's padded space stays at most 6 levels per mode
    power = st.tuples(st.integers(0, 2), st.integers(0, 1))
    pool = draw(st.lists(st.tuples(*[power] * modes), min_size=2, max_size=4, unique=True))
    repeats = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    rows = draw(st.permutations(pool + repeats))
    split = draw(st.integers(1, modes - 1))
    order = draw(st.permutations(range(modes)))
    cls = GenericClass(tuple(Monomial(p) for p in rows), tuple(order[:split]), tuple(order[split:]))
    return state, cls


@settings(max_examples=80, deadline=None)
@given(_generic_case())
def test_generic_pt_matrix_matches_explicit_partial_transpose(case):
    state, cls = case
    expected = explicit_pt_gram(state, cls)
    actual = build_generic_moment_matrix(state, cls).entries
    bound = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(actual - expected)) <= bound


def test_principal_submatrix_selection():
    m = np.arange(16).reshape(4, 4).astype(complex)
    sub = principal_submatrix(m, (1, 4))
    np.testing.assert_array_equal(sub, [[0, 3], [12, 15]])
    np.testing.assert_array_equal(principal_submatrix(m, (1, 2, 3, 4)), m)
    with pytest.raises(IndexError):
        principal_submatrix(m, (0, 2))
    with pytest.raises(IndexError):
        principal_submatrix(m, (2, 2))
    with pytest.raises(IndexError):
        principal_submatrix(m, (1, 5))


def test_hz_submatrix_of_pt_matrix():
    pt = build_pt_moment_matrix(states.singlet(), STD)
    sub = principal_submatrix(pt, (1, 4))
    np.testing.assert_allclose(sub, [[1, -0.5], [-0.5, 0]], atol=1e-14)


def test_three_mode_class_support():
    cls = OperatorClass.from_strings(
        ["1", "a"], ["1", "bc"], modes_a=(0,), modes_b=(1, 2)
    )
    ghz = states.ghz3()
    m = build_moment_matrix(ghz, cls)
    assert m.size == 4
    assert np.linalg.eigvalsh(m.entries)[0] >= -1e-9


_power = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def _shift_case(draw):
    """A source, an op list with repeats, and the class (or None) that flattens to it."""
    modes = draw(st.integers(1, 3))
    cuts = ModeCutoffs(tuple(draw(st.integers(1, 6)) for _ in range(modes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["vector", "density", "pt_operator"]))
    if kind == "vector":
        source = random_pure_state(rng, cuts.cutoffs)
    else:
        rho = random_density(rng, cuts.cutoffs, rank=2)
        source = rho if kind == "density" else HermitianOperator(
            cuts, partial_transpose_fock(rho.matrix, cuts, (modes - 1,))
        )
    b_modes = tuple(range(1, modes))
    if modes == 1 or draw(st.booleans()):
        pool = draw(st.lists(st.tuples(*[_power] * modes), min_size=1, max_size=3))
        rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
        ops = tuple(Monomial(p) for p in rows)
        cls = None
    else:
        rest = ((0, 0),) * (modes - 1)
        pool_a = draw(st.lists(_power, min_size=1, max_size=2))
        pool_b = draw(st.lists(st.tuples(*[_power] * (modes - 1)), min_size=1, max_size=2))
        side_a = draw(st.lists(st.sampled_from(pool_a), min_size=1, max_size=3))
        side_b = draw(st.lists(st.sampled_from(pool_b), min_size=1, max_size=2))
        cls = OperatorClass(
            tuple(Monomial((p,) + rest) for p in side_a),
            tuple(Monomial(((0, 0),) + p) for p in side_b),
            (0,),
            b_modes,
        )
        ops = cls.flat_ops()
    padded = np.prod(
        [c + max(op.powers[q][0] for op in ops) + max(op.powers[q][1] for op in ops)
         for q, c in enumerate(cuts.cutoffs)]
    )
    assume(padded <= 400)  # keeps the dense oracle small
    return source, ops, cls


@settings(max_examples=80, deadline=None)
@given(_shift_case())
def test_shift_engine_matches_padded_dense_oracle(case):
    source, ops, cls = case
    expected = dense_gram(source, ops)
    if cls is None:
        actual = _gram_moments(source, ops)
    else:
        actual = build_moment_matrix(source, cls).entries
    bound = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(actual - expected)) <= bound
    for op in set(ops):
        assert abs(moment(source, op) - dense_moment(source, op)) <= bound
    assert abs(op_expectation(source, (ops[0].dagger(), ops[-1])) - expected[0, -1]) <= bound


C36 = OperatorClass.from_strings(
    ["1", "a", "A", "Aa", "aa", "AA"], ["1", "b", "B", "Bb", "bb", "BB"]
)


def test_pure_build_at_the_input_cap_stays_small():
    # 64 x 64 fills the 4096 input cap; 36 dense operators on the 68 x 68
    # padded space would take 36 x 4624^2 x 16 B, about 12.3 GB.
    state = random_pure_state(np.random.default_rng(0), (64, 64))
    assert traced_peak(lambda: build_moment_matrix(state, C36)) < 32 * 2**20


def test_mixed_build_memory_is_linear_in_rows():
    rho = random_density(np.random.default_rng(1), (16, 16), rank=2)
    n, d_out = C36.d_a * C36.d_b, 18 * 18
    peak = traced_peak(lambda: build_moment_matrix(rho, C36))
    # an n x n x D_out array alone would take 36/8 times this bound
    assert peak < 8 * n * d_out * 16


def test_moment_build_refuses_classes_above_the_working_budget():
    state = random_pure_state(np.random.default_rng(0), (64, 64))
    # 400 rows up to (a^dag)^19 (b^dag)^19: 400 x 83^2 table entries
    side_a = ["1"] + ["A" * k for k in range(1, 20)]
    side_b = [s.replace("A", "B") for s in side_a]
    big = OperatorClass.from_strings(side_a, side_b)

    def refused():
        with pytest.raises(DimensionError, match="working budget"):
            build_moment_matrix(state, big)

    assert traced_peak(refused) < 2**20
    # the C36 build at the input cap (36 rows on 66 x 66 output kets) stays allowed
    assert 36 * 66 * 66 <= MOMENT_WORKING_CAP
    cfg = RunConfig.from_dict({"state": {"library": "singlet"}, "criteria": [
        {"name": "pt_min_eig", "class": {"side_a": side_a, "side_b": side_b}}]})
    record = analyze_state(state, cfg.criteria)["verdicts"][0]
    assert record["outcome"] == "ERROR" and record["error"].startswith("DimensionError")
