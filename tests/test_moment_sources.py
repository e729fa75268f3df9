"""States and moment tables read through the one moments layer."""

import dataclasses
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcrit import moments
from momentcrit.cli import RunConfig, _state_from_config, analyze_state
from momentcrit.criteria import breuer_inequality_test, hz_two_mode, pt_min_eig_test
from momentcrit.errors import MissingMomentError
from momentcrit.fock import ModeCutoffs, Monomial
from momentcrit.moments import (
    GenericClass,
    OperatorClass,
    TableSource,
    build_generic_moment_matrix,
    build_moment_matrix,
    moment,
    normal_order,
    op_expectation,
)
from momentcrit.sampling import random_density, random_pure_state
from momentcrit import states
from oracles import (
    complete_table,
    monomial_matrix,
    per_entry_hermitian,
    per_key_table,
    per_term_expectation,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

STD = OperatorClass.from_strings(["1", "a"], ["1", "b"])

# the criteria as ``analyze`` prepares them from a config
CRITERIA = {spec.name: spec.call for spec in RunConfig.from_dict({
    "state": {"library": "singlet"},
    "criteria": [
        {"name": "pt_min_eig",
         "class": {"side_a": ["1", "a", "Aa", "aa"], "side_b": ["1", "b", "Bb", "bb"]}},
        {"name": "pt_norm"},
        {"name": "realign_norm"},
        {"name": "pt_sylvester"},
        {"name": "generic_pt_det", "class": {"ops": ["1", "a", "b", "ab", "Aa"]}},
        {"name": "sv_cat"},
        {"name": "map", "map": {"kind": "stormer"}, "side": "A", "r": [2, 3, 7],
         "class": {"side_a": ["1", "a", "a"], "side_b": ["1", "b", "b"]}},
        {"name": "hz_two_mode"},
        {"name": "breuer_inequality"},
        {"name": "breuer_bell"},
    ],
}).criteria}


_factor = st.integers(1, 2).flatmap(
    lambda modes: st.lists(
        st.tuples(*[st.tuples(st.integers(0, 3), st.integers(0, 3))] * modes),
        min_size=1,
        max_size=3,
    )
)


@settings(max_examples=60, deadline=None)
@given(_factor)
def test_normal_order_matches_dense_product(factor_powers):
    factors = tuple(Monomial(p) for p in factor_powers)
    num_modes = factors[0].num_modes
    base = ModeCutoffs((2,) * num_modes)
    pads = tuple(
        sum(f.powers[q][0] + f.powers[q][1] for f in factors) for q in range(num_modes)
    )
    working = ModeCutoffs(tuple(c + p for c, p in zip(base.cutoffs, pads)), cap=10**9)
    product = np.eye(working.total_dimension, dtype=complex)
    for f in factors:
        product = product @ monomial_matrix(f, working)
    expanded = sum(c * monomial_matrix(t, working) for c, t in normal_order(factors))
    # Columns of the unpadded levels, where truncation cannot reach.
    low = [int(np.ravel_multi_index(occ, working.cutoffs)) for occ in np.ndindex(*base.cutoffs)]
    scale = max(1.0, float(np.max(np.abs(product))))
    np.testing.assert_allclose(expanded[:, low], product[:, low], rtol=0, atol=1e-10 * scale)


def test_normal_order_number_operator_square():
    num = Monomial.from_string("Aa", 1)
    terms = {t.to_string(): c for c, t in normal_order((num, num))}
    assert terms == {"AAaa": 1, "Aa": 1}


def _witness_gap(a: dict, b: dict) -> float:
    gap = 0.0
    for key, value in a.items():
        if isinstance(value, (float, np.ndarray)):
            gap = max(gap, float(np.max(np.abs(np.asarray(value) - np.asarray(b[key])))))
    return gap


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_complete_table_matches_density_on_every_criterion(dims):
    rng = np.random.default_rng(sum(dims))
    state = random_density(rng, dims)
    table = complete_table(state, 6)
    for name, criterion in CRITERIA.items():
        from_state, from_table = criterion(state), criterion(table)
        assert from_table.outcome is from_state.outcome, name
        assert _witness_gap(from_state.witness, from_table.witness) <= 1e-10, name


def test_op_expectation_on_table_matches_state():
    singlet = states.singlet()
    table = complete_table(singlet, 4)
    num_a = Monomial.from_string("Aa", 2)
    factors = (num_a, Monomial.from_string("b", 2), num_a.dagger(), Monomial.from_string("B", 2))
    assert abs(op_expectation(table, factors) - op_expectation(singlet, factors)) < 1e-12


# -- every batch against the per-term oracle ----------------------------------------

_POWERS = st.tuples(st.integers(0, 1), st.integers(0, 1))  # (creation, annihilation) on a mode
_IDLE = (0, 0)


@st.composite
def _batch_case(draw):
    """A two-mode pure state, density or table (entries dropped at a drawn rate), a
    product of 1-3 factors, a tensor class and a generic class."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    kind = draw(st.sampled_from(["pure", "mixed", "table"]))
    source = random_pure_state(rng, cuts) if kind == "pure" else random_density(rng, cuts)
    if kind == "table":
        # powers up to 3 cover three factors, a Gram entry and a generic PT entry; the
        # table lists one monomial of each adjoint pair, so half the reads conjugate
        rate, kept = draw(st.sampled_from([0.0, 0.05, 0.3])), {}
        for spec, value in complete_table(source, 4).table.items():
            if spec.dagger() not in kept and rng.random() >= rate:
                kept[spec] = value
        source = TableSource(kept, 2)
    pairs = st.lists(st.tuples(_POWERS, _POWERS), min_size=1, max_size=3)
    sides = [st.lists(_POWERS, min_size=1, max_size=3) for _ in range(2)]
    cls = OperatorClass(tuple(Monomial((p, _IDLE)) for p in draw(sides[0])),
                        tuple(Monomial((_IDLE, p)) for p in draw(sides[1])))
    generic = GenericClass(tuple(map(Monomial, draw(pairs))))
    return source, tuple(map(Monomial, draw(pairs))), cls, generic


@settings(max_examples=80, deadline=None)
@given(_batch_case())
def test_batches_match_the_per_term_oracle(case):
    source, factors, cls, generic = case
    checks = [(lambda: op_expectation(source, factors),
               lambda: per_term_expectation(source, factors))]
    if isinstance(source, TableSource):
        ops, g = cls.flat_ops(), generic.ops

        def swapped(i, j):  # A_i B_j, the row's A part with the column's B part
            return Monomial((g[i].powers[0], g[j].powers[1]))

        checks += [
            (lambda: build_moment_matrix(source, cls).entries,
             lambda: per_entry_hermitian(source, len(ops), lambda i, j: (ops[i].dagger(), ops[j]))),
            (lambda: build_generic_moment_matrix(source, generic).entries,
             lambda: per_entry_hermitian(source, len(g),
                                         lambda i, j: (swapped(i, j).dagger(), swapped(j, i)))),
        ]
    for batch, oracle in checks:
        try:
            want = oracle()
        except MissingMomentError as err:
            with pytest.raises(MissingMomentError) as got:
                batch()
            assert set(got.value.missing) == set(err.missing)
            continue
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(batch() - want)) <= 1e-12 * scale


def _table_configs() -> list[dict]:
    """Every moment-table config: the examples and the seed-1 small_battery cells."""
    configs = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(CONFIGS.parent / "perfbench"))
        import workloads

        configs += [cell.config for cell in workloads.generate("small_battery", 1)]
    return [c for c in configs if "moments" in c["state"]]


def test_one_pass_reader_gives_the_per_key_table_bit_for_bit():
    configs = _table_configs()
    assert len(configs) == 17  # two examples and 15 benchmark cells
    for config in configs:
        source = _state_from_config(RunConfig.from_dict(config))
        want = per_key_table(config["state"]["moments"], len(config["state"]["dims"]))
        assert list(source.table) == list(want)
        assert all(type(spec) is Monomial for spec in source.table)
        got_values, want_values = (np.array(list(t.values())) for t in (source.table, want))
        assert got_values.tobytes() == want_values.tobytes()


def test_missing_monomial_is_named():
    raw = json.loads((CONFIGS / "moment_table_ppt.json").read_text())
    table = _state_from_config(RunConfig.from_dict(raw))
    assert table.dims == (2, 2)
    with pytest.raises(MissingMomentError) as err:
        breuer_inequality_test(table)
    assert err.value.missing == ["AABaab"]


def test_hz_two_mode_needs_only_the_formula_moments_and_the_normalization():
    # the five moments of <N_a N_b> - |<a b^dag>|^2 and <N_a><N_b> - |<a b>|^2, plus the
    # "1" that the (1, ab) PT matrix reads in its corner
    singlet = states.singlet()
    specs = [Monomial.from_string(t, 2) for t in ("1", "AaBb", "aB", "Aa", "Bb", "ab")]
    expected = hz_two_mode(singlet)
    verdict = hz_two_mode(TableSource({s: moment(singlet, s) for s in specs}, 2))
    assert verdict.outcome is expected.outcome
    assert _witness_gap(expected.witness, verdict.witness) <= 1e-12
    with pytest.raises(MissingMomentError) as err:
        hz_two_mode(TableSource({s: moment(singlet, s) for s in specs[1:]}, 2))
    assert err.value.missing == ["1"]


def test_missing_monomials_of_a_matrix_are_listed_together():
    table = TableSource({Monomial.from_string("1", 2): 1.0}, 2)
    with pytest.raises(MissingMomentError) as err:
        pt_min_eig_test(table, STD)
    assert set(err.value.missing) == {"a", "b", "ab", "Aa", "Ab", "Aab", "Bb", "Bab", "ABab"}


# -- one Gram matrix per op tuple per source --------------------------------------

C4 = {"side_a": ["1", "a"], "side_b": ["1", "b"]}
C9 = {"side_a": ["1", "a", "a"], "side_b": ["1", "b", "b"]}
C16 = {"side_a": ["1", "a", "Aa", "aa"], "side_b": ["1", "b", "Bb", "bb"]}


def _cat_criteria(cls: dict, ab_row: int) -> list[dict]:
    return [{"name": name, "class": cls} for name in ("pt_min_eig", "pt_norm", "realign_norm")] + [
        {"name": "pt_sylvester", "class": cls, "r": [1, ab_row]}]


TWO_MODE_BATTERY = [
    {"name": "pt_min_eig", "class": C4},
    {"name": "pt_norm", "class": C4},
    {"name": "realign_norm", "class": C4},
    {"name": "pt_sylvester", "class": C16},
    {"name": "generic_pt_det", "class": {"ops": ["1", "b", "ab"]}},
    {"name": "map", "map": {"kind": "stormer"}, "class": C9, "r": [2, 3, 7]},
    {"name": "map", "map": {"kind": "choi", "alpha": 1.5, "beta": 1.0, "gamma": 1.0}, "class": C9},
    {"name": "map", "map": {"kind": "breuer", "dim": 4}, "class": C16, "r": [1, 6, 9]},
    {"name": "map", "map": {"kind": "kossakowski", "n": 3}, "class": C9},
    {"name": "hz_two_mode"},
    {"name": "breuer_inequality"},
    {"name": "breuer_bell"},
    {"name": "sv_cat"},
    {"name": "state_ppt", "dims": [3, 3]},
]


@pytest.fixture
def computed(monkeypatch):
    """The op tuples of every uncached Gram computation, in call order."""
    calls = []
    compute = moments._compute_gram

    def counted(source, ops):
        calls.append(ops)
        return compute(source, ops)

    monkeypatch.setattr(moments, "_compute_gram", counted)
    return calls


def _analyze(state, criteria: list[dict]) -> None:
    specs = RunConfig.from_dict({"state": {"library": "singlet"}, "criteria": criteria}).criteria
    assert analyze_state(state, specs)["error_count"] == 0


@pytest.mark.parametrize("criteria", [
    _cat_criteria(C4, 4) + [{"name": "sv_cat"}],  # sv_cat's PT products are C4's rows
    _cat_criteria(C16, 6),
], ids=["C4", "C16"])
def test_cat_criteria_share_one_gram_computation(computed, criteria):
    _analyze(states.cat_prime(0.6, 0.4), criteria)
    assert len(computed) == 1


def test_two_mode_battery_computes_each_op_tuple_once(computed):
    _analyze(states.fock((1, 2), cutoff=3), TWO_MODE_BATTERY)
    assert len(computed) == len(set(computed)) > 1


@pytest.mark.parametrize("source", [states.singlet(), states.singlet().density(),
                                    complete_table(states.singlet(), 3)], ids=type)
def test_cached_gram_is_read_only_and_reused(source):
    ops = STD.flat_ops()
    gram = moments._gram_moments(source, ops)
    assert not gram.flags.writeable
    with pytest.raises(ValueError):
        gram[0, 0] = 0.0
    assert moments._gram_moments(source, ops) is gram


def test_a_new_state_starts_with_an_empty_memo():
    state = states.cat_prime(0.6, 0.4)
    pt_min_eig_test(state, STD)
    assert list(state._grams) == [STD.flat_ops()]
    rho = state.density()
    assert rho._grams == {} and dataclasses.replace(state, label="copy")._grams == {}
    pt_min_eig_test(rho, STD)
    assert dataclasses.replace(rho, label="copy")._grams == {}


def test_failed_table_lookups_cache_nothing():
    # every criterion on a table sharing earlier failures names what a fresh table names
    partial = {Monomial.from_string("1", 2): 1.0}
    shared = TableSource(partial, 2)
    for name, criterion in CRITERIA.items():
        with pytest.raises(MissingMomentError) as fresh:
            criterion(TableSource(partial, 2))
        with pytest.raises(MissingMomentError) as again:
            criterion(shared)
        assert again.value.missing == fresh.value.missing, name
    assert shared._grams == {}


def test_threads_sharing_a_state_read_the_serial_values():
    # the memo is filled without a lock: a race computes one Gram twice and stores equal arrays
    names = ("pt_min_eig", "pt_norm", "realign_norm", "sv_cat", "breuer_bell")
    expected = [CRITERIA[name](states.cat_prime(0.6, 0.4)).witness for name in names]
    shared = states.cat_prime(0.6, 0.4)
    results, errors = [], []

    def work():
        try:
            results.append([CRITERIA[name](shared).witness for name in names])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and errors == [] and len(results) == 4
    for witnesses in results:
        for got, want in zip(witnesses, expected):
            assert _witness_gap(want, got) <= 1e-12
