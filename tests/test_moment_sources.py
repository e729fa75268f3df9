"""States and moment tables read through the one moments layer."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcrit.cli import RunConfig, _state_from_config
from momentcrit.criteria import breuer_inequality_test, hz_two_mode, pt_min_eig_test
from momentcrit.errors import MissingMomentError
from momentcrit.fock import ModeCutoffs, Monomial
from momentcrit.moments import (
    OperatorClass,
    TableSource,
    moment,
    normal_order,
    op_expectation,
)
from momentcrit.sampling import random_density
from momentcrit import states
from oracles import complete_table, monomial_matrix

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
