import dataclasses

import numpy as np

from momentcrit import regression
from momentcrit.criteria import Outcome
from momentcrit.regression import fixtures


def test_fixture_ids_unique_and_table_complete():
    ids = [f.fixture_id for f in fixtures()]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 68  # the table must not shrink unnoticed


def test_listing_the_table_builds_no_state(monkeypatch):
    class NoStates:
        def __getattr__(self, name):
            def build(*args, **kwargs):
                raise AssertionError(f"states.{name} called while listing the table")
            return build

    monkeypatch.setattr(regression, "states", NoStates())
    assert fixtures()


def test_regression_harness_detects_perturbation():
    # one row of each comparison kind: number, array, bool, Outcome
    overrides = {
        "singlet.pt_det": -1 / 16 + 1e-3,
        "singlet.moment_matrix": np.diag([1, 0.5, 0.5, 0]).astype(complex),
        "stormer.indecomposable": False,
        "singlet.hz_outcome": Outcome.INCONCLUSIVE,
    }
    rows = [dataclasses.replace(f, expected=overrides.get(f.fixture_id, f.expected))
            for f in fixtures()]
    failed = [r.fixture_id for r in map(regression.check, rows) if not r.passed]
    assert failed == [
        "singlet.moment_matrix", "singlet.pt_det", "singlet.hz_outcome", "stormer.indecomposable"
    ]
