import numpy as np

from momentcrit import regression
from momentcrit.criteria import Outcome
from momentcrit.regression import fixtures, run_regression_suite


def test_fixture_ids_unique_and_table_complete():
    ids = [f.fixture_id for f in fixtures()]
    assert len(ids) == len(set(ids))  # expected_overrides keys on the id
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
    singlet_m = np.diag([1, 0.5, 0.5, 0]).astype(complex)
    report = run_regression_suite(
        expected_overrides={
            "singlet.pt_det": -1 / 16 + 1e-3,
            "singlet.moment_matrix": singlet_m,
            "stormer.indecomposable": False,
            "singlet.hz_outcome": Outcome.INCONCLUSIVE,
        }
    )
    failed = [r.fixture_id for r in report.results if not r.passed]
    assert failed == [
        "singlet.moment_matrix", "singlet.pt_det", "singlet.hz_outcome", "stormer.indecomposable"
    ]
