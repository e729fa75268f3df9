"""The structured report: an indented header, one compact JSON line per verdict, and
the same parsed content as ``json.dumps(report, indent=2)``."""

import json
from pathlib import Path

import numpy as np
import pytest

from momentcrit.cli import RunConfig, _jsonify, format_structured, run, verdict_to_dict
from momentcrit.criteria import Outcome, Verdict

from oracles import jsonify_array_elementwise

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_CASES = {
    **{p.name: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))},
    "no-criteria": {"state": {"library": "singlet"}, "criteria": []},
    "error-record": {"state": {"library": "singlet"}, "criteria": [{"name": "hz_three_mode"}]},
}


def _same(a, b) -> bool:
    """Equal values and key order; the compact encoding also compares NaN entries."""
    return json.dumps(a) == json.dumps(b)


def _non_finite_report() -> dict:
    v = Verdict("pt_min_eig", Outcome.INCONCLUSIVE,
                {"min_eigenvalue": float("nan"), "matrix": np.array([[np.inf, -np.inf + 1j]])},
                threshold=0.0, tol=1e-9)
    return {**run(RunConfig.from_dict(CONFIG_CASES["no-criteria"])),
            "verdicts": [verdict_to_dict(v)]}


@pytest.fixture(params=[*CONFIG_CASES, "non-finite"])
def report(request):
    if request.param == "non-finite":
        return _non_finite_report()
    return run(RunConfig.from_dict(CONFIG_CASES[request.param]))


def test_structured_report_parses_to_the_report(report):
    text = format_structured(report)
    assert _same(json.loads(text), report)
    assert _same(json.loads(text), json.loads(json.dumps(report, indent=2)))


def test_structured_layout_indents_the_header_and_puts_one_verdict_per_line(report):
    lines = format_structured(report).split("\n")
    header = [line for line in lines if line.startswith('  "')]
    rows = [line for line in lines if line.startswith("    ")]
    assert lines[0] == "{" and lines[-1] == "}"
    assert [line.split(":")[0] for line in header] == [f'  "{key}"' for key in report]
    assert len(rows) == len(report["verdicts"])
    for row, record in zip(rows, report["verdicts"]):
        assert _same(json.loads(row.strip().rstrip(",")), record)
    # braces, header lines, verdict lines and the closing bracket of a nonempty list
    assert len(lines) == 2 + len(header) + len(rows) + bool(rows)


_SPECIAL = [-0.0, 1.5, np.inf, -np.inf, np.nan]


def _complex(re, im) -> np.ndarray:
    """re + i im without arithmetic, so -0.0 and infinite parts stay as given."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


@pytest.mark.parametrize(
    "value",
    [
        np.array(-0.0),
        np.array(_SPECIAL),
        np.array([_SPECIAL, _SPECIAL[::-1]]),
        _complex(np.nan, -0.0),
        _complex(_SPECIAL, _SPECIAL[::-1]),
        _complex([_SPECIAL, _SPECIAL[::-1]], [_SPECIAL[::-1], _SPECIAL]),
        np.array([[1, -2], [3, 4]]),
    ],
    ids=["real-0d", "real-1d", "real-2d", "complex-0d", "complex-1d", "complex-2d", "int-2d"],
)
def test_jsonify_arrays_match_the_elementwise_oracle(value):
    assert json.dumps(_jsonify(value)) == json.dumps(jsonify_array_elementwise(value))
