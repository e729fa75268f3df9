"""The structured report (schema ``momentcrit-report/2``): an indented header, one
compact JSON line per verdict and per array, and the same parsed content as
``json.dumps(report, indent=2)``.  Each distinct witness array is written once in
``arrays``, and a witness refers to it by index, or to a declared view of it."""

import json
from pathlib import Path

import numpy as np
import pytest

from momentcrit.cli import (
    CriterionSpec,
    RunConfig,
    _jsonify,
    _state_from_config,
    analyze_state,
    format_structured,
    run,
)
from momentcrit.criteria import Outcome, Verdict

from oracles import jsonify_array_elementwise, recheck, resolve_report

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
CONFIG_CASES = {
    **{p.name: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))},
    "no-criteria": {"state": {"library": "singlet"}, "criteria": []},
    "error-record": {"state": {"library": "singlet"}, "criteria": [{"name": "hz_three_mode"}]},
}
REPORT_KEYS = ["schema", "state", "verdicts", "entangled_count", "error_count", "summary",
               "arrays"]
RECORD_KEYS = ["criterion", "outcome", "witness", "threshold", "tol", "boundary", "provenance"]


def _same(a, b) -> bool:
    """Equal values and key order; the compact encoding also compares NaN entries."""
    return json.dumps(a) == json.dumps(b)


def _replay(result):
    """A prepared criterion call that returns (or raises) a result computed before."""
    def call(state, tol=None):
        if isinstance(result, Exception):
            raise result
        return result

    return call


def _analysis(config: dict) -> tuple[list[Verdict], dict]:
    """The in-memory verdicts of one config and the report written from those same
    verdicts: each criterion runs once."""
    cfg = RunConfig.from_dict(config)
    state = _state_from_config(cfg)
    results = []
    for spec in cfg.criteria:
        try:
            results.append(spec.call(state, tol=cfg.tol))
        except Exception as exc:  # replayed below as the ERROR record it becomes
            results.append(exc)
    specs = [CriterionSpec(spec.name, _replay(r)) for spec, r in zip(cfg.criteria, results)]
    verdicts = [v for r in results if not isinstance(r, Exception)
                for v in (r if isinstance(r, list) else [r])]
    return verdicts, analyze_state(state, specs, cfg.tol)


def _non_finite_report() -> dict:
    v = Verdict("pt_min_eig", Outcome.INCONCLUSIVE,
                {"min_eigenvalue": float("nan"), "matrix": np.array([[np.inf, -np.inf + 1j]])},
                threshold=0.0, tol=1e-9)
    state = _state_from_config(RunConfig.from_dict(CONFIG_CASES["no-criteria"]))
    return analyze_state(state, [CriterionSpec("pt_min_eig", _replay(v))])


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
    items = report["verdicts"] + report["arrays"]
    assert len(rows) == len(items)
    for row, item in zip(rows, items):
        assert _same(json.loads(row.strip().rstrip(",")), item)
    # braces, header lines, verdict and array lines, and the closing bracket of each
    # nonempty list
    lists = bool(report["verdicts"]) + bool(report["arrays"])
    assert len(lines) == 2 + len(header) + len(rows) + lists


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


# -- the v2 layout on every config and every seed-1 benchmark cell ---------------------


def _workload_configs(name: str) -> list[dict]:
    """The seed-1 cell configs of one benchmark workload, generated in memory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        return [cell.config for cell in workloads.generate(name, 1)]


@pytest.fixture(scope="module", params=["configs", "cat_sweep", "mixed_density", "small_battery"])
def analyses(request) -> list[tuple[list[Verdict], dict]]:
    if request.param == "configs":
        configs = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
    else:
        configs = _workload_configs(request.param)
    return [_analysis(config) for config in configs]


def _refs(report: dict) -> list[dict]:
    return [value for rec in report["verdicts"] for value in rec.get("witness", {}).values()
            if isinstance(value, dict) and "array" in value]


def test_report_keys_and_key_order_are_pinned(analyses):
    for _, report in analyses:
        assert list(report) == REPORT_KEYS and report["schema"] == "momentcrit-report/2"
        for rec in report["verdicts"]:
            assert list(rec) == (RECORD_KEYS if rec["outcome"] != "ERROR"
                                 else ["criterion", "outcome", "error"])


def test_arrays_are_distinct_and_every_ref_names_one(analyses):
    for _, report in analyses:
        encoded = [json.dumps(a) for a in report["arrays"]]
        assert len(set(encoded)) == len(encoded)
        used = {ref["array"] for ref in _refs(report)}
        assert used == set(range(len(report["arrays"])))
        for ref in _refs(report):
            assert set(ref) in ({"array"}, {"array", "view", "d_a", "d_b"})


def test_resolved_report_is_the_inline_form_of_the_verdicts(analyses):
    for verdicts, report in analyses:
        resolved = resolve_report(report)
        assert list(resolved) == REPORT_KEYS[:-1]
        records = [rec for rec in resolved["verdicts"] if rec["outcome"] != "ERROR"]
        inline = [{"criterion": v.criterion, "outcome": v.outcome.value,
                   "witness": _jsonify(v.witness), "threshold": v.threshold, "tol": v.tol,
                   "boundary": v.boundary, "provenance": _jsonify(v.provenance)}
                  for v in verdicts]
        assert _same(records, inline)


def test_every_report_rechecks_from_its_own_bytes(analyses):
    for _, report in analyses:
        recheck(json.loads(format_structured(report)))


def test_pt_min_eig_matrix_is_written_as_a_view_of_the_shared_moment_matrix():
    _, report = _analysis(CONFIG_CASES["singlet_norms.json"])
    witness = {rec["criterion"]: rec["witness"] for rec in report["verdicts"]}
    base = witness["pt_norm"]["moment_matrix"]["array"]
    assert witness["realign_norm"]["moment_matrix"] == {"array": base}
    assert witness["pt_min_eig"]["matrix"] == {
        "array": base, "view": "partial_transpose_B", "d_a": 2, "d_b": 2}


def _forge(report: dict, criterion: str, key: str, value) -> dict:
    forged = json.loads(json.dumps(report))
    next(r for r in forged["verdicts"] if r["criterion"] == criterion)["witness"][key] = value
    return forged


@pytest.mark.parametrize("criterion, key, value, named", [
    ("pt_min_eig", "min_eigenvalue", 0.1, "min_eigenvalue"),
    ("pt_norm", "nu_gamma", 0.9, "nu_gamma"),
    ("realign_norm", "nu_realign", 1.0, "nu_realign"),
    ("pt_sylvester", "min_principal_minor", 0.25, "min_principal_minor"),
    # the moment matrix itself in place of its partial transpose
    ("pt_min_eig", "matrix", {"array": 0}, "min_eigenvalue"),
])
def test_recheck_refuses_a_forged_witness(criterion, key, value, named):
    _, report = _analysis(CONFIG_CASES["singlet_norms.json"])
    assert recheck(report) == 4
    with pytest.raises(AssertionError, match=named):
        recheck(_forge(report, criterion, key, value))
