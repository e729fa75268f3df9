import contextlib
import copy
import gc
import json
from pathlib import Path

import numpy as np
import pytest

from momentcrit.cli import (
    EXIT_CONFIG,
    EXIT_ENTANGLED,
    EXIT_ERRORS,
    EXIT_OK,
    ConfigError,
    RunConfig,
    _complex_array,
    _read_config,
    _state_from_config,
    _state_ppt,
    main,
    run,
)
from momentcrit.criteria import pt_sylvester_test
from momentcrit.fock import Monomial
from momentcrit.moments import OperatorClass, TableSource, moment
from momentcrit import states

from oracles import complete_table, decode_array

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_library_singlet_and_bell():
    s = states.singlet()
    np.testing.assert_allclose(
        s.amplitudes, [0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0], atol=1e-15
    )
    b = states.bell_phi_plus()
    np.testing.assert_allclose(
        b.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15
    )


def test_library_product_coherent_vacuum():
    vac = states.product_coherent(0.0, 0.0)
    assert vac.amplitudes[0] == 1.0


def test_library_cat_double_prime_parameters():
    state = states.cat_double_prime(0.3, 0.2)
    # antisymmetric under global sign flip of both amplitudes: only odd total
    # photon-number amplitudes survive
    grid = state.amplitudes.reshape(state.cutoffs.cutoffs)
    for n1 in range(grid.shape[0]):
        for n2 in range(grid.shape[1]):
            if (n1 + n2) % 2 == 0:
                assert abs(grid[n1, n2]) < 1e-14


def test_library_unknown_name():
    with pytest.raises(KeyError):
        states.build_state("nope")


def test_build_state_with_overrides():
    s = states.build_state("singlet", cutoff=3)
    assert s.cutoffs.cutoffs == (3, 3)
    c = states.build_state("cat_double_prime", {"alpha": 0.3, "beta": 0.2}, epsilon=1e-8)
    assert max(c.cutoffs.cutoffs) <= 8


def test_config_cutoff_reaches_the_thermal_state():
    raw = {"state": {"library": "thermal", "params": {"nbar": 0.5}}, "cutoff": 3}
    assert _state_from_config(RunConfig.from_dict(raw)).cutoffs.cutoffs == (3,)
    raw["state"]["params"]["cutoff"] = 5  # params.cutoff takes precedence
    assert _state_from_config(RunConfig.from_dict(raw)).cutoffs.cutoffs == (5,)


def test_library_thermal_mean_occupation():
    th = states.thermal(0.7, cutoff=50)
    n = moment(th, Monomial(((1, 1),)))
    assert abs(n - 0.7) < 1e-9


def test_config_rejects_unknown_criterion():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"state": {"library": "singlet"}, "criteria": [{"name": "zzz"}]})


def test_empty_criteria_is_valid_empty_report():
    cfg = RunConfig.from_dict({"state": {"library": "singlet"}, "criteria": []})
    report = run(cfg)
    assert report["verdicts"] == []
    assert report["entangled_count"] == 0


def test_run_reports_fixture_values():
    cfg = RunConfig.from_dict(
        {
            "state": {"library": "singlet"},
            "criteria": [{"name": "pt_norm"}, {"name": "realign_norm"}],
        }
    )
    report = run(cfg)
    target = (1 + np.sqrt(2)) / 2
    assert abs(report["verdicts"][0]["witness"]["nu_gamma"] - target) < 1e-9
    assert abs(report["verdicts"][1]["witness"]["nu_realign"] - target) < 1e-9
    assert report["entangled_count"] == 2


def test_run_surfaces_per_criterion_errors_without_aborting():
    cfg = RunConfig.from_dict(
        {
            "state": {"library": "ghz3"},
            "criteria": [
                {"name": "sv_cat"},  # two-mode criterion on a 3-mode state
                {"name": "hz_three_mode", "variant": 1},
            ],
        }
    )
    report = run(cfg)
    assert report["verdicts"][0]["outcome"] == "ERROR"
    assert report["verdicts"][1]["outcome"] in ("ENTANGLED", "INCONCLUSIVE")


def test_cli_analyze_exit_codes(tmp_path, capsys):
    cfg = {
        "state": {"library": "singlet"},
        "criteria": [{"name": "pt_norm"}],
        "format": "structured",
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_ENTANGLED
    payload = json.loads(out)
    assert payload["schema"] == "momentcrit-report/3"
    assert payload["entangled_count"] == 1

    cfg["state"] = {"library": "product_coherent", "params": {"alpha": 0.2, "beta": 0.1}}
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path)]) == EXIT_OK


@pytest.mark.parametrize(
    "criterion",
    [
        {"name": "hz_three_mode"},  # three-mode inequality on a two-mode state
        {"name": "map", "map": {"kind": "stormer"}},  # 3-dim map on the 4-row class
    ],
)
def test_cli_error_records_exit_4(tmp_path, capsys, criterion):
    path = tmp_path / "c.json"
    cfg = {"state": {"library": "singlet"}, "criteria": [criterion], "format": "structured"}
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path)]) == EXIT_ERRORS
    payload = json.loads(capsys.readouterr().out)
    assert payload["error_count"] == 1 and payload["entangled_count"] == 0
    # an ENTANGLED verdict keeps precedence over errors
    cfg["criteria"].append({"name": "pt_norm"})
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path)]) == EXIT_ENTANGLED


def test_cli_moment_table_runs_every_criterion(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "moment_table_ppt.json").read_text())
    cfg["criteria"] += [{"name": "pt_min_eig"}, {"name": "hz_two_mode"}, {"name": "sv_cat"}]
    cfg["format"] = "structured"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path)]) == EXIT_ENTANGLED
    payload = json.loads(capsys.readouterr().out)
    assert payload["error_count"] == 0
    assert [v["outcome"] for v in payload["verdicts"]] == ["ENTANGLED"] * 6


def test_cli_config_error_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["analyze", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line" in err and "column" in err

    path.write_text(json.dumps({"criteria": []}))
    assert main(["analyze", str(path)]) == EXIT_CONFIG
    assert "state" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, named",
    [
        ({"criteria": [{"name": "pt_norm", "clas": {}}]}, "criteria[0] (pt_norm): unknown key(s) ['clas']"),
        ({"criteria": [{"name": "pt_norm", "class": ["1", "a"]}]}, "criteria[0] (pt_norm) key 'class'"),
        ({"criteria": [{"name": "pt_sylvester", "r": 3}]}, "criteria[0] (pt_sylvester) key 'r'"),
        ({"criteria": [{"name": "pt_sylvester", "r": [1.5, 4]}]}, "(pt_sylvester) key 'r'"),
        ({"criteria": [{"name": "map", "map": {"kind": "stormr"}}]}, "(map) key 'map': expected"),
        ({"epsilon": "abc"}, "epsilon: could not convert"),
        ({"tol": "abc"}, "tol: could not convert"),
        ({"state": {"amplitudes": 5, "cutoffs": [2, 2]}}, "state.amplitudes: "),
        ({"state": {"library": "singlet", "params": [1, 2]}}, "state.params must be an object"),
        ({"state": {"library": "cat_prime", "params": {"alpah": 1}}}, "state.params: cat_prime()"),
        ({"criteria": {"name": "pt_norm"}}, "config field 'criteria' must be a list"),
        ({"tolerance": 10.0}, "config: unknown key(s) ['tolerance']"),
        ({"state": {"library": "singlet", "cutof": 5}}, "state: unknown key(s) ['cutof']"),
        ({"state": {"library": "singlet", "label": "s"}}, "state: unknown key(s) ['label']"),
        ({"state": {"amplitudes": [1, 0, 0, 0], "cutoffs": [2, 2], "dims": [2, 2]}},
         "state: unknown key(s) ['dims']"),
        ({"state": {"density": [[1]], "cutoffs": [1], "params": {}}},
         "state: unknown key(s) ['params']"),
        ({"state": {"moments": {"1": 1}, "dims": [2, 2], "cutoffs": [2, 2]}},
         "state: unknown key(s) ['cutoffs']"),
        ({"state": {"library": "singlet", "amplitudes": [1, 0, 0, 0]}},
         "state must specify exactly one of"),
        ({"state": {"cutoffs": [2, 2]}}, "state must specify exactly one of"),
        ({"criteria": [{"name": "map", "map": {"kind": "breuer", "dim": 200000}}]},
         "dimension must be even and in 4..32, got 200000"),
        ({"criteria": [{"name": "map", "map": {"kind": "kossakowski", "n": 3000}}]},
         "dimension must be in 2..32, got 3000"),
        ({"tol": -0.5}, "tol: tol must be a finite number >= 0, got -0.5"),
        ({"tol": float("nan")}, "tol: tol must be a finite number >= 0, got nan"),
        ({"tol": float("inf")}, "tol: tol must be a finite number >= 0, got inf"),
        ({"criteria": [{"name": "map", "map": {"kind": "stormer"}, "side": "C"}]},
         "criteria[0] (map) key 'side': expected 'A' or 'B'"),
        ({"criteria": [{"name": "pt_sylvester", "max_minor_size": 0}]},
         "criteria[0] (pt_sylvester) key 'max_minor_size': expected an integer >= 1"),
        ({"criteria": [{"name": "pt_sylvester", "r_list": []}]},
         "criteria[0] (pt_sylvester) key 'r_list': expected a nonempty list"),
        ({"criteria": [{"name": "pt_sylvester", "r": []}]},
         "criteria[0] (pt_sylvester) key 'r': expected a nonempty list of row indices"),
        ({"criteria": [{"name": "pt_sylvester", "r_list": [[1, 4], []]}]},
         "criteria[0] (pt_sylvester) key 'r_list': expected a nonempty list of row indices"),
        ({"criteria": [{"name": "map", "map": {"kind": "stormer"}, "r": []}]},
         "criteria[0] (map) key 'r': expected a nonempty list of row indices"),
        ({"criteria": [{"name": "generic_pt_det", "class": {"ops": ["1", "ab"]}, "r": []}]},
         "criteria[0] (generic_pt_det) key 'r': expected a nonempty list of row indices"),
        ({"criteria": [{"name": "hz_two_mode", "modes": [0]}]},
         "criteria[0] (hz_two_mode) key 'modes': expected 2 modes, got (0,)"),
        ({"criteria": [{"name": "breuer_inequality", "modes": [0, 1, 2]}]},
         "criteria[0] (breuer_inequality) key 'modes': expected 2 modes, got (0, 1, 2)"),
        ({"criteria": [{"name": "hz_three_mode", "modes": [0, 1]}]},
         "criteria[0] (hz_three_mode) key 'modes': expected 3 modes, got (0, 1)"),
        ({"criteria": [{"name": "hz_three_mode", "variant": 3}]},
         "criteria[0] (hz_three_mode) key 'variant': expected 1 or 2, got 3"),
        # a JSON bool is not a number: "tol": true ran as tol 1.0, and the singlet's
        # pt_min_eig of -0.207 then read INCONCLUSIVE
        ({"tol": True}, "tol: expected a number, got True"),
        ({"epsilon": True}, "epsilon: expected a number, got True"),
        ({"cutoff": True}, "cutoff: expected an integer, got True"),
        ({"criteria": [{"name": "hz_three_mode", "variant": True}]},
         "criteria[0] (hz_three_mode) key 'variant': expected an integer, got True"),
        ({"criteria": [{"name": "hz_two_mode", "modes": [False, True]}]},
         "criteria[0] (hz_two_mode) key 'modes': expected an integer, got False"),
        ({"criteria": [{"name": "pt_sylvester", "r": [True, 4]}]},
         "criteria[0] (pt_sylvester) key 'r': expected an integer, got True"),
        ({"criteria": [{"name": "pt_sylvester", "max_minor_size": True}]},
         "criteria[0] (pt_sylvester) key 'max_minor_size': expected an integer, got True"),
        ({"criteria": [{"name": "pt_norm", "class": {"modes_b": [True]}}]},
         "criteria[0] (pt_norm) key 'class': expected an integer, got True"),
        ({"criteria": [{"name": "state_ppt", "dims": [True, 2]}]},
         "criteria[0] (state_ppt) key 'dims': expected an integer, got True"),
        ({"criteria": [{"name": "map", "map": {"kind": "breuer", "dim": True}}]},
         "criteria[0] (map) key 'map': dim: expected an integer, got True"),
        ({"criteria": [{"name": "map", "map": {"kind": "kossakowski", "n": True}}]},
         "criteria[0] (map) key 'map': n: expected an integer, got True"),
        ({"state": {"amplitudes": [1, 0, 0, 0], "cutoffs": [True, 2]}},
         "state.cutoffs: expected an integer, got True"),
        ({"state": {"moments": {"1": 1}, "dims": [2, True]}},
         "state.dims: expected an integer, got True"),
        # a string is not a list of monomials: "1a" ran as (1, a)
        ({"criteria": [{"name": "pt_norm", "class": {"side_a": "1a"}}]},
         "criteria[0] (pt_norm) key 'class': 'side_a' must be a list of monomial strings, got '1a'"),
        ({"criteria": [{"name": "pt_norm", "class": {"side_b": "1b"}}]},
         "criteria[0] (pt_norm) key 'class': 'side_b' must be a list of monomial strings"),
        ({"criteria": [{"name": "pt_norm", "class": {"side_a": [1]}}]},
         "criteria[0] (pt_norm) key 'class': 'side_a' must be a list of monomial strings, got [1]"),
        ({"criteria": [{"name": "generic_pt_det", "class": {"ops": "1ab"}}]},
         "criteria[0] (generic_pt_det) key 'class': 'ops' must be a list of monomial strings"),
        # ranges: a table's dims, and epsilon, which is a norm deficit
        ({"state": {"moments": {"1": 1}, "dims": [-1, 2]}},
         "state.dims: expected a nonempty list of integers >= 1, got (-1, 2)"),
        ({"state": {"moments": {"1": 1}, "dims": []}},
         "state.dims: expected a nonempty list of integers >= 1, got ()"),
        ({"state": {"library": "cat_prime"}, "epsilon": 2},
         "epsilon: expected a number in (0, 1), got 2.0"),
        ({"epsilon": 0}, "epsilon: expected a number in (0, 1), got 0.0"),
        ({"epsilon": float("nan")}, "epsilon: expected a number in (0, 1), got nan"),
        ({"epsilon": float("inf")}, "epsilon: expected a number in (0, 1), got inf"),
        # the map parameters too: on the singlet these bools ran as 1.0, the Choi map's
        # giving ENTANGLED (exit 3)
        ({"criteria": [{"name": "map", "map": {"kind": "choi", "alpha": True, "beta": True,
                                               "gamma": True}}]},
         "criteria[0] (map) key 'map': alpha: expected a number, got True"),
        ({"criteria": [{"name": "map", "map": {"kind": "breuer", "phases": [True, False]}}]},
         "criteria[0] (map) key 'map': phases: expected a number, got True"),
        ({"criteria": [{"name": "map", "map": {"kind": "kossakowski", "rotation": [
            [True if i == j else 0 for j in range(8)] for i in range(8)]}}]},
         "criteria[0] (map) key 'map': rotation: expected a number, got True"),
        ({"criteria": [{"name": "map", "map": {"kind": "breuer", "phases": "01"}}]},
         "criteria[0] (map) key 'map': phases: expected a list of numbers, got '01'"),
        # state_ppt's dims are [d_a, d_b]: [-1, -4] ended as an ERROR record, and
        # [2, 2, 5] ran as [2, 2]
        ({"criteria": [{"name": "state_ppt", "dims": [-1, -4]}]},
         "criteria[0] (state_ppt) key 'dims': expected two integers >= 1, got (-1, -4)"),
        ({"criteria": [{"name": "state_ppt", "dims": [2, 2, 5]}]},
         "criteria[0] (state_ppt) key 'dims': expected two integers >= 1, got (2, 2, 5)"),
        # r and r_list together: r_list was dropped, and the singlet read INCONCLUSIVE
        ({"criteria": [{"name": "pt_sylvester", "r": [1, 2], "r_list": [[1, 4]]}]},
         "criteria[0] (pt_sylvester): give 'r' or 'r_list', not both"),
        # a Breuer rotation without phases was ignored: the singlet read ENTANGLED (exit 3)
        # with the anti-diagonal unitary
        ({"criteria": [{"name": "map", "map": {"kind": "breuer", "rotation": [
            [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]}}]},
         "criteria[0] (map) key 'map': rotation: a breuer map takes 'rotation' only together "
         "with 'phases'"),
        # a JSON bool in a state number ran as 1 or 0 (exit 0); numpy reads a bool among
        # numbers as one, so an array with a single bool is refused too
        ({"state": {"density": [[True, False], [False, False]], "cutoffs": [2]}},
         "state.density: expected a number or [re, im] pair, got True"),
        ({"state": {"density": [[[0.5, 0], [0, False]], [[0, 0], [0.5, 0]]], "cutoffs": [2]}},
         "state.density: expected a number or [re, im] pair, got [0, False]"),
        ({"state": {"amplitudes": [True, False, False, False], "cutoffs": [2, 2]},
          "criteria": [{"name": "pt_min_eig"}]},
         "state.amplitudes: expected a number or [re, im] pair, got True"),
        ({"state": {"amplitudes": [0.6, True, 0, 0], "cutoffs": [2, 2]}},
         "state.amplitudes: expected a number or [re, im] pair, got True"),
        ({"state": {"moments": {"1": True}, "dims": [2, 2]}},
         "state.moments: expected a number or [re, im] pair, got True"),
    ],
)
def test_cli_rejects_bad_config_before_running(tmp_path, capsys, change, named):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": {"library": "singlet"}, "criteria": [], **change}))
    assert main(["analyze", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


@pytest.mark.parametrize("criterion, named", [
    ({"name": "pt_sylvester", "r": [2, 1]},
     "criteria[0] (pt_sylvester): rows [2, 1] must be strictly increasing within 1..4"),
    ({"name": "map", "map": {"kind": "stormer"}, "r": [0, 3],
      "class": {"side_a": ["1", "a", "a"], "side_b": ["1", "b", "b"]}},
     "criteria[0] (map): rows [0, 3] must be strictly increasing within 1..9"),
    ({"name": "generic_pt_det", "class": {"ops": ["1", "b", "ab"]}, "r": [1, 4]},
     "criteria[0] (generic_pt_det): rows [1, 4] must be strictly increasing within 1..3"),
])
def test_cli_refuses_rows_outside_the_class_before_building(tmp_path, capsys, criterion, named):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": {"library": "singlet"}, "criteria": [criterion]}))
    assert main(["analyze", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


_SIDE_A = ["1", "a", "A", "Aa", "aa", "AA", "aaa"]
_SIDE_B = [op.replace("a", "b").replace("A", "B") for op in _SIDE_A]


@pytest.mark.parametrize("entry, named", [
    # a scan of 6.9e10 minors ended as an ERROR record, exit 4
    ({"max_minor_size": 99, "class": {"side_a": _SIDE_A[:6], "side_b": _SIDE_B[:6]}},
     "criteria[0] (pt_sylvester) key 'max_minor_size': a scan of 36 rows up to size 99 has "
     "68719476735 minors, above the budget of 100000"),
    # the default size 4 is over the budget from 49 rows on
    ({"class": {"side_a": _SIDE_A, "side_b": _SIDE_B}},
     "criteria[0] (pt_sylvester) key 'max_minor_size': a scan of 49 rows up to size 4 has "
     "231525 minors"),
])
def test_cli_refuses_a_full_scan_over_the_minor_budget_before_building(tmp_path, capsys, entry,
                                                                      named):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": {"library": "singlet"},
                                "criteria": [{"name": "pt_sylvester", **entry}]}))
    assert main(["analyze", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err
    # listed rows are no full scan, so the size does not count against the budget
    for rows in ({"r": [1, 4]}, {"r_list": [[1, 4]]}):
        RunConfig.from_dict({"state": {"library": "singlet"},
                             "criteria": [{"name": "pt_sylvester", **entry, **rows}]})


@pytest.mark.parametrize("library", ["singlet", "cat_prime"])
@pytest.mark.parametrize("via", ["config", "flag"])
def test_cli_refuses_cutoff_zero(tmp_path, capsys, library, via):
    # a cutoff of 0 used to fall back to the default, or to the automatic coherent cutoff
    cfg = {"state": {"library": library}, "criteria": [{"name": "pt_norm"}]}
    if via == "config":
        cfg["cutoff"] = 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path)] + (["--cutoff", "0"] if via == "flag" else [])) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "every cutoff must be >= 1" in captured.err


@pytest.mark.parametrize("tol", ["-0.5", "nan", "inf", "-inf"])
def test_cli_refuses_bad_tol_flag(tmp_path, capsys, tol):
    # with tol = -0.5 this separable state used to get three ENTANGLED verdicts
    cfg = {"state": {"library": "product_coherent", "params": {"alpha": 0.3, "beta": 0.2}},
           "criteria": [{"name": "pt_min_eig"}, {"name": "pt_norm"}, {"name": "hz_two_mode"}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path), f"--tol={tol}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol: tol must be a finite number >= 0" in captured.err


@pytest.mark.parametrize("epsilon", ["2", "0", "-1e-3", "nan", "inf"])
def test_cli_refuses_bad_epsilon_flag(tmp_path, capsys, epsilon):
    # "--epsilon 2" used to fail as "coherent superposition has (numerically) zero norm"
    path = tmp_path / "c.json"
    cfg = {"state": {"library": "cat_prime"}, "criteria": [{"name": "pt_norm"}]}
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path), f"--epsilon={epsilon}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "--epsilon: expected a number in (0, 1)" in captured.err


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_example_configs_run(path, capsys):
    RunConfig.from_dict(json.loads(path.read_text()))
    # the soundness list runs on a separable state; every other example detects
    expected = EXIT_OK if path.name == "separable_battery.json" else EXIT_ENTANGLED
    assert main(["analyze", str(path)]) == expected


def test_benchmark_config_shapes_accepted(monkeypatch):
    # every config shape the benchmark generates must pass the config-time key checks
    monkeypatch.syspath_prepend(str(CONFIGS.parent / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        for cell in workloads.generate(name, seed=0, tiny=True):
            RunConfig.from_dict(cell.config)


def test_cli_out_file_and_overrides(tmp_path):
    cfg = {
        "state": {"library": "singlet"},
        "criteria": [{"name": "pt_min_eig"}],
        "format": "structured",
    }
    path = tmp_path / "c.json"
    out = tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    code = main(["analyze", str(path), "--out", str(out), "--tol", "1e-3"])
    assert code == EXIT_ENTANGLED
    payload = json.loads(out.read_text())
    assert payload["verdicts"][0]["tol"] == 1e-3


def test_cli_flags_do_not_carry_over_between_calls(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": {"library": "singlet"}, "criteria": [{"name": "pt_norm"}]}))
    # nu_gamma = 1.207 is not above 1 + 0.5
    assert main(["analyze", str(path), "--tol", "0.5", "--format", "structured"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdicts"][0]["tol"] == 0.5
    assert main(["analyze", str(path)]) == EXIT_ENTANGLED
    out = capsys.readouterr().out
    assert out.startswith("state: singlet\n") and "| tol=1e-09" in out


def test_cli_complex_serialization(tmp_path, capsys):
    cfg = {
        "state": {
            "amplitudes": [[0, 0], [0.7071067811865476, 0], [-0.7071067811865476, 0], [0, 0]],
            "cutoffs": [2, 2],
            "label": "explicit-singlet",
        },
        "criteria": [{"name": "pt_sylvester", "r": [1, 4]}],
        "format": "structured",
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code = main(["analyze", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ENTANGLED
    sub = payload["arrays"][payload["verdicts"][0]["witness"]["submatrix"]["array"]]
    # complex entries written as the bytes of a complex array
    std = OperatorClass.from_strings(["1", "a"], ["1", "b"])
    expected = pt_sylvester_test(states.singlet(), std, r_list=[(1, 4)]).witness["submatrix"]
    assert (sub["dtype"], sub["shape"]) == ("<c16", [2, 2])
    np.testing.assert_allclose(decode_array(sub), expected, atol=1e-15)


def test_cli_list_commands(capsys):
    assert main(["list-states"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("singlet", "bell_phi_plus", "partial_example2", "cat_prime",
                 "cat_double_prime", "ghz3", "w3", "product_coherent", "fock"):
        assert name in out
    assert main(["list-criteria"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("pt_norm", "realign_norm", "map", "hz_two_mode", "state_ppt"):
        assert name in out


def test_cli_regress_passes(capsys):
    assert main(["regress"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "0 failed" in out


def test_cli_density_input(tmp_path, capsys):
    rho = np.eye(4) / 4
    cfg = {
        "state": {
            "density": [[[float(x.real), 0.0] for x in row] for row in rho.astype(complex)],
            "cutoffs": [2, 2],
        },
        "criteria": [{"name": "state_ppt", "dims": [2, 2]}],
        "format": "structured",
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    outcomes = {v["criterion"]: v["outcome"] for v in payload["verdicts"]}
    assert outcomes["state_pt_min_eig"] == "SEPARABLE"


def _per_element(raw):
    """The element-by-element reading of a density: numbers and [re, im] pairs."""
    return np.array([[complex(*z) if isinstance(z, list) else complex(z) for z in row]
                     for row in raw])


@pytest.mark.parametrize(
    "raw",
    [
        [[[1.5, -0.0], [0, 2]], [[-1, float("inf")], [0.25, -3e-300]]],  # pairs
        [[1, -0.0], [2.5, float("inf")]],  # plain numbers
        [[1, [0.0, -2.0]], [[0.5, 1], 3]],  # numbers mixed with pairs
    ],
)
def test_density_ingest_matches_the_per_element_reading(raw):
    out = _complex_array(json.loads(json.dumps(raw)), 2)
    assert out.tobytes() == _per_element(raw).tobytes()


@pytest.mark.parametrize(
    "density",
    [[["1", 0], [0, 0]], [[None, 0], [0, 1]], [[[1, 0], [0, 0]], [[0, 0]]], [[1, 0], [0]]],
    ids=["string", "null", "ragged-pairs", "ragged-numbers"],
)
def test_cli_bad_density_entries_exit_2(tmp_path, capsys, density):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": {"density": density, "cutoffs": [2]}, "criteria": []}))
    assert main(["analyze", str(path)]) == EXIT_CONFIG
    assert "state.density" in capsys.readouterr().err


@contextlib.contextmanager
def _collector(on: bool):
    """The cyclic garbage collector switched on or off for the block, then restored."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("on", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "text, code, named",
    [
        (json.dumps({"state": {"density": [[0.5, 0], [0, 0.5]], "cutoffs": [2]}}), EXIT_OK, None),
        ("{ not json", EXIT_CONFIG, "config parse error at line 1, column 3: Expecting property"),
        (None, EXIT_CONFIG, "config error: [Errno 2] No such file or directory"),
        (json.dumps({"state": {"density": [[0.5, "x"], [0, 0.5]], "cutoffs": [2]}}), EXIT_CONFIG,
         "config error: state.density: expected a number or [re, im] pair, got 'x'"),
    ],
    ids=["ok", "parse-error", "missing-file", "bad-density"],
)
def test_analyze_leaves_the_collector_as_it_found_it(tmp_path, capsys, on, text, code, named):
    # the config reader pauses the collector and must switch it back on only if it was on
    path = tmp_path / "c.json"
    if text is not None:
        path.write_text(text)
    with _collector(on):
        assert main(["analyze", str(path)]) == code
        assert gc.isenabled() is on
    err = capsys.readouterr().err
    assert err == "" if named is None else named in err


def test_config_read_runs_no_collection(tmp_path):
    # 4096 [re, im] lists would set off several young collections
    path = tmp_path / "c.json"
    rho = np.eye(64) / 64
    path.write_text(json.dumps({"state": {"density": [[[x, 0.0] for x in row] for row in rho],
                                          "cutoffs": [8, 8]}}))
    starts = [0]

    def count(phase, info):
        starts[0] += phase == "start"

    with _collector(True):
        gc.callbacks.append(count)
        try:
            config = _read_config(str(path))
        finally:
            gc.callbacks.remove(count)
    assert starts[0] == 0
    assert config.state["density"].tobytes() == rho.astype(complex).tobytes()


@pytest.mark.parametrize("state", [
    {"density": [[[0.5, 0.0], [0, 0]], [[0, 0], [0.5, 0]]], "cutoffs": [2], "label": "m"},
    {"amplitudes": [0, 1, [-1, 0], 0], "cutoffs": [2, 2]},
], ids=["density", "amplitudes"])
def test_from_dict_leaves_the_callers_config_unchanged(state):
    raw = {"state": state, "criteria": [{"name": "pt_norm"}]}
    before = copy.deepcopy(raw)
    config = RunConfig.from_dict(raw)
    assert raw == before
    kind = next(k for k in ("density", "amplitudes") if k in state)
    assert config.state[kind].dtype == complex and config.state["cutoffs"] == state["cutoffs"]


def test_state_ppt_reads_table_dims_only_for_two_modes():
    table = TableSource({Monomial.identity(3): 1.0}, 3, dims=(2, 2, 2))
    with pytest.raises(ConfigError, match=r"state_ppt needs 'dims' = \[d_a, d_b\]"):
        _state_ppt(table)


@pytest.mark.parametrize("split", [[2, 4], [4, 2]])
def test_state_ppt_on_a_three_mode_table_matches_the_amplitudes(split):
    # the table is reconstructed at its own dims (2, 2, 2); [d_a, d_b] then splits the modes
    w = states.w3()
    table = TableSource(complete_table(w, 2).table, 3, dims=(2, 2, 2))
    for want, got in zip(_state_ppt(w, split), _state_ppt(table, split), strict=True):
        assert (got.criterion, got.outcome) == (want.criterion, want.outcome)
        for key, value in want.witness.items():
            assert np.max(np.abs(np.asarray(got.witness[key]) - np.asarray(value))) <= 1e-10


@pytest.mark.parametrize(
    "state, named",
    [
        ({"density": [[0.5, 0], [0, float("nan")]], "cutoffs": [2]}, "density matrix entries"),
        ({"amplitudes": [1, [0, float("inf")], 0, 0], "cutoffs": [2, 2]}, "state amplitudes"),
        ({"moments": {"1": 1, "Aa": float("nan"), "Bb": 0.5}, "dims": [2, 2]},
         "moment table value for Aa"),
    ],
    ids=["nan-density", "infinite-amplitude", "nan-table-value"],
)
def test_cli_refuses_non_finite_state_values(tmp_path, capsys, state, named):
    # json reads NaN and Infinity; they once ran into LinAlgError records or an
    # ENTANGLED verdict next to a NaN witness
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": state, "criteria": [{"name": "pt_norm"},
                                                             {"name": "hz_two_mode"}]}))
    assert main(["analyze", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err and "finite" in captured.err
