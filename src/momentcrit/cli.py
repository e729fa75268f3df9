"""Batch command-line front end.

Subcommands:
  analyze <config.json>   run the criteria listed in a JSON config
  regress                 run the reference regression suite
  list-states             show the named state library
  list-criteria           show the available criterion names

Config and report are JSON; complex numbers are [re, im] pairs.  Exit codes:
0 = ran, nothing detected; 3 = ran, at least one ENTANGLED verdict (takes
precedence); 4 = ran, at least one ERROR record and no ENTANGLED verdict;
2 = config error; 1 = internal error (analyze) / failures (regress).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .criteria import (
    Outcome,
    Verdict,
    breuer_bell_test,
    breuer_inequality_test,
    generic_pt_det_test,
    hz_three_mode,
    hz_two_mode,
    map_test,
    pt_min_eig_test,
    pt_norm_test,
    pt_sylvester_test,
    realign_norm_test,
    sv_cat_state_test,
)
from .errors import DimensionError
from .fock import DensityMatrix, ModeCutoffs, Monomial, StateVector
from .moments import GenericClass, OperatorClass
from .posmaps import (
    BreuerParams,
    ChoiParams,
    KossakowskiParams,
    breuer_antidiagonal_unitary,
    breuer_map,
    breuer_unitary,
    choi_map,
    kossakowski_map,
    stormer_map,
)
from .reconstruct import TableSource, reconstruct_density, state_level_tests, two_qubit_density
from .regression import run_regression_suite
from .states import build_state, list_states

REPORT_SCHEMA = "momentcrit-report/1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_ENTANGLED = 3
EXIT_ERRORS = 4


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class CriterionSpec:
    name: str
    params: dict

    def to_dict(self) -> dict:
        return {"name": self.name, **self.params}


@dataclasses.dataclass
class RunConfig:
    state: dict
    criteria: list[CriterionSpec]
    cutoff: int | None = None
    epsilon: float = 1e-10
    tol: float | None = None
    output_format: str = "human"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        if "state" not in raw:
            raise ConfigError("config field 'state' is required")
        crits = []
        for idx, entry in enumerate(raw.get("criteria", [])):
            if not isinstance(entry, dict) or "name" not in entry:
                raise ConfigError(f"criteria[{idx}] must be an object with a 'name' field")
            name = entry["name"]
            if name not in CRITERIA:
                raise ConfigError(
                    f"criteria[{idx}].name {name!r} is unknown; "
                    f"available: {', '.join(sorted(CRITERIA))}"
                )
            crits.append(CriterionSpec(name, {k: v for k, v in entry.items() if k != "name"}))
        fmt = raw.get("format", "human")
        if fmt not in ("human", "structured"):
            raise ConfigError("config field 'format' must be 'human' or 'structured'")
        return cls(
            state=raw["state"],
            criteria=crits,
            cutoff=raw.get("cutoff"),
            epsilon=float(raw.get("epsilon", 1e-10)),
            tol=raw.get("tol"),
            output_format=fmt,
        )

    def to_dict(self) -> dict:
        out = {
            "state": self.state,
            "criteria": [c.to_dict() for c in self.criteria],
            "epsilon": self.epsilon,
            "format": self.output_format,
        }
        if self.cutoff is not None:
            out["cutoff"] = self.cutoff
        if self.tol is not None:
            out["tol"] = self.tol
        return out


# -- JSON <-> value helpers ----------------------------------------------------


def _complex_from(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    if isinstance(pair, list) and len(pair) == 2:
        return complex(pair[0], pair[1])
    raise ConfigError(f"expected a number or [re, im] pair, got {pair!r}")


def _jsonify(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(value)]
        return [[float(x) for x in row] for row in np.atleast_2d(value)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, Outcome):
        return value.value
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "criterion": v.criterion,
        "outcome": v.outcome.value,
        "witness": _jsonify(v.witness),
        "threshold": v.threshold,
        "tol": v.tol,
        "boundary": v.boundary,
        "provenance": _jsonify(v.provenance),
    }


# -- state construction --------------------------------------------------------


def _state_from_config(cfg: RunConfig):
    spec = cfg.state
    if not isinstance(spec, dict):
        raise ConfigError("config field 'state' must be an object")
    if "library" in spec:
        try:
            return build_state(
                spec["library"], spec.get("params"), cutoff=cfg.cutoff, epsilon=cfg.epsilon
            )
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if "amplitudes" in spec:
        if "cutoffs" not in spec:
            raise ConfigError("state.amplitudes requires state.cutoffs")
        amps = np.array([_complex_from(x) for x in spec["amplitudes"]])
        return StateVector(
            ModeCutoffs(tuple(spec["cutoffs"])), amps, label=spec.get("label", "custom")
        )
    if "density" in spec:
        if "cutoffs" not in spec:
            raise ConfigError("state.density requires state.cutoffs")
        mat = np.array([[_complex_from(x) for x in row] for row in spec["density"]])
        return DensityMatrix(
            ModeCutoffs(tuple(spec["cutoffs"])), mat, label=spec.get("label", "custom")
        )
    if "moments" in spec:
        dims = spec.get("dims")
        if dims is None:
            raise ConfigError("state.moments requires state.dims")
        num_modes = len(dims)
        table = {
            Monomial.from_string(key, num_modes): _complex_from(value)
            for key, value in spec["moments"].items()
        }
        return TableSource(table, num_modes, label=spec.get("label", "moment-table"), dims=dims)
    raise ConfigError(
        "state must specify one of: library, amplitudes, density, moments"
    )


# -- criterion registry --------------------------------------------------------


def _tensor_class(params: dict) -> OperatorClass:
    cls = params.get("class", {})
    side_a = cls.get("side_a", ["1", "a"])
    side_b = cls.get("side_b", ["1", "b"])
    modes_a = tuple(cls.get("modes_a", [0]))
    modes_b = tuple(cls.get("modes_b", [1]))
    return OperatorClass.from_strings(side_a, side_b, modes_a, modes_b)


def _generic_class(params: dict) -> GenericClass:
    cls = params.get("class", {})
    ops = cls.get("ops")
    if ops is None:
        raise ConfigError("this criterion needs class.ops (a list of monomial strings)")
    modes_a = tuple(cls.get("modes_a", [0]))
    modes_b = tuple(cls.get("modes_b", [1]))
    return GenericClass.from_strings(ops, modes_a, modes_b)


def _r(params: dict) -> tuple[int, ...] | None:
    r = params.get("r")
    return tuple(int(x) for x in r) if r is not None else None


def _map_from(params: dict):
    raw = params.get("map")
    if raw is None:
        raise ConfigError("this criterion needs a 'map' object")
    kind = raw.get("kind")
    if kind == "stormer":
        return stormer_map()
    if kind == "choi":
        return choi_map(ChoiParams(raw.get("alpha", 2.0), raw.get("beta", 0.0), raw.get("gamma", 1.0)))
    if kind == "breuer":
        dim = int(raw.get("dim", 4))
        if "phases" in raw:
            rotation = np.array(raw["rotation"], dtype=float) if "rotation" in raw else None
            u = breuer_unitary(tuple(raw["phases"]), rotation)
        else:
            u = breuer_antidiagonal_unitary(dim)
        return breuer_map(BreuerParams(dim, u))
    if kind == "kossakowski":
        n = int(raw.get("n", 3))
        dim = n * n - 1
        rotation = np.array(raw["rotation"], dtype=float) if "rotation" in raw else np.eye(dim)
        return kossakowski_map(KossakowskiParams(n, rotation))
    raise ConfigError(f"unknown map kind {raw.get('kind')!r}")


def _run_pt_norm(state, params, tol):
    return [pt_norm_test(state, _tensor_class(params), tol=tol)]


def _run_realign_norm(state, params, tol):
    return [realign_norm_test(state, _tensor_class(params), tol=tol)]


def _run_pt_min_eig(state, params, tol):
    return [pt_min_eig_test(state, _tensor_class(params), tol=tol)]


def _run_pt_sylvester(state, params, tol):
    r = _r(params)
    r_list = [r] if r else params.get("r_list")
    return [
        pt_sylvester_test(
            state,
            _tensor_class(params),
            r_list=r_list,
            max_minor_size=int(params.get("max_minor_size", 4)),
            tol=tol,
        )
    ]


def _run_generic_pt_det(state, params, tol):
    return [generic_pt_det_test(state, _generic_class(params), r=_r(params), tol=tol)]


def _run_map(state, params, tol):
    return [
        map_test(
            state,
            _tensor_class(params),
            _map_from(params),
            side=params.get("side", "A"),
            r=_r(params),
            tol=tol,
        )
    ]


def _run_hz_two_mode(state, params, tol):
    return [hz_two_mode(state, tuple(params.get("modes", (0, 1))), tol=tol)]


def _run_hz_three_mode(state, params, tol):
    return [
        hz_three_mode(
            state,
            variant=int(params.get("variant", 1)),
            modes=tuple(params.get("modes", (0, 1, 2))),
            tol=tol,
        )
    ]


def _run_breuer_inequality(state, params, tol):
    return [breuer_inequality_test(state, tuple(params.get("modes", (0, 1))), tol=tol)]


def _run_breuer_bell(state, params, tol):
    return [breuer_bell_test(state, tol=tol)]


def _run_sv_cat(state, params, tol):
    return [sv_cat_state_test(state, tol=tol)]


def _run_state_ppt(state, params, tol):
    dims = params.get("dims", getattr(state, "dims", None))
    if dims is None:
        raise ConfigError("state_ppt needs 'dims' = [d_a, d_b]")
    dims = tuple(dims)
    if isinstance(state, TableSource):
        rho = two_qubit_density(state) if dims == (2, 2) else reconstruct_density(state, dims)
    elif isinstance(state, StateVector):
        rho = state.density()
    else:
        rho = state
    return state_level_tests(rho, dims, tol=tol)


CRITERIA = {
    "pt_norm": (_run_pt_norm, "normalized PT trace norm > 1 (tensor class)"),
    "realign_norm": (_run_realign_norm, "normalized realignment trace norm > 1 (tensor class)"),
    "pt_min_eig": (_run_pt_min_eig, "negative eigenvalue of the PT moment matrix"),
    "pt_sylvester": (_run_pt_sylvester, "negative principal minor of the PT moment matrix"),
    "generic_pt_det": (_run_generic_pt_det, "determinant over a generic class on the PT state"),
    "map": (_run_map, "positive map applied to one side of the moment matrix"),
    "hz_two_mode": (_run_hz_two_mode, "two-mode number-correlation inequality"),
    "hz_three_mode": (_run_hz_three_mode, "three-mode number-correlation inequality (variant 1|2)"),
    "breuer_inequality": (_run_breuer_inequality, "two-mode time-reversal inequality"),
    "breuer_bell": (_run_breuer_bell, "time-reversal witness on rows (1,6,9)"),
    "sv_cat": (_run_sv_cat, "3x3 PT determinant over (1, b, ab)"),
    "state_ppt": (_run_state_ppt, "state-level PT/realignment tests (reconstruction aware)"),
}


# -- run + report ----------------------------------------------------------------


def run(config: RunConfig) -> dict:
    """Execute the configured criteria; per-criterion failures do not abort."""
    state = _state_from_config(config)
    label = getattr(state, "label", "state")
    records = []
    entangled = errors = 0
    for spec in config.criteria:
        runner, _ = CRITERIA[spec.name]
        try:
            verdicts = runner(state, spec.params, config.tol)
            for v in verdicts:
                records.append(verdict_to_dict(v))
                entangled += int(v.outcome is Outcome.ENTANGLED)
        except Exception as exc:
            errors += 1
            records.append(
                {
                    "criterion": spec.name,
                    "outcome": "ERROR",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    summary = f"{label}: {entangled} ENTANGLED verdict(s) out of {len(records)} record(s)"
    return {
        "schema": REPORT_SCHEMA,
        "state": label,
        "verdicts": records,
        "entangled_count": entangled,
        "error_count": errors,
        "summary": summary,
    }


def format_human(report: dict) -> str:
    lines = [f"state: {report['state']}"]
    for rec in report["verdicts"]:
        if rec.get("outcome") == "ERROR":
            lines.append(f"  [ERROR       ] {rec['criterion']}: {rec['error']}")
            continue
        witness = rec.get("witness", {})
        shown = {
            k: v
            for k, v in witness.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        pieces = ", ".join(f"{k}={v:.9g}" for k, v in shown.items())
        flag = " (boundary)" if rec.get("boundary") else ""
        lines.append(
            f"  [{rec['outcome']:<12}] {rec['criterion']}: {pieces}"
            f" | tol={rec['tol']:g}{flag}"
        )
    lines.append(report["summary"])
    return "\n".join(lines)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="momentcrit",
        description="Entanglement detection from matrices of ladder-operator moments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run criteria from a JSON config")
    p_analyze.add_argument("config", help="path to the JSON run configuration")
    p_analyze.add_argument("--out", help="write the report here instead of stdout")
    p_analyze.add_argument("--cutoff", type=int, help="override the per-mode cutoff")
    p_analyze.add_argument("--epsilon", type=float, help="override the coherent norm-deficit target")
    p_analyze.add_argument("--tol", type=float, help="override the verdict tolerance")
    p_analyze.add_argument("--format", choices=["human", "structured"], help="output format")

    p_regress = sub.add_parser("regress", help="run the reference regression suite")
    p_regress.add_argument("--format", choices=["human", "structured"], default="human")

    sub.add_parser("list-states", help="list the named state library")
    sub.add_parser("list-criteria", help="list available criterion names")

    args = parser.parse_args(argv)

    if args.command == "list-states":
        for name, desc in list_states().items():
            print(f"{name:<20} {desc}")
        return EXIT_OK

    if args.command == "list-criteria":
        for name, (_, desc) in sorted(CRITERIA.items()):
            print(f"{name:<20} {desc}")
        return EXIT_OK

    if args.command == "regress":
        report = run_regression_suite()
        if args.format == "structured":
            payload = {
                "passed": report.passed,
                "failed": report.failed,
                "results": [dataclasses.asdict(r) for r in report.results],
                "norm_ordering": report.observations,
            }
            print(json.dumps(_jsonify(payload), indent=2, default=str))
        else:
            for r in report.results:
                status = "PASS" if r.passed else "FAIL"
                extra = f"  ({r.error})" if r.error else ""
                print(f"[{status}] {r.fixture_id}: {r.description}{extra}")
            bad = [o for o in report.observations if not o["ok"]]
            print(
                f"norm ordering observed on {len(report.observations)} pairs; "
                f"{len(bad)} counterexample(s)"
            )
            for o in bad:
                print(f"  counterexample: {o}")
            print(f"{report.passed} passed, {report.failed} failed")
        return EXIT_OK if report.ok else EXIT_INTERNAL

    # analyze
    try:
        with open(args.config) as fh:
            text = fh.read()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            print(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
            return EXIT_CONFIG
        config = RunConfig.from_dict(raw)
        if args.cutoff is not None:
            config.cutoff = args.cutoff
        if args.epsilon is not None:
            config.epsilon = args.epsilon
        if args.tol is not None:
            config.tol = args.tol
        if args.format is not None:
            config.output_format = args.format
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run(config)
    except (ConfigError, DimensionError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if config.output_format == "structured":
        _emit(json.dumps(report, indent=2), args.out)
    else:
        _emit(format_human(report), args.out)
    if report["entangled_count"] > 0:
        return EXIT_ENTANGLED
    return EXIT_ERRORS if report["error_count"] > 0 else EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
