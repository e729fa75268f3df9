"""Batch command-line front end.

Subcommands:
  analyze <config.json>   run the criteria listed in a JSON config
  regress                 run the reference regression suite
  list-states             show the named state library
  list-criteria           show the criterion names and the keys each accepts

Config and report are JSON; complex numbers are [re, im] pairs.  ``CRITERIA``
is the one criterion table.  ``RunConfig.from_dict`` checks every entry's keys
and values against it, and its rows ``r``/``r_list`` against its class, and
prepares each call before any state is built; it also refuses unknown
top-level keys and a state object that mixes kinds or carries a key its kind
does not take (``_STATE_KINDS``).
``analyze_state`` runs the prepared calls on a state or moment table.  Checks
that need the state (whether the modes exist, map dimension) stay with the
criterion and end as ERROR records.

Exit codes: 0 = ran, nothing detected; 3 = ran, at least one ENTANGLED verdict
(takes precedence); 4 = ran, at least one ERROR record and no ENTANGLED
verdict; 2 = config error; 1 = internal error (analyze) / failures (regress).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Callable
from functools import partial
from operator import index

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
    resolve_tol,
    sv_cat_state_test,
)
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
    call: Callable = dataclasses.field(repr=False, compare=False)  # see Criterion.prepare

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
        _parse("config", lambda r: _check_keys(r, _CONFIG_KEYS), raw)
        if "state" not in raw:
            raise ConfigError("config field 'state' is required")
        _state_kind(raw["state"])
        criteria = raw.get("criteria", [])
        if not isinstance(criteria, list):
            raise ConfigError("config field 'criteria' must be a list")
        fmt = raw.get("format", "human")
        if fmt not in ("human", "structured"):
            raise ConfigError("config field 'format' must be 'human' or 'structured'")
        cutoff, tol = raw.get("cutoff"), raw.get("tol")
        return cls(
            state=raw["state"],
            criteria=[_criterion_spec(idx, entry) for idx, entry in enumerate(criteria)],
            cutoff=None if cutoff is None else _parse("cutoff", index, cutoff),
            epsilon=_parse("epsilon", float, raw.get("epsilon", 1e-10)),
            tol=None if tol is None else _parse("tol", partial(resolve_tol, None), tol),
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


def _parse(where: str, convert, value):
    """convert(value); a value of the wrong shape is a ConfigError that names where."""
    try:
        return convert(value)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _complex_from(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    if isinstance(pair, list) and len(pair) == 2:
        return complex(pair[0], pair[1])
    raise ConfigError(f"expected a number or [re, im] pair, got {pair!r}")


def _complex_array(raw, ndim: int) -> np.ndarray:
    """An ndim-deep nest of lists of numbers or [re, im] pairs as a complex array.

    A regular nest of only numbers, or of only pairs, converts in one step; anything
    else (strings, None, ragged rows, scalars mixed with pairs) goes element by element.
    """
    if ndim == 0:
        return _complex_from(raw)
    try:
        arr = np.array(raw)
    except ValueError:  # ragged rows
        arr = None
    if arr is not None and arr.dtype.kind in "iuf":
        if arr.ndim == ndim:
            return arr.astype(complex)
        if arr.ndim == ndim + 1 and arr.shape[-1] == 2:
            # re-pairs viewed as complex, so an infinite imaginary part stays imaginary
            return np.ascontiguousarray(arr, float).view(complex)[..., 0]
    return np.array([_complex_array(x, ndim - 1) for x in raw], dtype=complex)


def _jsonify(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        m = np.atleast_2d(value)
        if np.iscomplexobj(m):
            return np.stack((m.real, m.imag), -1).tolist()
        return m.astype(float).tolist()
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


_CONFIG_KEYS = {"state", "criteria", "format", "cutoff", "epsilon", "tol"}
# state kind -> the other keys a state of that kind takes
_STATE_KINDS = {"library": {"params"}, "amplitudes": {"cutoffs", "label"},
                "density": {"cutoffs", "label"}, "moments": {"dims", "label"}}


def _state_kind(spec) -> str:
    """The kind of a state object whose keys are those of exactly one kind."""
    if not isinstance(spec, dict):
        raise ConfigError("config field 'state' must be an object")
    kinds = [k for k in _STATE_KINDS if k in spec]
    if len(kinds) != 1:
        raise ConfigError(
            f"state must specify exactly one of: {', '.join(_STATE_KINDS)}; got {kinds}"
        )
    _parse("state", lambda s: _check_keys(s, {kinds[0], *_STATE_KINDS[kinds[0]]}), spec)
    return kinds[0]


def _state_from_config(cfg: RunConfig):
    spec = cfg.state
    kind = _state_kind(spec)
    if kind == "library":
        params = spec.get("params") or {}
        if not isinstance(params, dict):
            raise ConfigError("state.params must be an object")
        try:
            return build_state(spec["library"], params, cutoff=cfg.cutoff, epsilon=cfg.epsilon)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        except TypeError as exc:  # a parameter the library state does not take
            raise ConfigError(f"state.params: {exc}") from exc
    if kind == "moments":
        if spec.get("dims") is None:
            raise ConfigError("state.moments requires state.dims")
        dims = _parse("state.dims", _ints, spec["dims"])
        table = _parse(
            "state.moments",
            lambda m: {Monomial.from_string(k, len(dims)): _complex_from(v) for k, v in m.items()},
            spec["moments"],
        )
        return TableSource(table, len(dims), label=spec.get("label", "moment-table"), dims=dims)
    if "cutoffs" not in spec:
        raise ConfigError(f"state.{kind} requires state.cutoffs")
    make, ndim = (StateVector, 1) if kind == "amplitudes" else (DensityMatrix, 2)
    values = _parse(f"state.{kind}", partial(_complex_array, ndim=ndim), spec[kind])
    cutoffs = ModeCutoffs(_parse("state.cutoffs", _ints, spec["cutoffs"]))
    return make(cutoffs, values, label=spec.get("label", "custom"))


# -- criterion table -----------------------------------------------------------


def _check_keys(raw, accepted) -> dict:
    """raw itself, once it is an object whose keys all lie in accepted."""
    if not isinstance(raw, dict):
        raise ConfigError(f"expected an object, got {raw!r}")
    if unknown := sorted(set(raw) - set(accepted)):
        raise ConfigError(f"unknown key(s) {unknown}; accepted: {sorted(accepted)}")
    return raw


def _ints(raw) -> tuple[int, ...]:
    if not isinstance(raw, (list, tuple)):
        raise TypeError(f"expected a list of integers, got {raw!r}")
    return tuple(index(x) for x in raw)  # index() refuses floats and strings


def _checked(convert, accept, expected: str):
    """A converter that refuses a converted value failing accept: "expected ..., got ..."."""
    def check(raw):
        value = convert(raw)
        if not accept(value):
            raise ValueError(f"expected {expected}, got {value!r}")
        return value

    return check


_side = _checked(lambda raw: raw, lambda side: side in ("A", "B"), "'A' or 'B'")
_positive = _checked(index, lambda n: n >= 1, "an integer >= 1")
_variant = _checked(index, lambda v: v in (1, 2), "1 or 2")
_rows = _checked(_ints, len, "a nonempty list of row indices")
_r_list = _checked(lambda raw: [_rows(r) for r in raw], len, "a nonempty list of index lists")


def _modes_of(count: int):
    return _checked(_ints, lambda modes: len(modes) == count, f"{count} modes")


def _modes(cls: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return _ints(cls.get("modes_a", [0])), _ints(cls.get("modes_b", [1]))


def _tensor_class(raw) -> OperatorClass:
    cls = _check_keys(raw, {"side_a", "side_b", "modes_a", "modes_b"})
    return OperatorClass.from_strings(
        cls.get("side_a", ["1", "a"]), cls.get("side_b", ["1", "b"]), *_modes(cls)
    )


def _generic_class(raw) -> GenericClass:
    cls = _check_keys(raw, {"ops", "modes_a", "modes_b"})
    if "ops" not in cls:
        raise ConfigError("'ops' (a list of monomial strings) is required")
    return GenericClass.from_strings(cls["ops"], *_modes(cls))


_MAP_KEYS = {"stormer": (), "choi": ("alpha", "beta", "gamma"),
             "breuer": ("dim", "phases", "rotation"), "kossakowski": ("n", "rotation")}


def _map_from(raw):
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in _MAP_KEYS:
        raise ConfigError(f"expected an object with 'kind' in {list(_MAP_KEYS)}, got {raw!r}")
    _check_keys(raw, {"kind", *_MAP_KEYS[kind]})
    if kind == "stormer":
        return stormer_map()
    if kind == "choi":
        return choi_map(ChoiParams(raw.get("alpha", 2.0), raw.get("beta", 0.0), raw.get("gamma", 1.0)))
    rotation = np.array(raw["rotation"], dtype=float) if "rotation" in raw else None
    if kind == "breuer":
        dim = index(raw.get("dim", 4))
        if "phases" in raw:
            return breuer_map(BreuerParams(dim, breuer_unitary(tuple(raw["phases"]), rotation)))
        return breuer_map(BreuerParams(dim, breuer_antidiagonal_unitary(dim)))
    n = index(raw.get("n", 3))
    return kossakowski_map(KossakowskiParams(n, rotation))


def _state_ppt(state, dims=None, tol=None):
    """State-level tests on the density matrix; a moment table is reconstructed first."""
    # a table's per-mode dims are the bipartite [d_a, d_b] only when it has two modes
    if dims is None and state.num_modes == 2:
        dims = getattr(state, "dims", None)
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


@dataclasses.dataclass(frozen=True)
class Criterion:
    """One row of the criterion table.  ``prepare`` binds the converted params into a
    call ``(state, tol=...)`` returning a Verdict or a list of them.  It runs when a
    config is read, so the functions it binds are looked up in this module then."""

    description: str
    keys: dict  # accepted config key -> converter of its JSON value
    prepare: Callable[[dict], Callable]


_STD = _tensor_class({})  # rows (1, a, b, ab)
_CLASS = {"class": _tensor_class}
_MODES = {"modes": _modes_of(2)}

CRITERIA = {
    "pt_norm": Criterion("normalized PT trace norm > 1 (tensor class)", _CLASS,
                         lambda p: partial(pt_norm_test, cls=p.get("class", _STD))),
    "realign_norm": Criterion("normalized realignment trace norm > 1 (tensor class)", _CLASS,
                              lambda p: partial(realign_norm_test, cls=p.get("class", _STD))),
    "pt_min_eig": Criterion("negative eigenvalue of the PT moment matrix", _CLASS,
                            lambda p: partial(pt_min_eig_test, cls=p.get("class", _STD))),
    "pt_sylvester": Criterion(
        "negative principal minor of the PT moment matrix",
        {**_CLASS, "r": _rows, "r_list": _r_list, "max_minor_size": _positive},
        lambda p: partial(pt_sylvester_test, cls=p.get("class", _STD),
                          r_list=[p["r"]] if "r" in p else p.get("r_list"),
                          max_minor_size=p.get("max_minor_size", 4))),
    "generic_pt_det": Criterion("determinant over a generic class on the PT state",
                                {"class": _generic_class, "r": _rows},
                                lambda p: partial(generic_pt_det_test, cls=p["class"], r=p.get("r"))),
    "map": Criterion("positive map applied to one side of the moment matrix",
                     {**_CLASS, "map": _map_from, "side": _side, "r": _rows},
                     lambda p: partial(map_test, cls=p.get("class", _STD), pmap=p["map"],
                                       side=p.get("side", "A"), r=p.get("r"))),
    "hz_two_mode": Criterion("two-mode number-correlation inequality", _MODES,
                             lambda p: partial(hz_two_mode, **p)),
    "hz_three_mode": Criterion("three-mode number-correlation inequality (variant 1|2)",
                               {"variant": _variant, "modes": _modes_of(3)},
                               lambda p: partial(hz_three_mode, **p)),
    "breuer_inequality": Criterion("two-mode time-reversal inequality", _MODES,
                                   lambda p: partial(breuer_inequality_test, **p)),
    "breuer_bell": Criterion("time-reversal witness on rows (1,6,9)", {},
                             lambda p: partial(breuer_bell_test)),
    "sv_cat": Criterion("3x3 PT determinant over (1, b, ab)", {},
                        lambda p: partial(sv_cat_state_test)),
    "state_ppt": Criterion("state-level PT/realignment tests (reconstruction aware)",
                           {"dims": _ints}, lambda p: partial(_state_ppt, **p)),
}


def _criterion_spec(idx: int, entry) -> CriterionSpec:
    """Check one criteria entry against the table and prepare its call."""
    name = entry.get("name") if isinstance(entry, dict) else None
    if not isinstance(name, str) or name not in CRITERIA:
        raise ConfigError(f"criteria[{idx}] must be an object with a 'name' field, one of "
                          f"{', '.join(sorted(CRITERIA))}; got name {name!r}")
    criterion = CRITERIA[name]
    where = f"criteria[{idx}] ({name})"
    params = {k: v for k, v in entry.items() if k != "name"}
    _parse(where, lambda p: _check_keys(p, criterion.keys), params)
    parsed = {k: _parse(f"{where} key {k!r}", criterion.keys[k], v) for k, v in params.items()}
    try:
        call = criterion.prepare(parsed)
    except KeyError as exc:
        raise ConfigError(f"{where}: key {exc} is required") from exc
    # the class fixes the row count, so malformed rows are refused before any build
    cls = parsed.get("class", _STD)
    n = cls.size if isinstance(cls, GenericClass) else cls.d_a * cls.d_b
    for r in ([parsed["r"]] if "r" in parsed else []) + parsed.get("r_list", []):
        if not (r[0] >= 1 and r[-1] <= n and all(a < b for a, b in zip(r, r[1:]))):
            raise ConfigError(f"{where}: rows {list(r)} must be strictly increasing within 1..{n}")
    return CriterionSpec(name, params, call)


# -- run + report ----------------------------------------------------------------


def analyze_state(state, criteria: list[CriterionSpec], tol: float | None = None) -> dict:
    """Run prepared criteria on a state or moment table; failures become ERROR records."""
    label = getattr(state, "label", "state")
    records = []
    entangled = errors = 0
    for spec in criteria:
        try:
            result = spec.call(state, tol=tol)
            for v in result if isinstance(result, list) else [result]:
                records.append(verdict_to_dict(v))
                entangled += int(v.outcome is Outcome.ENTANGLED)
        except Exception as exc:
            errors += 1
            error = f"{type(exc).__name__}: {exc}"
            records.append({"criterion": spec.name, "outcome": "ERROR", "error": error})
    summary = f"{label}: {entangled} ENTANGLED verdict(s) out of {len(records)} record(s)"
    return {
        "schema": REPORT_SCHEMA,
        "state": label,
        "verdicts": records,
        "entangled_count": entangled,
        "error_count": errors,
        "summary": summary,
    }


def run(config: RunConfig) -> dict:
    """Build the configured state and run the configured criteria on it."""
    return analyze_state(_state_from_config(config), config.criteria, config.tol)


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


def format_structured(report: dict) -> str:
    """The report as JSON: an indented header and one compact line per verdict.

    ``json.dumps`` with ``indent`` set runs the pure-Python encoder, which costs more
    than the criteria on witness matrices; each verdict goes through the C encoder.
    """
    fields = []
    for key, value in report.items():
        if key == "verdicts" and value:
            text = "[\n" + ",\n".join(f"    {json.dumps(rec)}" for rec in value) + "\n  ]"
        else:
            text = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _build_parser() -> argparse.ArgumentParser:
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
    return parser


_PARSER = _build_parser()  # parse_args keeps no state between calls


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    if args.command == "list-states":
        for name, desc in list_states().items():
            print(f"{name:<20} {desc}")
        return EXIT_OK

    if args.command == "list-criteria":
        for name, crit in sorted(CRITERIA.items()):
            print(f"{name:<20} {crit.description}; keys: {', '.join(sorted(crit.keys)) or 'none'}")
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
            config.tol = _parse("--tol", partial(resolve_tol, None), args.tol)
        if args.format is not None:
            config.output_format = args.format
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run(config)
    except (ValueError, KeyError) as exc:  # ConfigError, DimensionError, MissingMomentError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if config.output_format == "structured":
        _emit(format_structured(report), args.out)
    else:
        _emit(format_human(report), args.out)
    if report["entangled_count"] > 0:
        return EXIT_ENTANGLED
    return EXIT_ERRORS if report["error_count"] > 0 else EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
