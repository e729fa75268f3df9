"""Batch command-line front end.

Subcommands:
  analyze <config.json>   run the criteria listed in a JSON config
  regress                 run the reference regression suite
  list-states             show the named state library
  list-criteria           show the criterion names and the keys each accepts

Config and report are JSON; complex numbers are [re, im] pairs, except in the
report's ``arrays`` table, which holds each witness array's exact bytes.
``CRITERIA`` is the one criterion table.  ``RunConfig.from_dict`` checks every
entry's keys and values against it, its rows ``r``/``r_list`` against its class,
and the minor count of a full Sylvester scan against the budget, and
prepares each call before any state is built; it also refuses unknown
top-level keys and a state object that mixes kinds or carries a key its kind
does not take (``_STATE_KINDS``), and converts inline amplitudes or a density
matrix into an ndarray.  ``analyze`` reads its config through ``_read_config``.
``analyze_state`` runs the prepared calls on a state or moment table.  Checks
that need the state (whether the modes exist, map dimension) stay with the
criterion and end as ERROR records.

Exit codes: 0 = ran, nothing detected; 3 = ran, at least one ENTANGLED verdict
(takes precedence); 4 = ran, at least one ERROR record and no ENTANGLED
verdict; 2 = config error; 1 = internal error (analyze) / failures (regress).
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import gc
import json
import sys
from collections.abc import Callable
from functools import partial
from itertools import chain
from operator import index

import numpy as np

from .criteria import (
    Outcome,
    Verdict,
    breuer_bell_test,
    breuer_inequality_test,
    check_scan_budget,
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
from .moments import GenericClass, OperatorClass, _checked_rows
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

REPORT_SCHEMA = "momentcrit-report/3"

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
    call: Callable = dataclasses.field(repr=False, compare=False)  # see Criterion.prepare


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
        kind = _state_kind(raw["state"])
        criteria = raw.get("criteria", [])
        if not isinstance(criteria, list):
            raise ConfigError("config field 'criteria' must be a list")
        fmt = raw.get("format", "human")
        if fmt not in ("human", "structured"):
            raise ConfigError("config field 'format' must be 'human' or 'structured'")
        cutoff, tol = raw.get("cutoff"), raw.get("tol")
        config = cls(
            state=raw["state"],
            criteria=[_criterion_spec(idx, entry) for idx, entry in enumerate(criteria)],
            cutoff=None if cutoff is None else _parse("cutoff", _int, cutoff),
            epsilon=_parse("epsilon", _epsilon, raw.get("epsilon", 1e-10)),
            tol=None if tol is None else _parse("tol", _tol, tol),
            output_format=fmt,
        )
        if kind in _ARRAY_NDIM:  # after every other check, as when the state was built
            config.state = _with_array(raw["state"], kind)
        return config


# -- JSON <-> value helpers ----------------------------------------------------


def _parse(where: str, convert, value):
    """convert(value); a value of the wrong shape is a ConfigError that names where."""
    try:
        return convert(value)
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _complex_from(pair) -> complex:
    """A number or [re, im] pair as a complex, refusing JSON booleans, which complex()
    reads as 0 and 1."""
    parts = pair if isinstance(pair, list) and len(pair) == 2 else [pair]
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in parts):
        raise ConfigError(f"expected a number or [re, im] pair, got {pair!r}")
    return complex(*parts)


def _leaf_types(raw, depth: int) -> set:
    """The types of the items of a regular nest of lists that is depth >= 1 levels deep."""
    for _ in range(depth - 1):
        raw = chain.from_iterable(raw)
    return set(map(type, raw))


def _complex_array(raw, ndim: int) -> np.ndarray:
    """An ndim-deep nest of lists of numbers or [re, im] pairs as a complex array.

    A regular nest of only numbers, or of only pairs, converts in one step; anything
    else (strings, None, booleans, ragged rows, scalars mixed with pairs) goes element
    by element, which refuses what is not a number.  numpy reads a boolean among
    numbers as 0 or 1, so the one-step path checks the type of every leaf.
    """
    if ndim == 0:
        return _complex_from(raw)
    try:
        arr = np.array(raw)
    except ValueError:  # ragged rows
        arr = None
    regular = (arr is not None and arr.dtype.kind in "iuf" and arr.ndim in (ndim, ndim + 1)
               and bool not in _leaf_types(raw, arr.ndim))
    if regular and arr.ndim == ndim:
        return arr.astype(complex)
    if regular and arr.shape[-1] == 2:
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


def _array_ref(arrays: dict, value: np.ndarray) -> int:
    """The index of value in a report's array table, adding it if no entry matches.

    ``arrays`` maps (dtype, shape, bytes) of each array, little-endian and in C order,
    to its index, so two arrays are one entry only if all three match and -0.0 and
    NaN payloads survive.
    """
    value = value.astype(value.dtype.newbyteorder("<"), copy=False)
    return arrays.setdefault((value.dtype.str, value.shape, value.tobytes()), len(arrays))


def _array_entry(dtype: str, shape: tuple, data: bytes) -> dict:
    """One entry of the report's ``arrays``: an array's exact bytes in base64."""
    return {"dtype": dtype, "shape": list(shape), "base64": base64.b64encode(data).decode("ascii")}


def _witness_field(arrays: dict, value, view):
    """One witness value as report JSON; an array, or the base of a declared view,
    goes into the array table and is written as a reference to its entry."""
    if view is not None:
        name, base, params = view
        return {"array": _array_ref(arrays, base), "view": name, **params}
    if isinstance(value, np.ndarray):
        return {"array": _array_ref(arrays, value)}
    return _jsonify(value)


def verdict_to_dict(v: Verdict, arrays: dict) -> dict:
    """One report record; its witness arrays go into the table ``arrays``."""
    return {
        "criterion": v.criterion,
        "outcome": v.outcome.value,
        "witness": {k: _witness_field(arrays, x, v.views.get(k)) for k, x in v.witness.items()},
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
# state kind given inline as an array -> its number of dimensions
_ARRAY_NDIM = {"amplitudes": 1, "density": 2}


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
        dims = _parse("state.dims", _dims, spec["dims"])
        table = _parse(
            "state.moments",
            lambda m: {Monomial.from_string(k, len(dims)): _complex_from(v) for k, v in m.items()},
            spec["moments"],
        )
        return TableSource(table, len(dims), label=spec.get("label", "moment-table"), dims=dims)
    make = StateVector if kind == "amplitudes" else DensityMatrix
    cutoffs = ModeCutoffs(_parse("state.cutoffs", _ints, spec["cutoffs"]))
    return make(cutoffs, spec[kind], label=spec.get("label", "custom"))


def _with_array(spec: dict, kind: str) -> dict:
    """A copy of an amplitudes or density state object with its values as one complex
    ndarray; the caller's dict keeps its lists."""
    if "cutoffs" not in spec:
        raise ConfigError(f"state.{kind} requires state.cutoffs")
    values = _parse(f"state.{kind}", partial(_complex_array, ndim=_ARRAY_NDIM[kind]), spec[kind])
    return {**spec, kind: values}


def _read_config(path: str) -> RunConfig:
    """Open, decode and check a config file with the cyclic garbage collector paused.

    An inline 16x16 density matrix decodes into 65k ``[re, im]`` lists, and the
    collections that their allocation sets off walk all of them, again and again.
    JSON decoding makes no reference cycles, so the pause leaves nothing for the
    collector to find: ``from_dict`` turns the lists into an ndarray, and reference
    counting frees them as soon as it returns, before the collector is back on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            return RunConfig.from_dict(json.loads(fh.read()))
    finally:
        if enabled:
            gc.enable()


# -- criterion table -----------------------------------------------------------


def _check_keys(raw, accepted) -> dict:
    """raw itself, once it is an object whose keys all lie in accepted."""
    if not isinstance(raw, dict):
        raise ConfigError(f"expected an object, got {raw!r}")
    if unknown := sorted(set(raw) - set(accepted)):
        raise ConfigError(f"unknown key(s) {unknown}; accepted: {sorted(accepted)}")
    return raw


def _int(raw) -> int:
    """operator.index, which refuses floats and strings, refusing JSON booleans too."""
    if isinstance(raw, bool):
        raise TypeError(f"expected an integer, got {raw!r}")
    return index(raw)


def _real(raw) -> float:
    """float(raw), refusing JSON booleans, which float() reads as 0 and 1."""
    if isinstance(raw, bool):
        raise TypeError(f"expected a number, got {raw!r}")
    return float(raw)


def _list_of(convert, what: str):
    """A converter of a JSON list whose every item goes through convert."""
    def check(raw) -> tuple:
        if not isinstance(raw, (list, tuple)):
            raise TypeError(f"expected a list of {what}, got {raw!r}")
        return tuple(convert(x) for x in raw)

    return check


_ints = _list_of(_int, "integers")
_reals = _list_of(_real, "numbers")
_matrix = _list_of(_reals, "lists of numbers")


def _tol(raw) -> float:
    return resolve_tol(None, _real(raw))


def _checked(convert, accept, expected: str):
    """A converter that refuses a converted value failing accept: "expected ..., got ..."."""
    def check(raw):
        value = convert(raw)
        if not accept(value):
            raise ValueError(f"expected {expected}, got {value!r}")
        return value

    return check


_side = _checked(lambda raw: raw, lambda side: side in ("A", "B"), "'A' or 'B'")
_positive = _checked(_int, lambda n: n >= 1, "an integer >= 1")
_variant = _checked(_int, lambda v: v in (1, 2), "1 or 2")
_dims = _checked(_ints, lambda dims: len(dims) > 0 and min(dims) >= 1,
                 "a nonempty list of integers >= 1")
_dims_ab = _checked(_ints, lambda dims: len(dims) == 2 and min(dims) >= 1, "two integers >= 1")
_epsilon = _checked(_real, lambda eps: 0 < eps < 1, "a number in (0, 1)")
_rows = _checked(_ints, len, "a nonempty list of row indices")
_r_list = _checked(lambda raw: [_rows(r) for r in raw], len, "a nonempty list of index lists")


def _modes_of(count: int):
    return _checked(_ints, lambda modes: len(modes) == count, f"{count} modes")


def _modes(cls: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return _ints(cls.get("modes_a", [0])), _ints(cls.get("modes_b", [1]))


def _monomials(cls: dict, key: str, default=None) -> list[str]:
    raw = cls.get(key, default)
    if not isinstance(raw, list) or not all(isinstance(text, str) for text in raw):
        raise ConfigError(f"'{key}' must be a list of monomial strings, got {raw!r}")
    return raw


def _tensor_class(raw) -> OperatorClass:
    cls = _check_keys(raw, {"side_a", "side_b", "modes_a", "modes_b"})
    return OperatorClass.from_strings(
        _monomials(cls, "side_a", ["1", "a"]), _monomials(cls, "side_b", ["1", "b"]), *_modes(cls)
    )


def _generic_class(raw) -> GenericClass:
    cls = _check_keys(raw, {"ops", "modes_a", "modes_b"})
    if "ops" not in cls:
        raise ConfigError("'ops' (a list of monomial strings) is required")
    return GenericClass.from_strings(_monomials(cls, "ops"), *_modes(cls))


def _breuer(p: dict):
    dim = p.get("dim", 4)
    if "phases" in p:
        return breuer_map(BreuerParams(dim, breuer_unitary(p["phases"], p.get("rotation"))))
    if "rotation" in p:  # it conjugates the phase blocks, so alone it would be ignored
        raise ConfigError("rotation: a breuer map takes 'rotation' only together with 'phases'")
    return breuer_map(BreuerParams(dim, breuer_antidiagonal_unitary(dim)))


# map kind -> (accepted key -> converter of its JSON value, build from the converted keys)
_MAPS = {
    "stormer": ({}, lambda p: stormer_map()),
    "choi": ({"alpha": _real, "beta": _real, "gamma": _real},
             lambda p: choi_map(ChoiParams(p.get("alpha", 2.0), p.get("beta", 0.0),
                                           p.get("gamma", 1.0)))),
    "breuer": ({"dim": _int, "phases": _reals, "rotation": _matrix}, _breuer),
    "kossakowski": ({"n": _int, "rotation": _matrix},
                    lambda p: kossakowski_map(KossakowskiParams(p.get("n", 3), p.get("rotation")))),
}


def _map_from(raw):
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in _MAPS:
        raise ConfigError(f"expected an object with 'kind' in {list(_MAPS)}, got {raw!r}")
    keys, build = _MAPS[kind]
    _check_keys(raw, {"kind", *keys})
    return build({k: _parse(k, keys[k], v) for k, v in raw.items() if k != "kind"})


def _state_ppt(state, dims=None, tol=None):
    """State-level tests on the density matrix; a moment table is reconstructed first,
    at its own per-mode dims, and [d_a, d_b] then splits its modes."""
    per_mode = getattr(state, "dims", None)
    if state.num_modes == 2:  # then per-mode dims and [d_a, d_b] stand in for each other
        dims, per_mode = dims or per_mode, per_mode or dims
    if dims is None:
        raise ConfigError("state_ppt needs 'dims' = [d_a, d_b]")
    if isinstance(state, TableSource):
        if per_mode is None:
            raise ConfigError("state_ppt needs the table's per-mode dims")
        per_mode = tuple(per_mode)
        rho = (two_qubit_density(state) if per_mode == (2, 2)
               else reconstruct_density(state, per_mode))
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
                           {"dims": _dims_ab}, lambda p: partial(_state_ppt, **p)),
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
    if "r" in parsed and "r_list" in parsed:
        raise ConfigError(f"{where}: give 'r' or 'r_list', not both")
    try:
        call = criterion.prepare(parsed)
    except KeyError as exc:
        raise ConfigError(f"{where}: key {exc} is required") from exc
    # the class fixes the row count, so malformed rows are refused before any build
    cls = parsed.get("class", _STD)
    n = cls.size if isinstance(cls, GenericClass) else cls.d_a * cls.d_b
    for r in [parsed["r"]] if "r" in parsed else parsed.get("r_list", []):
        _parse(where, partial(_checked_rows, size=n), r)
    if "max_minor_size" in criterion.keys and "r" not in parsed and "r_list" not in parsed:
        # a full scan, whose minor count the class and size fix
        _parse(f"{where} key 'max_minor_size'", partial(check_scan_budget, n),
               call.keywords["max_minor_size"])
    return CriterionSpec(name, call)


# -- run + report ----------------------------------------------------------------


def analyze_state(state, criteria: list[CriterionSpec], tol: float | None = None) -> dict:
    """Run prepared criteria on a state or moment table; failures become ERROR records.

    The report (``REPORT_SCHEMA``) ends with ``arrays``, the table of witness arrays
    that the records refer to, each distinct array once (see ``_array_ref``).
    """
    label = getattr(state, "label", "state")
    records, arrays = [], {}
    entangled = errors = 0
    for spec in criteria:
        try:
            result = spec.call(state, tol=tol)
            for v in result if isinstance(result, list) else [result]:
                records.append(verdict_to_dict(v, arrays))
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
        "arrays": [_array_entry(*key) for key in arrays],
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
    """The report as JSON: an indented header and one compact line per verdict and
    per array.

    ``json.dumps`` with ``indent`` set runs the pure-Python encoder, which costs more
    than the criteria on witness matrices; each verdict and array goes through the C
    encoder.
    """
    fields = []
    for key, value in report.items():
        if key in ("verdicts", "arrays") and value:
            text = "[\n" + ",\n".join(f"    {json.dumps(item)}" for item in value) + "\n  ]"
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
        config = _read_config(args.config)
        if args.cutoff is not None:
            config.cutoff = args.cutoff
        if args.epsilon is not None:
            config.epsilon = _parse("--epsilon", _epsilon, args.epsilon)
        if args.tol is not None:
            config.tol = _parse("--tol", _tol, args.tol)
        if args.format is not None:
            config.output_format = args.format
    except json.JSONDecodeError as exc:
        print(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_CONFIG
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
