"""Correctness gate: checks one analysis's exit code and report.

A record fails when it is an ERROR record, when ``main`` returned 1 or 2 (or
raised), when the exit code contradicts the report, or when the gate
rejects it.  The gate rejects:

- an ENTANGLED verdict on an input that is separable by construction;
- a verdict other than the pinned one on a pinned fixture record;
- a ``pt_min_eig``, ``pt_norm`` or ``realign_norm`` witness that differs
  from the plain-numpy reference by more than the verdict's ``tol``.

Rejections and exit-code contradictions make the run incorrect; ERROR
records and config errors only count as failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import reference
from workloads import Cell

WITNESS_KEYS = {
    "pt_min_eig": "min_eigenvalue",
    "pt_norm": "nu_gamma",
    "realign_norm": "nu_realign",
}
EXIT_OK, EXIT_ENTANGLED = 0, 3


def _reference_state(cell: Cell):
    if cell.state is not None:
        return cell.state
    spec = cell.config["state"]
    if "library" in spec:
        return reference.library_state(spec["library"], spec.get("params"))
    return None


def expectations(cell: Cell) -> dict[int, float]:
    """Reference witness value for each record the reference can check."""
    state = _reference_state(cell)
    if state is None:
        return {}
    num_modes = len(state[1])
    out = {}
    cache = {}
    for i, crit in enumerate(cell.records()):
        if crit["name"] in WITNESS_KEYS:
            key = json.dumps(crit.get("class", {}), sort_keys=True)
            if key not in cache:
                rows, d_a, d_b = reference.tensor_class_ops(crit.get("class", {}), num_modes)
                cache[key] = reference.witnesses(reference.moment_matrix(state, rows), d_a, d_b)
            out[i] = cache[key][crit["name"]]
    return out


@dataclass
class Checked:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def incorrect(self) -> bool:
        return bool(self.problems)


def check(cell: Cell, expected: dict[int, float], rc, report_text: str | None) -> Checked:
    """Classify every record of one analysis.  ``rc`` is None if main raised."""
    names = [crit["name"] for crit in cell.records()]
    out = Checked(attempted=len(names))
    if rc not in (EXIT_OK, EXIT_ENTANGLED) or report_text is None:
        out.failed = out.attempted
        return out
    records = json.loads(report_text)["verdicts"]
    if len(records) != len(names):
        out.failed = out.attempted
        out.problems.append(f"{cell.name}: {len(records)} records for {len(names)} expected")
        return out
    entangled = any(r["outcome"] == "ENTANGLED" for r in records)
    if entangled != (rc == EXIT_ENTANGLED):
        out.failed = out.attempted
        out.problems.append(f"{cell.name}: exit code {rc} contradicts the report")
        return out
    for i, (name, rec) in enumerate(zip(names, records)):
        problem = _record_problem(cell, expected, i, name, rec)
        if problem:
            out.problems.append(f"{cell.name}: record {i} ({name}): {problem}")
        if problem or rec["outcome"] == "ERROR":
            out.failed += 1
    return out


def _record_problem(cell: Cell, expected: dict[int, float], i: int, name: str, rec: dict):
    outcome = rec["outcome"]
    if cell.separable and outcome == "ENTANGLED":
        return "ENTANGLED on a separable input"
    pinned = cell.pinned.get(i)
    if pinned is not None and outcome != pinned:
        return f"{outcome} where the pinned fixture says {pinned}"
    if i in expected and outcome != "ERROR":
        value = rec["witness"][WITNESS_KEYS[name]]
        if abs(value - expected[i]) > rec["tol"]:
            return f"witness {value!r} differs from reference {expected[i]!r} by more than tol {rec['tol']}"
    return None
