"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload at its tiny size and checks that every metric named in
BENCHMARK.json prints with its unit, that the correctness gate flags
injected wrong outputs, that the seed changes the generated inputs, and
that the exact counts repeat across two traced runs with one seed.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metric_names() -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics {got} != {want}"
            assert result["correct"], f"{workload} trace {trace}: gate rejected a tiny run"


def _analyse(pkg, cell, directory: Path):
    report = directory / "report.json"
    rc = pkg.cli.main(run.argv_for(cell, report))
    return rc, report.read_text()


def _forged(text: str, record: int, **changes) -> str:
    report = json.loads(text)
    rec = report["verdicts"][record]
    for key, value in changes.items():
        if key == "witness":
            rec["witness"].update(value)
        else:
            rec[key] = value
    return json.dumps(report)


def check_gate_flags_wrong_outputs() -> None:
    pkg = run.import_program()
    cells = workloads.generate("small_battery", 1, tiny=True)
    by_name = {cell.name: cell for cell in cells}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        workloads.write_configs(cells, Path(tmp))
        singlet = by_name["fixture:singlet:pt_min_eig"]
        product = next(c for c in cells if c.name.startswith("product:"))
        for cell in (singlet, product):
            expected = gate.expectations(cell)
            rc, text = _analyse(pkg, cell, Path(tmp))
            assert not gate.check(cell, expected, rc, text).problems, f"{cell.name}: clean report rejected"
            other_rc = gate.EXIT_OK if rc == gate.EXIT_ENTANGLED else gate.EXIT_ENTANGLED
            assert gate.check(cell, expected, other_rc, text).problems, "exit-code contradiction passed"
            forged = _forged(text, 0, witness={"min_eigenvalue": expected[0] - 1.0})
            assert gate.check(cell, expected, rc, forged).problems, "wrong witness passed"
        rc, text = _analyse(pkg, singlet, Path(tmp))
        forged = _forged(text, 0, outcome="INCONCLUSIVE")
        assert gate.check(singlet, {}, gate.EXIT_OK, forged).problems, "wrong pinned verdict passed"
        rc, text = _analyse(pkg, product, Path(tmp))
        forged = _forged(text, 0, outcome="ENTANGLED")
        assert gate.check(product, {}, gate.EXIT_ENTANGLED, forged).problems, \
            "ENTANGLED on a separable input passed"


def check_seed_changes_inputs() -> None:
    for workload in workloads.WORKLOADS:
        first = [c.config for c in workloads.generate(workload, 1)]
        again = [c.config for c in workloads.generate(workload, 1)]
        other = [c.config for c in workloads.generate(workload, 2)]
        assert first == again, f"{workload}: same seed gave different inputs"
        assert first != other, f"{workload}: seeds 1 and 2 gave the same inputs"
        # Only the seeded values differ between seeds, not the strata.
        strata = [
            sorted(c.name.split(":", 1)[-1] for c in workloads.generate(workload, seed))
            for seed in (1, 2)
        ]
        assert strata[0] == strata[1], f"{workload}: strata differ between seeds"


def check_exact_counts_repeat() -> None:
    for workload in workloads.WORKLOADS:
        first, second = bench(workload, 1, seed=5), bench(workload, 1, seed=5)
        for key in tracing.EXACT_COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            assert a == b, f"{workload}: {key} differs between traced runs of one seed: {a!r} != {b!r}"


def main() -> int:
    checks = [
        check_seed_changes_inputs,
        check_gate_flags_wrong_outputs,
        check_metric_names,
        check_exact_counts_repeat,
    ]
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
