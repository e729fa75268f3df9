#!/usr/bin/env python3
"""Soundness scan: run the criteria of configs/separable_battery.json over random separable states.

Each state is checked twice: as a state, and as its complete moment table
(every two-mode monomial with powers <= 3, enough for all criteria there), so
the scan covers the table path too.  A correct build prints zero ENTANGLED
verdicts and zero ERROR records.  Useful when touching tolerances, the
moment engine or the map catalog.

Usage: python scripts/run_separable_battery.py [--states N] [--seed S]
"""

import argparse
import itertools
import json
import time
from pathlib import Path

import numpy as np

from momentcrit.cli import RunConfig, analyze_state
from momentcrit.fock import Monomial
from momentcrit.moments import TableSource, moment
from momentcrit.sampling import (
    random_coherent_product,
    random_coherent_separable_mixture,
    random_product_pure,
    random_separable_mixture,
)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "separable_battery.json"
POWERS = list(itertools.product(range(4), repeat=2))


def complete_table(state) -> TableSource:
    """Every two-mode moment with powers <= 3, read off the state."""
    specs = [Monomial((pa, pb)) for pa in POWERS for pb in POWERS]
    return TableSource({s: moment(state, s) for s in specs}, 2, label=f"table:{state.label}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--states", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    quarter = max(1, args.states // 4)
    battery = []
    for _ in range(args.states - 2 * quarter):
        battery.append(random_separable_mixture(rng, (2, 2), terms=int(rng.integers(1, 5))))
    for _ in range(quarter):
        battery.append(random_product_pure(rng, (2, 2)))
    for _ in range(quarter // 2):
        battery.append(random_coherent_product(rng, 0.5))
    for _ in range(quarter - quarter // 2):
        battery.append(random_coherent_separable_mixture(rng, 2, 0.5))
    criteria = RunConfig.from_dict(json.loads(CONFIG.read_text())).criteria

    start = time.perf_counter()
    false_flags = errors = 0
    for i, state in enumerate(battery):
        for source in (state, complete_table(state)):
            report = analyze_state(source, criteria)
            false_flags += report["entangled_count"]
            errors += report["error_count"]
            for rec in report["verdicts"]:
                if rec["outcome"] in ("ENTANGLED", "ERROR"):
                    detail = rec.get("error") or {  # the scalar witnesses, not array refs
                        k: v for k, v in rec["witness"].items() if isinstance(v, (int, float))}
                    print(f"{rec['outcome']} on #{i} ({source.label}) by {rec['criterion']}: {detail}")
    elapsed = time.perf_counter() - start
    print(
        f"{len(battery)} separable states, each as state and as table, x {len(criteria)} "
        f"criteria in {elapsed:.1f}s: {false_flags} ENTANGLED verdicts, {errors} ERROR records"
    )
    raise SystemExit(1 if false_flags or errors else 0)


if __name__ == "__main__":
    main()
