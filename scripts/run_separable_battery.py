#!/usr/bin/env python3
"""Soundness scan: run every criterion over random separable states.

Each state is checked twice: as a state, and as its complete moment table
(every two-mode monomial with powers <= 3, enough for all criteria here), so
the scan covers the table path too.  A correct build prints zero ENTANGLED
verdicts.  Useful when touching tolerances, padding policy or the map catalog.

Usage: python scripts/run_separable_battery.py [--states N] [--seed S]
"""

import argparse
import itertools
import time

import numpy as np

from momentcrit.criteria import (
    Outcome,
    breuer_bell_test,
    breuer_inequality_test,
    hz_two_mode,
    map_test,
    pt_min_eig_test,
    pt_norm_test,
    pt_sylvester_test,
    realign_norm_test,
    sv_cat_state_test,
)
from momentcrit.fock import Monomial
from momentcrit.moments import OperatorClass, TableSource, moment
from momentcrit.posmaps import BreuerParams, breuer_antidiagonal_unitary, breuer_map, stormer_map
from momentcrit.sampling import (
    random_coherent_product,
    random_coherent_separable_mixture,
    random_product_pure,
    random_separable_mixture,
)

STD = OperatorClass.from_strings(["1", "a"], ["1", "b"])
TRIPLE = OperatorClass.from_strings(["1", "a", "a"], ["1", "b", "b"])
F2 = OperatorClass.from_strings(["1", "a", "Aa", "1"], ["1", "b", "Bb", "1"])
BREUER4 = breuer_map(BreuerParams(4, breuer_antidiagonal_unitary(4)))

CRITERIA = {
    "pt_norm": lambda s: pt_norm_test(s, STD),
    "realign_norm": lambda s: realign_norm_test(s, STD),
    "pt_min_eig": lambda s: pt_min_eig_test(s, STD),
    "pt_sylvester": lambda s: pt_sylvester_test(s, STD, max_minor_size=3),
    "hz_two_mode": hz_two_mode,
    "breuer_inequality": breuer_inequality_test,
    "sv_cat": sv_cat_state_test,
    "stormer_map": lambda s: map_test(s, TRIPLE, stormer_map(), side="A", r=(2, 3, 7)),
    "breuer_map": lambda s: map_test(s, F2, BREUER4, side="A", r=(2, 5)),
    "breuer_bell": breuer_bell_test,
}
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

    start = time.perf_counter()
    false_flags = 0
    for i, state in enumerate(battery):
        for source in (state, complete_table(state)):
            for name, criterion in CRITERIA.items():
                verdict = criterion(source)
                if verdict.outcome is Outcome.ENTANGLED:
                    false_flags += 1
                    print(f"FALSE FLAG on #{i} ({source.label}) by {name}: {verdict.witness}")
    elapsed = time.perf_counter() - start
    print(
        f"{len(battery)} separable states, each as state and as table, x {len(CRITERIA)} "
        f"criteria in {elapsed:.1f}s: {false_flags} ENTANGLED verdicts"
    )
    raise SystemExit(1 if false_flags else 0)


if __name__ == "__main__":
    main()
