"""Seeded generation of the benchmark's analysis configs.

A workload is a fixed list of strata.  Each stratum fixes what sets the cost
of an analysis (per-mode cutoffs, operator class, criteria list); the seed
only picks the values that do not change that cost: coherent amplitudes
inside the range that keeps the cutoff, random density matrices, and which
state family fills a cell.  So two seeds give different inputs but the same
mix of work, and latency quantiles compare across seeds.

Every cell carries what the correctness gate needs: whether its state is
separable by construction, which records are pinned to ENTANGLED, and the
state itself as plain arrays for the reference computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import coherent_cutoff, mode_operator

WORKLOADS = ("cat_sweep", "mixed_density", "small_battery")

C4 = {"side_a": ["1", "a"], "side_b": ["1", "b"]}
C9 = {"side_a": ["1", "a", "a"], "side_b": ["1", "b", "b"]}
C16 = {"side_a": ["1", "a", "Aa", "aa"], "side_b": ["1", "b", "Bb", "bb"]}
C36 = {
    "side_a": ["1", "a", "A", "Aa", "aa", "AA"],
    "side_b": ["1", "b", "B", "Bb", "bb", "BB"],
}


@dataclass
class Cell:
    """One analysis config plus what the correctness gate knows about it."""

    name: str
    config: dict
    separable: bool = False
    pinned: dict[int, str] = field(default_factory=dict)
    # ("pure", cutoffs, vector) | ("mixed", cutoffs, matrix) | None for tables
    state: tuple | None = None
    warm: bool = False
    path: Path | None = None

    def records(self) -> list[dict]:
        """The criterion behind each report record, in report order."""
        out = []
        for crit in self.config["criteria"]:
            out.extend([crit] * (3 if crit["name"] == "state_ppt" else 1))
        return out


# -- coherent amplitudes -------------------------------------------------------


def _amplitude_range(cutoff: int, top: float | None = None) -> tuple[float, float]:
    """Interval of |alpha| whose coherent cutoff is exactly ``cutoff``."""

    def edge(target: int) -> float:
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if coherent_cutoff(mid) >= target:
                hi = mid
            else:
                lo = mid
        return hi

    lo, hi = edge(cutoff), edge(cutoff + 1)
    if top is not None:
        hi = min(hi, top)
    if coherent_cutoff(lo) != cutoff:
        raise ValueError(f"no amplitude gives cutoff {cutoff}")
    return lo, hi


def _draw_amplitude(rng: np.random.Generator, cutoff: int) -> float:
    # Stay off the interval edges so the package's own cutoff rule agrees.
    lo, hi = _amplitude_range(cutoff, top=3.0)
    width = hi - lo
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo + 0.1 * width, hi - 0.1 * width))


# -- random states ---------------------------------------------------------------


def _random_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_product(rng: np.random.Generator, cutoffs: tuple[int, ...]) -> np.ndarray:
    v = np.ones(1, dtype=complex)
    for c in cutoffs:
        v = np.kron(v, _random_vector(rng, c))
    return v


def _density(vectors: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def random_separable(rng: np.random.Generator, cutoffs: tuple[int, ...]) -> np.ndarray:
    terms = int(rng.integers(2, 5))
    return _density([_random_product(rng, cutoffs) for _ in range(terms)], rng.random(terms) + 0.05)


def random_mixed(rng: np.random.Generator, cutoffs: tuple[int, ...]) -> np.ndarray:
    rank = int(rng.integers(1, 5))
    dim = math.prod(cutoffs)
    return _density([_random_vector(rng, dim) for _ in range(rank)], rng.random(rank) + 0.05)


def _pairs(values: np.ndarray):
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _density_state(rho: np.ndarray, cutoffs: tuple[int, ...], label: str) -> dict:
    return {"density": _pairs(rho), "cutoffs": list(cutoffs), "label": label}


def _moment_table(rho: np.ndarray, dims: tuple[int, int]) -> dict:
    """Every moment A^p a^q B^r b^s with p, q < d_a and r, s < d_b."""
    tensor = rho.reshape(dims + dims)
    table = {}
    for p in range(dims[0]):
        for q in range(dims[0]):
            for r in range(dims[1]):
                for s in range(dims[1]):
                    op_a = mode_operator(p, q, dims[0])
                    op_b = mode_operator(r, s, dims[1])
                    value = np.einsum("ik,jl,klij->", op_a, op_b, tensor)
                    key = "A" * p + "B" * r + "a" * q + "b" * s or "1"
                    table[key] = [float(value.real), float(value.imag)]
    return table


# -- criteria lists ------------------------------------------------------------


def _ab_row(cls: dict) -> int:
    """1-based flat row of the product a*b in a tensor class (A side fastest)."""
    return cls["side_b"].index("b") * len(cls["side_a"]) + cls["side_a"].index("a") + 1


def _cat_criteria(cls: dict, with_sv: bool) -> list[dict]:
    crits = [
        {"name": "pt_min_eig", "class": cls},
        {"name": "pt_norm", "class": cls},
        {"name": "realign_norm", "class": cls},
        {"name": "pt_sylvester", "class": cls, "r": [1, _ab_row(cls)]},
    ]
    if with_sv:
        crits.append({"name": "sv_cat"})
    return crits


def _other_layers(dims: tuple[int, int]) -> list[dict]:
    """One map and one state-level test, so every layer's span time is nonzero."""
    return [
        {"name": "map", "map": {"kind": "stormer"}, "class": C9, "r": [2, 3, 7]},
        {"name": "state_ppt", "dims": list(dims)},
    ]


def _two_mode_battery(dims: tuple[int, int]) -> list[dict]:
    return [
        {"name": "pt_min_eig", "class": C4},
        {"name": "pt_norm", "class": C4},
        {"name": "realign_norm", "class": C4},
        {"name": "pt_sylvester", "class": C16},
        {"name": "generic_pt_det", "class": {"ops": ["1", "b", "ab"]}},
        {"name": "map", "map": {"kind": "stormer"}, "class": C9, "r": [2, 3, 7]},
        {"name": "map", "map": {"kind": "choi", "alpha": 1.5, "beta": 1.0, "gamma": 1.0}, "class": C9},
        {"name": "map", "map": {"kind": "breuer", "dim": 4}, "class": C16, "r": [1, 6, 9]},
        {"name": "map", "map": {"kind": "kossakowski", "n": 3}, "class": C9},
        {"name": "hz_two_mode"},
        {"name": "breuer_inequality"},
        {"name": "breuer_bell"},
        {"name": "sv_cat"},
        {"name": "state_ppt", "dims": list(dims)},
    ]


def _three_mode_battery(cutoffs: tuple[int, int, int]) -> list[dict]:
    """The two-mode battery minus the two-mode-only witnesses, B = modes 1 and 2."""
    crits = []
    for crit in _two_mode_battery((cutoffs[0], cutoffs[1] * cutoffs[2])):
        if crit["name"] in ("breuer_bell", "sv_cat"):
            continue
        if "class" in crit:
            crit = {**crit, "class": {**crit["class"], "modes_b": [1, 2]}}
        crits.append(crit)
    return crits + [{"name": "hz_three_mode", "variant": 1}, {"name": "hz_three_mode", "variant": 2}]


def _config(state: dict, criteria: list[dict]) -> dict:
    return {"state": state, "criteria": criteria, "format": "structured"}


# -- workloads -----------------------------------------------------------------

# (class, cutoff, with sv_cat, criteria override or None, cells)
_CAT_STRATA = [
    (C4, 9, True, None, 3),
    (C4, 13, True, None, 3),
    (C4, 18, True, None, 2),
    (C4, 23, True, None, 1),
    (C4, 29, True, None, 1),
    (C16, 9, False, None, 3),
    (C16, 13, False, None, 2),
    (C16, 18, False, None, 1),
    # Three like cells, so the 90th percentile falls inside one stratum.
    (C16, 23, False, None, 3),
    (C36, 9, False, None, 2),
    (C36, 13, False, None, 1),
    # The heavy cell: |alpha| close to 3, 36 rows, 1.3 GB of dense operators.
    (C36, 35, False, ["pt_min_eig"], 1),
]

_CAT_FAMILIES = ("cat_prime", "cat_double_prime", "product_coherent")


def _cat_sweep(rng: np.random.Generator, tiny: bool) -> list[Cell]:
    fixture = Cell(
        "fixture:cat_double_prime(0.3,0.2)",
        _config(
            {"library": "cat_double_prime", "params": {"alpha": 0.3, "beta": 0.2}},
            _cat_criteria(C4, with_sv=True)
            + _other_layers((coherent_cutoff(0.3), coherent_cutoff(0.2))),
        ),
        pinned={4: "ENTANGLED"},
        warm=True,
    )
    cells = [fixture]
    strata = _CAT_STRATA[:1] if tiny else _CAT_STRATA
    for cls, cutoff, with_sv, only, count in strata:
        for _ in range(count):
            family = _CAT_FAMILIES[int(rng.integers(len(_CAT_FAMILIES)))]
            alpha = _draw_amplitude(rng, cutoff)
            beta = _draw_amplitude(rng, cutoff)
            crits = _cat_criteria(cls, with_sv)
            if only is not None:
                crits = [c for c in crits if c["name"] in only]
            cells.append(
                Cell(
                    f"{family}:c{cutoff}:rows{len(cls['side_a']) * len(cls['side_b'])}",
                    _config({"library": family, "params": {"alpha": alpha, "beta": beta}}, crits),
                    separable=family == "product_coherent",
                    warm=len(cells) == 1,
                )
            )
    return cells


# Blocks of equal cost put the median in the middle of the five 8x8 cells
# and the 90th percentile in the middle of the three 16x16 cells, so the
# quantiles do not sit on a boundary between strata.
_DENSITY_CUTOFFS = [
    (4, 4), (4, 5), (4, 6), (6, 4), (5, 5), (6, 6),
    (8, 8), (8, 8), (8, 8), (8, 8), (8, 8),
    (10, 10), (12, 8), (12, 12),
    (16, 16), (16, 16), (16, 16),
]


def _mixed_density(rng: np.random.Generator, tiny: bool) -> list[Cell]:
    crits = [
        {"name": "pt_min_eig", "class": C16},
        {"name": "pt_norm", "class": C4},
        {"name": "hz_two_mode"},
        {"name": "breuer_inequality"},
    ]
    pairs = _DENSITY_CUTOFFS[:2] if tiny else _DENSITY_CUTOFFS
    # Half the cells are separable by construction, in seeded positions.
    separable = rng.permutation([i % 2 == 0 for i in range(len(pairs))])
    cells = []
    for i, (cutoffs, sep) in enumerate(zip(pairs, separable)):
        rho = random_separable(rng, cutoffs) if sep else random_mixed(rng, cutoffs)
        kind = "separable" if sep else "mixed"
        cells.append(
            Cell(
                f"{kind}:{cutoffs[0]}x{cutoffs[1]}",
                _config(
                    _density_state(rho, cutoffs, kind),
                    crits + (_other_layers(cutoffs) if i == 0 else []),
                ),
                separable=bool(sep),
                state=("mixed", cutoffs, rho),
                warm=i == 0,
            )
        )
    return cells


_LIBRARY_CELLS = [
    # (name, cutoff, modes)
    ("singlet", 2, 2),
    ("singlet", 3, 2),
    ("bell_phi_plus", 2, 2),
    ("bell_phi_plus", 3, 2),
    ("partial_example2", 2, 2),
    ("partial_example2", 3, 2),
    ("ghz3", 2, 3),
    ("w3", 2, 3),
]
_RANDOM_DIMS = [(2, 2), (2, 3), (3, 3)]
# Moment tables are the light majority, so the median is a table analysis
# (2-6 ms in steps wider than machine-speed drift) and the 90th percentile
# a full-battery analysis, each well inside its block.
_TABLES_PER_DIMS = 5


def _small_battery(rng: np.random.Generator, tiny: bool) -> list[Cell]:
    cells = [
        Cell(
            "fixture:singlet:pt_min_eig",
            _config({"library": "singlet"}, [{"name": "pt_min_eig", "class": C4}]),
            pinned={0: "ENTANGLED"},
            warm=True,
        ),
        Cell(
            "fixture:bell_phi_plus:breuer_bell",
            _config({"library": "bell_phi_plus"}, [{"name": "breuer_bell"}]),
            pinned={0: "ENTANGLED"},
            warm=True,
        ),
    ]
    library = _LIBRARY_CELLS[:1] if tiny else _LIBRARY_CELLS
    for name, cutoff, modes in library:
        cuts = (cutoff,) * modes
        crits = _two_mode_battery(cuts) if modes == 2 else _three_mode_battery(cuts)
        params = {"cutoff": cutoff}
        cells.append(Cell(f"{name}:c{cutoff}", _config({"library": name, "params": params}, crits)))
    dims_list = _RANDOM_DIMS[:1] if tiny else _RANDOM_DIMS
    for dims in dims_list:
        # A random product pure state, passed as amplitudes.
        psi = _random_product(rng, dims)
        cells.append(
            Cell(
                f"product:{dims[0]}x{dims[1]}",
                _config(
                    {"amplitudes": _pairs(psi), "cutoffs": list(dims), "label": "product"},
                    _two_mode_battery(dims),
                ),
                separable=True,
                state=("pure", dims, psi),
            )
        )
        # A random separable mixture, passed as a density matrix.
        rho = random_separable(rng, dims)
        cells.append(
            Cell(
                f"separable:{dims[0]}x{dims[1]}",
                _config(_density_state(rho, dims, "separable"), _two_mode_battery(dims)),
                separable=True,
                state=("mixed", dims, rho),
            )
        )
        # Moment tables of seeded states, separable or generic in seeded turn.
        for _ in range(1 if tiny else _TABLES_PER_DIMS):
            sep = bool(rng.integers(2))
            source = random_separable(rng, dims) if sep else random_mixed(rng, dims)
            table = {"moments": _moment_table(source, dims), "dims": list(dims), "label": "table"}
            cells.append(
                Cell(
                    f"table:{dims[0]}x{dims[1]}",
                    _config(
                        table,
                        [
                            {"name": "state_ppt", "dims": list(dims)},
                            {"name": "pt_min_eig", "class": C4},
                            {"name": "hz_two_mode"},
                        ],
                    ),
                    separable=sep,
                )
            )
    return cells


_BUILDERS = {
    "cat_sweep": _cat_sweep,
    "mixed_density": _mixed_density,
    "small_battery": _small_battery,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Cell]:
    """The seeded cell list of a workload; ``tiny`` keeps a few light cells."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cells = _BUILDERS[workload](rng, tiny)
    order = rng.permutation(len(cells))
    return [cells[i] for i in order]


def write_configs(cells: list[Cell], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, cell in enumerate(cells):
        cell.path = directory / f"cell{i:03d}.json"
        cell.path.write_text(json.dumps(cell.config))
