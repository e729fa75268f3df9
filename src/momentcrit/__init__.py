"""Entanglement detection for truncated bosonic states via matrices of moments."""

from .errors import (
    DegenerateStateError,
    DimensionError,
    InconsistentMomentsError,
    InsufficientCutoffError,
    MissingMomentError,
    SeriesDivergenceError,
)
from .fock import (
    DensityMatrix,
    ModeCutoffs,
    Monomial,
    StateVector,
    make_coherent_superposition,
    make_fock_state,
    mix,
    superpose,
)
from .moments import (
    GenericClass,
    MomentMatrix,
    OperatorClass,
    TableSource,
    build_generic_moment_matrix,
    build_moment_matrix,
    moment,
    op_expectation,
    principal_submatrix,
)
from .reorder import (
    build_pt_moment_matrix,
    nu_gamma,
    nu_realign,
    partial_transpose,
    realign,
    trace_norm,
)
from .posmaps import (
    BreuerParams,
    ChoiParams,
    KossakowskiParams,
    PositiveMap,
    apply_partial,
    breuer_antidiagonal_unitary,
    breuer_map,
    breuer_unitary,
    choi_map,
    gell_mann_generators,
    kossakowski_map,
    stormer,
    stormer_map,
)
from .criteria import (
    Bipartition,
    Outcome,
    Verdict,
    breuer_bell_test,
    breuer_inequality_test,
    generic_pt_det_test,
    hz_three_mode,
    hz_two_mode,
    map_test,
    min_eig_test,
    multimode_bipartition,
    pt_min_eig_test,
    pt_norm_test,
    pt_sylvester_test,
    realign_norm_test,
    sv_cat_state_test,
    sylvester_scan,
)
from .reconstruct import (
    density_element,
    reconstruct_density,
    state_level_tests,
    two_qubit_density,
)
from .regression import norm_ordering_records, run_regression_suite
from . import states

__version__ = "0.1.0"
