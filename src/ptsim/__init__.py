"""Finite-dimensional PT-symmetric quantum mechanics toolkit.

Classification of PT-symmetric Hamiltonians, metric-operator construction,
Hermitian dilation onto the doubled space, probabilistic simulation by
unitary + post-selection primitives, and the two-party no-signaling
experiment.
"""

from . import errors
from .completion import (
    CompletionResult,
    SubspaceMap,
    post_select,
    unitary_completion,
    zero_map_completion,
)
from .dilation import (
    Dilation,
    build_dilation,
    dilated_evolution,
    embedding_membership,
    in_tau_subspace,
)
from .linalg import (
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    EigenDecomposition,
    Tolerances,
    eig,
    matrix_exp,
    orthonormal_extension,
    psd_power,
)
from .metric import (
    H3,
    MetricOperator,
    Q3,
    positive_metric,
    scalar_sum_metric_2d,
    scalar_sum_obstruction_demo,
    verify_metric,
)
from .nosignaling import (
    ExperimentConfig,
    JointStats,
    bell_plus_x_state,
    run_experiment,
    sweep_delta_s,
    whole_system_bob_marginals,
)
from .pipeline import (
    SimulationConfig,
    SimulationTrace,
    gunther_eta,
    gunther_hamiltonian,
    gunther_projection,
    gunther_propagator,
    gunther_system,
    reproduce_gunther_example,
    run_simulation,
    sample_successes,
)
from .ptcore import (
    Classification,
    Kind,
    PTPair,
    PTSystem,
    classify,
    is_pt_symmetric,
    validate_pt_pair,
)

__version__ = "0.1.0"
