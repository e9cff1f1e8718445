"""Decentralized Riemannian optimization on the Stiefel manifold.

Simulates networks of agents that jointly optimize over St(d, r) using only
neighbor gossip: a consensus scheme (drcs), decentralized (stochastic)
Riemannian gradient descent (drsgd / drdgd), and gradient tracking (drgta),
with the decentralized eigenvector problem as the built-in benchmark.
"""

__version__ = "0.1.0"

from .algorithms import (
    ALGORITHMS,
    RunResult,
    StepsizeSchedule,
    TrackerState,
    drcs_step,
    drgta_init,
    drgta_max_stepsize,
    drgta_step,
    drsgd_constant_schedule,
    drsgd_diminishing_schedule,
    drsgd_step,
    run,
    tracking_residual,
)
from .errors import (
    ConfigError,
    IngestionError,
    NumericalError,
    ParameterError,
    StiefelDecError,
)
from .manifold import (
    ConsensusRegionParams,
    StiefelPoint,
    SwarmState,
    TangentVector,
    in_consensus_region,
    perturbed_swarm,
    polar_retract,
    project_to_tangent,
    random_stiefel,
    random_tangent,
)
from .metrics import IterationRecord, stationarity_measure, subspace_distance
from .network import (
    ConsensusRateReport,
    Graph,
    MixingMatrix,
    complete_graph,
    consensus_rate_params,
    erdos_renyi,
    matrix_power,
    metropolis_weights,
    min_communication_rounds,
    mix,
    ring_graph,
)
from .problems import (
    EigLocal,
    SmoothnessConstants,
    centralized_oracle,
    estimate_xi,
    load_dsv_partition,
    quadratic_constants,
    synthesize_eigengap_data,
)
