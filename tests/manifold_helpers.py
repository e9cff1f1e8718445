"""Views of a swarm and a tangent vector that only the tests read: the plain average,
the stacked deviation, a random and a rescaled direction and the consensus-region test."""

import numpy as np

from stiefel_dec.errors import ParameterError
from stiefel_dec.manifold import (
    ConsensusRegionParams,
    StiefelPoint,
    SwarmState,
    TangentVector,
    project_to_tangent,
)


def euclidean_mean(s: SwarmState) -> np.ndarray:
    """Plain average (1/n) sum x_i; generally off the manifold."""
    return s.x.sum(axis=0) / s.n


def stacked_error(s: SwarmState) -> float:
    """Frobenius norm of the stacked deviation, ||x - xbar|| = sqrt(n * mean-square)."""
    return float(np.sqrt(s.n * s.consensus_error_sq))


def random_tangent(
    x: StiefelPoint, rng: np.random.Generator, norm: float | None = None
) -> TangentVector:
    """Random tangent direction at x, optionally rescaled to a given norm."""
    xi = project_to_tangent(x.data, rng.standard_normal(x.data.shape))
    if norm is None:
        return TangentVector(x, xi)
    cur = np.linalg.norm(xi)
    if cur == 0.0:
        raise ParameterError("degenerate random tangent draw")
    return TangentVector(x, (norm / cur) * xi)


def scaled(v: TangentVector, c: float) -> TangentVector:
    """c v at the same base point."""
    return TangentVector(v.base, c * v.data)


def in_consensus_region(s: SwarmState, p: ConsensusRegionParams) -> bool:
    """Whether ||x - xbar||^2 <= n delta1^2 and max_i ||x_i - xbar|| <= delta2."""
    if p.r != s.r:
        raise ParameterError(f"region params are for r={p.r}, swarm has r={s.r}")
    return bool(s.n * s.consensus_error_sq <= s.n * p.delta1**2 and s.linf_error <= p.delta2)
