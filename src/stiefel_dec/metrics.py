"""Solution-quality measurements: subspace distance and stationarity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .manifold import StiefelPoint, SwarmState, _as_matrix, project_to_tangent


@dataclass(frozen=True)
class IterationRecord:
    """One metrics row of a run; k counts iterations (epochs for stochastic runs).

    Fields without a meaning for a given algorithm are None (e.g. no objective
    values in a pure consensus run, no oracle distance without an oracle).
    """

    k: int
    consensus_err_sq: float
    linf_err: float
    grad_norm_sq: float | None = None
    f_bar: float | None = None
    ds_oracle: float | None = None
    beta_k: float | None = None
    elapsed_ms: float | None = None

    def __post_init__(self):
        if self.k < 0:
            raise ParameterError(f"iteration index must be >= 0, got {self.k}")
        for name in ("consensus_err_sq", "linf_err", "grad_norm_sq", "ds_oracle"):
            v = getattr(self, name)
            if v is not None and not v >= 0.0:  # also rejects NaN
                raise ParameterError(f"{name} must be nonnegative, got {v}")


def _orthonormal_basis(x) -> np.ndarray:
    if isinstance(x, StiefelPoint):
        return x.data
    q, _ = np.linalg.qr(_as_matrix(x, "point"))
    return q


def subspace_distance(x, y) -> float:
    """Rotation-aligned Frobenius distance between column spaces.

    With orthonormal bases u, v this is min over orthogonal Q of ||u Q - v||_F,
    solved by the orthogonal Procrustes alignment: for u.T v = P S Q.T the
    optimal rotation is P Q.T and the value equals sqrt(max(0, 2r - 2 trace(S))).
    The norm is evaluated directly on u (P Q.T) - v, which avoids the
    cancellation the trace expression suffers near zero distance. Zero iff the
    column spaces coincide; raw (non-orthonormal) inputs are orthonormalized
    by QR first.
    """
    u = _orthonormal_basis(x)
    v = _orthonormal_basis(y)
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {v.shape}")
    p, _, qt = np.linalg.svd(u.T @ v)
    return float(np.linalg.norm(u @ (p @ qt) - v))


def stationarity_measure(s: SwarmState, locals_) -> tuple:
    """The two quantities defining an epsilon-stationary swarm.

    Returns ((1/n) sum ||x_i - xbar||^2, ||grad f(xbar)||^2) where f is the
    average objective and the gradient is projected to the tangent space at
    the induced mean.
    """
    locals_ = list(locals_)
    if len(locals_) != s.n:
        raise DimensionError(f"{len(locals_)} objectives for {s.n} agents")
    xbar = s.mean_point.data
    acc = np.zeros_like(xbar)
    for o in locals_:
        acc += o.euclidean_grad(xbar)
    grad = project_to_tangent(xbar, acc / s.n)
    return s.consensus_error_sq, float(np.linalg.norm(grad)) ** 2


def average_value(s: SwarmState, locals_) -> float:
    """f(xbar) = (1/n) sum f_i(xbar), evaluated at the swarm's induced mean."""
    locals_ = list(locals_)
    xbar = s.mean_point.data
    return float(sum(o.value(xbar) for o in locals_) / len(locals_))
