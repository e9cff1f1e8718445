"""Solution-quality measurements: subspace distance and stationarity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError
from .manifold import StiefelPoint, _same_shape, project_to_tangent


_NONNEGATIVE = ("k", "consensus_err_sq", "linf_err", "grad_norm_sq", "ds_oracle")


@dataclass(frozen=True)
class IterationRecord:
    """One metrics row of a run; k counts iterations (epochs for stochastic runs).

    Fields without a meaning for a given algorithm are None (e.g. no objective
    values in a pure consensus run, no oracle distance without an oracle). A
    non-finite value raises NumericalError, a negative norm ParameterError.
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
        for name, v in vars(self).items():
            if v is None:
                continue
            if not math.isfinite(v):
                raise NumericalError(f"{name} is not finite: {v}")
            if v < 0 and name in _NONNEGATIVE:
                raise ParameterError(f"{name} must be nonnegative, got {v}")


def subspace_distance(x: StiefelPoint, y: StiefelPoint) -> float:
    """Rotation-aligned Frobenius distance between the column spaces of two points.

    With the orthonormal bases u, v this is min over orthogonal Q of ||u Q - v||_F,
    solved by the orthogonal Procrustes alignment: for u.T v = P S Q.T the
    optimal rotation is P Q.T and the value equals sqrt(max(0, 2r - 2 trace(S))).
    The norm is evaluated directly on u (P Q.T) - v, which avoids the
    cancellation the trace expression suffers near zero distance. Zero iff the
    column spaces coincide.
    """
    u, v = x.data, y.data
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {v.shape}")
    p, _, qt = np.linalg.svd(u.T @ v)
    return float(np.linalg.norm(u @ (p @ qt) - v))


def stationarity_measure(xbar: np.ndarray, egrad) -> float:
    """||grad f(xbar)||^2 for the average objective f, from its Euclidean gradient
    at xbar (EigLocal.mean_grad), projected to the tangent space at xbar. A
    gradient not shaped like xbar raises DimensionError."""
    return float(np.linalg.norm(project_to_tangent(xbar, egrad))) ** 2


def average_value(xbar: np.ndarray, egrad) -> float:
    """f(xbar) = (1/n) sum f_i(xbar), from the same Euclidean gradient at xbar.

    Each f_i(x) = -tr(x.T G_i x)/2 is quadratic, so f(x) = <x, grad f(x)>/2
    with grad f(x) = -(sum_i G_i) x / n. A gradient not shaped like xbar
    raises DimensionError.
    """
    xbar, egrad = _same_shape(xbar, egrad)
    return float(0.5 * (xbar * egrad).sum())  # np.sum's bits, without its wrapper
