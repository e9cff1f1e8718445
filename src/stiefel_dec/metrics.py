"""Solution-quality measurements: subspace distance and stationarity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError
from .manifold import StiefelPoint, _as_matrix, project_to_tangent


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


def stationarity_measure(xbar: np.ndarray, egrads) -> float:
    """||grad f(xbar)||^2 for the average objective f, from the (n, d, r) stack of
    the agents' Euclidean gradients at xbar: their average, projected to the
    tangent space at xbar. A stack of no gradients, or of gradients not shaped
    like xbar, raises DimensionError."""
    egrads = np.asarray(egrads, dtype=float)
    if egrads.ndim != 3 or egrads.shape[0] == 0 or egrads.shape[1:] != xbar.shape:
        raise DimensionError(f"need an (n, d, r) stack of gradients at a {xbar.shape} point, got {egrads.shape}")
    # agents summed in order (pairwise only for d = r = 1, whose tangent space is {0})
    grad = project_to_tangent(xbar, egrads.sum(axis=0) / len(egrads))
    return float(np.linalg.norm(grad)) ** 2


def average_value(xbar: np.ndarray, egrads) -> float:
    """f(xbar) = (1/n) sum f_i(xbar), from the same Euclidean gradients at xbar.

    Each f_i(x) = -tr(x.T G_i x)/2 is quadratic, so f_i(x) = <x, grad f_i(x)>/2
    with grad f_i(x) = -G_i x; the inner product gives exactly EigLocal.value.
    The n values are summed in agent order.
    """
    return float(sum(0.5 * np.sum(xbar * egrads, axis=(1, 2))) / len(egrads))
