"""Stiefel manifold primitives.

Points are d x r matrices with orthonormal columns; a swarm of n agents is one
read-only (n, d, r) array. Tangent projection and polar retraction take
(..., d, r) arrays, so one call serves one agent or a whole swarm. Invariants
are checked once, where a StiefelPoint or SwarmState is built. Also here: the
induced arithmetic mean, the consensus errors and the consensus-region radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import NumericalError, ParameterError

# Construction tolerance for x.T x - I (max-abs entry); an order above
# double-precision accumulation for d up to ~1000.
ORTHONORMALITY_TOL = 1e-12
# Tolerance for the tangent-space constraint x.T v + v.T x = 0 of a TangentVector,
# relative to ||v||_F: the constraint is linear in v, so its round-off scales with v.
TANGENCY_TOL = 1e-10
# Smallest-to-largest singular value ratio below which the Euclidean mean is
# treated as rank deficient.
DEGENERACY_RATIO = 1e-12
# Smallest w_min / w_max of a retraction's Gram matrix that polar_retract accepts. The
# eigenvalues of v.T v carry round-off of about eps * w_max, and w^-1/2 carries it into
# the polar factor as max |y.T y - I| of about eps * w_max / w_min: measured at most
# 20 eps * w_max / w_min on (8, d, r) stacks up to d = 1000 and r = 50. So a step above this
# ratio, 32 eps / ORTHONORMALITY_TOL (about 7.1e-3), returns columns within
# ORTHONORMALITY_TOL, and one at or below it has broken down.
RETRACTION_CONDITIONING = 32 * np.finfo(float).eps / ORTHONORMALITY_TOL


def _as_matrix(a, name: str) -> np.ndarray:
    """A read-only float copy of a matrix."""
    out = np.array(a, dtype=float)
    if out.ndim != 2:
        raise ParameterError(f"{name} must be a matrix, got ndim={out.ndim}")
    out.flags.writeable = False
    return out


def as_stack(a, name: str) -> np.ndarray:
    """A read-only float copy of an (n, d, r) stack given as an array or a sequence of
    matrices."""
    try:
        out = np.array(a, dtype=float)
    except (TypeError, ValueError) as e:
        raise ParameterError(f"{name} is not an (n, d, r) stack: {e}") from None
    if out.ndim != 3 or out.shape[0] == 0:
        raise ParameterError(f"{name} must be a nonempty (n, d, r) stack, got shape {out.shape}")
    out.flags.writeable = False
    return out


def frobenius_norms(a) -> np.ndarray:
    """||a_i||_F of every slice of an (n, ...) stack, as one batched (1, K) @ (K, 1)
    product over C-ordered rows: the dot product np.linalg.norm takes, so each equals
    np.linalg.norm(a_i) bit for bit (a strided view would fall back to another sum)."""
    flat = np.ascontiguousarray(a, dtype=float).reshape(len(a), 1, -1)
    return np.sqrt(flat @ flat.swapaxes(1, 2)).reshape(-1)


def _gram(v: np.ndarray) -> np.ndarray:
    """v.T v of every d x r slice of v, with the bits of numpy's v.T @ v, which runs syrk.
    Slices up to 384 x 11 take gemm on a copy, where OpenBLAS 0.3.31 gives both the same
    bits, and gemm is faster (1.5x at 30 x 5, 1.15x at 200 x 10); larger slices keep syrk.
    Unlike syrk, gemm warns "invalid value" on some infinite entries."""
    fits = v.shape[-2] <= 384 and v.shape[-1] <= 11
    return v.swapaxes(-1, -2) @ (v.copy() if fits else v)


@cache
def _identity(r: int) -> np.ndarray:
    """The r x r identity, built once per r; read-only, since every check shares it."""
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def _check_orthonormal(x: np.ndarray) -> float:
    """max |x.T x - I| over every d x r slice of x; raises unless it is within
    ORTHONORMALITY_TOL (also rejects NaN and inf)."""
    d, r = x.shape[-2:]
    if r < 1 or d < r:
        raise ParameterError(f"need d >= r >= 1, got d={d}, r={r}")
    err = float(np.abs(x.swapaxes(-1, -2) @ x - _identity(r)).max())
    if not err <= ORTHONORMALITY_TOL:
        raise ParameterError(f"columns are not orthonormal: max |x.T x - I| = {err:.3e}")
    return err


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """A d x r matrix with orthonormal columns (a point on St(d, r))."""

    data: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.data, "data")
        _check_orthonormal(mat)
        object.__setattr__(self, "data", mat)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def r(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"StiefelPoint(d={self.d}, r={self.r})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A direction at a base point with x.T v + v.T x = 0."""

    base: StiefelPoint
    data: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.data, "data")
        if mat.shape != self.base.data.shape:
            raise ParameterError(
                f"tangent shape {mat.shape} does not match base {self.base.data.shape}"
            )
        sym = self.base.data.T @ mat
        err = np.abs(sym + sym.T).max()
        norm = np.linalg.norm(mat)
        if not (err <= TANGENCY_TOL * norm and np.isfinite(norm)):  # also rejects NaN and inf
            raise ParameterError(
                f"not tangent: max |x.T v + v.T x| = {err:.3e} for ||v||_F = {norm:.3e}"
            )
        object.__setattr__(self, "data", mat)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __repr__(self):
        return f"TangentVector(d={self.base.d}, r={self.base.r}, norm={self.norm:.3e})"


def consensus_measures(x: np.ndarray) -> tuple:
    """(mean, consensus_error_sq, linf_error) of an orthonormal (n, d, r) stack, from one
    pass: the induced mean and the deviations ||x_i - mean||_F in agent order, as (1/n)
    sum of their squares and their maximum. A rank-deficient Euclidean mean raises
    NumericalError. The mean is orthonormal without a check: it is x[0] of the checked
    stack, or the polar factor u @ vt of a thin SVD that passed the rank test."""
    n = len(x)
    if x[-1, 0, 0] == x[0, 0, 0] and (x == x[0]).all():  # one entry rules most swarms out
        mean = x[0]  # exact consensus, no round-off from the projection
    else:
        u, sv, vt = np.linalg.svd(x.sum(axis=0) / n, full_matrices=False)
        if sv[-1] <= DEGENERACY_RATIO * sv[0]:
            raise NumericalError(f"euclidean mean is rank deficient (s_min = {sv[-1]:.3e})")
        mean = u @ vt
    norms = frobenius_norms(x - mean)
    return mean, float(norms @ norms / n), float(norms.max())


@dataclass(frozen=True, eq=False)
class SwarmState:
    """n agent points on one St(d, r) as a read-only (n, d, r) array x, built from a
    sequence of StiefelPoints or an array; shape, finiteness and orthonormality
    are checked once, for the whole stack, on a copy of the caller's array."""

    x: np.ndarray

    def __post_init__(self):
        x = self.x
        if not isinstance(x, np.ndarray):
            x = [p.data if isinstance(p, StiefelPoint) else p for p in x]
        x = as_stack(x, "swarm")
        _check_orthonormal(x)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def r(self) -> int:
        return self.x.shape[2]

    @property
    def points(self) -> tuple:
        """The agents as StiefelPoints, for callers that want per-agent objects."""
        return tuple(StiefelPoint(m) for m in self.x)

    @cached_property
    def consensus(self) -> tuple:
        """(mean_point, consensus_error_sq, linf_error): consensus_measures of the swarm,
        with the mean as a StiefelPoint."""
        mean, err_sq, linf = consensus_measures(self.x)
        return StiefelPoint(mean), err_sq, linf

    @cached_property
    def mean_point(self) -> StiefelPoint:
        """Induced arithmetic mean: the projection of the Euclidean mean onto St(d, r)."""
        return self.consensus[0]

    @cached_property
    def consensus_error_sq(self) -> float:
        """(1/n) sum ||x_i - xbar||_F^2, the squared mean-square distance to consensus."""
        return self.consensus[1]

    @cached_property
    def linf_error(self) -> float:
        """max_i ||x_i - xbar||_F."""
        return self.consensus[2]

    def __repr__(self):
        return f"SwarmState(n={self.n}, d={self.d}, r={self.r})"


@dataclass(frozen=True)
class ConsensusRegionParams:
    """Radii of the region where gossip on the manifold contracts linearly.

    delta1 bounds the mean-square deviation, delta2 the per-agent deviation;
    they must satisfy delta1 <= delta2 / (5 sqrt(r)) and delta2 <= 1/6. delta1 = 0
    takes that cap, the largest admissible delta1.
    """

    r: int
    delta2: float = 1.0 / 6.0
    delta1: float = 0.0

    def __post_init__(self):
        if self.r < 1:
            raise ParameterError(f"r must be >= 1, got {self.r}")
        if not (0.0 < self.delta2 <= 1.0 / 6.0 + 1e-15):
            raise ParameterError(f"need 0 < delta2 <= 1/6, got {self.delta2}")
        cap = float(self.delta2 / (5.0 * np.sqrt(self.r)))
        if self.delta1 == 0.0:
            object.__setattr__(self, "delta1", cap)
        elif not (0.0 < self.delta1 <= cap * (1.0 + 1e-12)):
            raise ParameterError(
                f"need 0 < delta1 <= delta2/(5 sqrt(r)) = {cap:.6g}, got {self.delta1}"
            )


def _same_shape(x, y) -> tuple:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim < 2 or y.shape != x.shape:
        raise ParameterError(f"shape {y.shape} does not match point {x.shape}")
    return x, y


def project_to_tangent(x, y) -> np.ndarray:
    """Orthogonally project ambient matrices onto the tangent spaces at x.

    P(y) = y - x (x.T y + y.T x) / 2, slice by slice for (..., d, r) arrays x
    and y of one shape. Idempotent and self-adjoint.
    """
    x, y = _same_shape(x, y)
    sym = x.swapaxes(-1, -2) @ y
    out = x @ (0.5 * (sym + sym.swapaxes(-1, -2)))
    return np.subtract(y, out, out=out)


def polar_retract(x, xi) -> np.ndarray:
    """Polar retraction: the orthogonal projection of x + xi back onto St(d, r).

    Equals (x + xi)(I + xi.T xi)^{-1/2} for tangent xi, slice by slice for
    (..., d, r) arrays. The inverse square root comes from a symmetric
    eigendecomposition G = Q diag(w) Q.T of the r x r Gram matrix of v = x + xi,
    formed as the r x r factor Z = Q diag(w^{-1/2}) Q.T, so v is read once more,
    for v @ Z. A step whose Gram matrix is not finite raises NumericalError, and
    so does one whose w_min / w_max is not above RETRACTION_CONDITIONING (a zero
    or indefinite Gram matrix among them): above it the result is orthonormal
    within ORTHONORMALITY_TOL, so the caller need not check it. Outside np.errstate, an
    infinite step may also bring numpy's "invalid value encountered in matmul" warning.
    """
    x, xi = _same_shape(x, xi)
    v = x + xi
    gram = _gram(v)
    if not np.isfinite(gram).all():
        raise NumericalError("retraction step is not finite")
    w, q = np.linalg.eigh(gram)
    if not (w[..., 0] > RETRACTION_CONDITIONING * w[..., -1]).all():
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (w[..., 0] / w[..., -1]).min()
        cause = (f"is ill-conditioned (w_min/w_max = {ratio:.3e} <= {RETRACTION_CONDITIONING:.3e})"
                 if ratio > 0.0 else f"lost positive definiteness (w_min/w_max = {ratio:.3e})")  # NaN too
        raise NumericalError(f"retraction Gram matrix {cause}")
    return v @ ((q * w[..., None, :] ** -0.5) @ q.swapaxes(-1, -2))


def random_stiefel(d: int, r: int, rng: np.random.Generator) -> StiefelPoint:
    """Uniform random point: QR of a Gaussian matrix with sign-fixed diagonal."""
    if r < 1 or d < r:
        raise ParameterError(f"need d >= r >= 1, got d={d}, r={r}")
    q, rr = np.linalg.qr(rng.standard_normal((d, r)))
    sign = np.sign(np.diag(rr))
    sign[sign == 0.0] = 1.0
    return StiefelPoint(q * sign)


def perturbed_swarm(
    x0: StiefelPoint, n: int, noise: float, rng: np.random.Generator
) -> SwarmState:
    """Swarm of n copies of x0, each nudged by a tangent step of the given norm: n normal
    d x r draws from rng, in agent order, each projected onto the tangent space at x0,
    rescaled to that norm and retracted, as one (n, d, r) stack."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if noise == 0.0:
        return SwarmState((x0,) * n)
    base = np.broadcast_to(x0.data, (n, *x0.data.shape))
    xi = project_to_tangent(base, rng.standard_normal(base.shape))
    norms = frobenius_norms(xi)
    if not norms.all():
        raise ParameterError("degenerate random tangent draw")
    return SwarmState(polar_retract(base, (noise / norms)[:, None, None] * xi))
