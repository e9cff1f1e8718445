"""Stiefel manifold primitives.

Points are d x r matrices with orthonormal columns. Everything here is a pure
function on immutable values: tangent projection, polar retraction, Riemannian
gradients, the induced arithmetic mean of a swarm of points, the consensus
error distances built on it, and the consensus-region membership test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, DegenerateMeanError, DimensionError, ParameterError

# Construction tolerance for x.T x - I (max-abs entry); an order above
# double-precision accumulation for d up to ~1000.
ORTHONORMALITY_TOL = 1e-12
# Tolerance for the tangent-space constraint x.T v + v.T x = 0.
TANGENCY_TOL = 1e-10
# Smallest-to-largest singular value ratio below which the Euclidean mean is
# treated as rank deficient.
DEGENERACY_RATIO = 1e-12


def _as_matrix(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got ndim={out.ndim}")
    return out


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """A d x r matrix with orthonormal columns (a point on St(d, r))."""

    data: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.data, "data").copy()
        d, r = mat.shape
        if r < 1 or d < r:
            raise DimensionError(f"need d >= r >= 1, got d={d}, r={r}")
        err = np.abs(mat.T @ mat - np.eye(r)).max()
        if not err <= ORTHONORMALITY_TOL:  # also rejects NaN
            raise ParameterError(
                f"columns are not orthonormal: max |x.T x - I| = {err:.3e}"
            )
        mat.flags.writeable = False
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
    """A direction attached to a base point, satisfying x.T v + v.T x = 0."""

    base: StiefelPoint
    data: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.data, "data").copy()
        if mat.shape != self.base.data.shape:
            raise DimensionError(
                f"tangent shape {mat.shape} does not match base {self.base.data.shape}"
            )
        sym = self.base.data.T @ mat
        err = np.abs(sym + sym.T).max()
        if not err <= TANGENCY_TOL:  # also rejects NaN
            raise ParameterError(f"not tangent: max |x.T v + v.T x| = {err:.3e}")
        mat.flags.writeable = False
        object.__setattr__(self, "data", mat)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def scaled(self, c: float) -> "TangentVector":
        return TangentVector(self.base, c * self.data)

    def __repr__(self):
        return f"TangentVector(d={self.base.d}, r={self.base.r}, norm={self.norm:.3e})"


@dataclass(frozen=True, eq=False)
class SwarmState:
    """Ordered collection of n agent points, all on the same St(d, r)."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise DimensionError("swarm needs at least one agent")
        d, r = pts[0].d, pts[0].r
        for i, p in enumerate(pts):
            if not isinstance(p, StiefelPoint):
                raise ContractError(f"agent {i} is not a StiefelPoint")
            if (p.d, p.r) != (d, r):
                raise DimensionError(
                    f"agent {i} has shape ({p.d},{p.r}), expected ({d},{r})"
                )
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points[0].d

    @property
    def r(self) -> int:
        return self.points[0].r

    @cached_property
    def euclidean_mean(self) -> np.ndarray:
        """Plain average (1/n) sum x_i; generally off the manifold."""
        acc = np.zeros((self.d, self.r))
        for p in self.points:
            acc += p.data
        return acc / self.n

    @cached_property
    def mean_point(self) -> StiefelPoint:
        """Induced arithmetic mean: the projection of the Euclidean mean onto St(d, r)."""
        first = self.points[0]
        if all(p is first or np.array_equal(p.data, first.data) for p in self.points):
            return first  # exact consensus, no round-off from the projection
        u, s, vt = np.linalg.svd(self.euclidean_mean, full_matrices=False)
        if s[-1] <= DEGENERACY_RATIO * s[0]:
            raise DegenerateMeanError(
                f"euclidean mean is rank deficient (s_min = {s[-1]:.3e})"
            )
        return StiefelPoint(u @ vt)

    @cached_property
    def consensus_error_sq(self) -> float:
        """(1/n) sum ||x_i - xbar||_F^2, the squared mean-square distance to consensus."""
        xbar = self.mean_point.data
        return float(
            sum(np.linalg.norm(p.data - xbar) ** 2 for p in self.points) / self.n
        )

    @cached_property
    def linf_error(self) -> float:
        """max_i ||x_i - xbar||_F."""
        xbar = self.mean_point.data
        return float(max(np.linalg.norm(p.data - xbar) for p in self.points))

    def stacked_error(self) -> float:
        """Frobenius norm of the stacked deviation, ||x - xbar|| = sqrt(n * mean-square)."""
        return float(np.sqrt(self.n * self.consensus_error_sq))

    def __repr__(self):
        return f"SwarmState(n={self.n}, d={self.d}, r={self.r})"


@dataclass(frozen=True)
class ConsensusRegionParams:
    """Radii of the region where gossip on the manifold contracts linearly.

    delta1 bounds the mean-square deviation, delta2 the per-agent deviation;
    they must satisfy delta1 <= delta2 / (5 sqrt(r)) and delta2 <= 1/6.
    """

    delta1: float
    delta2: float
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ParameterError(f"r must be >= 1, got {self.r}")
        if not (0.0 < self.delta2 <= 1.0 / 6.0 + 1e-15):
            raise ParameterError(f"need 0 < delta2 <= 1/6, got {self.delta2}")
        cap = self.delta2 / (5.0 * np.sqrt(self.r))
        if not (0.0 < self.delta1 <= cap * (1.0 + 1e-12)):
            raise ParameterError(
                f"need 0 < delta1 <= delta2/(5 sqrt(r)) = {cap:.6g}, got {self.delta1}"
            )

    @classmethod
    def tightest(cls, r: int, delta2: float = 1.0 / 6.0) -> "ConsensusRegionParams":
        """Largest admissible radii for a given column count."""
        return cls(delta1=delta2 / (5.0 * np.sqrt(r)), delta2=delta2, r=r)


@dataclass(frozen=True)
class RegionCheck:
    """Outcome of the consensus-region test with both margins (bound - value)."""

    in_region: bool
    stacked_sq: float
    stacked_sq_bound: float
    linf: float
    linf_bound: float

    def __bool__(self) -> bool:
        return self.in_region

    @property
    def stacked_sq_margin(self) -> float:
        return self.stacked_sq_bound - self.stacked_sq

    @property
    def linf_margin(self) -> float:
        return self.linf_bound - self.linf


def project_to_tangent(x: StiefelPoint, y) -> TangentVector:
    """Orthogonally project an ambient matrix onto the tangent space at x.

    P(y) = y - x (x.T y + y.T x) / 2. Idempotent and self-adjoint.
    """
    mat = _as_matrix(y, "y")
    if mat.shape != x.data.shape:
        raise DimensionError(f"shape {mat.shape} does not match point {x.data.shape}")
    sym = x.data.T @ mat
    return TangentVector(x, mat - 0.5 * x.data @ (sym + sym.T))


def polar_retract(x: StiefelPoint, xi: TangentVector) -> StiefelPoint:
    """Polar retraction: the orthogonal projection of x + xi back onto St(d, r).

    Equals (x + xi)(I + xi.T xi)^{-1/2} for tangent xi. The inverse square
    root comes from a symmetric eigendecomposition of the r x r Gram matrix
    of x + xi, which is always positive definite.
    """
    if xi.base is not x and not np.array_equal(xi.base.data, x.data):
        raise ContractError("tangent vector is attached to a different base point")
    v = x.data + xi.data
    w, q = np.linalg.eigh(v.T @ v)
    if w[0] <= 0.0:
        raise ParameterError("retraction Gram matrix lost positive definiteness")
    return StiefelPoint(((v @ q) * w**-0.5) @ q.T)


def riemannian_gradient(x: StiefelPoint, egrad) -> TangentVector:
    """Riemannian gradient from a Euclidean one: the tangent projection at x."""
    return project_to_tangent(x, egrad)


def in_consensus_region(s: SwarmState, p: ConsensusRegionParams) -> RegionCheck:
    """Test ||x - xbar||^2 <= n delta1^2 and max_i ||x_i - xbar|| <= delta2."""
    if p.r != s.r:
        raise ParameterError(f"region params are for r={p.r}, swarm has r={s.r}")
    stacked_sq = s.n * s.consensus_error_sq
    bound_sq = s.n * p.delta1**2
    linf = s.linf_error
    return RegionCheck(
        in_region=bool(stacked_sq <= bound_sq and linf <= p.delta2),
        stacked_sq=stacked_sq,
        stacked_sq_bound=bound_sq,
        linf=linf,
        linf_bound=p.delta2,
    )


def random_stiefel(d: int, r: int, rng: np.random.Generator) -> StiefelPoint:
    """Uniform random point: QR of a Gaussian matrix with sign-fixed diagonal."""
    if r < 1 or d < r:
        raise DimensionError(f"need d >= r >= 1, got d={d}, r={r}")
    q, rr = np.linalg.qr(rng.standard_normal((d, r)))
    sign = np.sign(np.diag(rr))
    sign[sign == 0.0] = 1.0
    return StiefelPoint(q * sign)


def random_tangent(
    x: StiefelPoint, rng: np.random.Generator, norm: float | None = None
) -> TangentVector:
    """Random tangent direction at x, optionally rescaled to a given norm."""
    xi = project_to_tangent(x, rng.standard_normal(x.data.shape))
    if norm is None:
        return xi
    cur = xi.norm
    if cur == 0.0:
        raise ParameterError("degenerate random tangent draw")
    return xi.scaled(norm / cur)


def perturbed_swarm(
    x0: StiefelPoint, n: int, noise: float, rng: np.random.Generator
) -> SwarmState:
    """Swarm of n copies of x0, each nudged by a tangent step of the given norm."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    pts = []
    for _ in range(n):
        if noise == 0.0:
            pts.append(x0)
        else:
            pts.append(polar_retract(x0, random_tangent(x0, rng, noise)))
    return SwarmState(tuple(pts))
