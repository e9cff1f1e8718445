"""Graph topologies, Metropolis mixing matrices, and consensus-rate constants.

The mixing matrix W is symmetric doubly stochastic; its second-largest
singular value sigma2 governs gossip speed. Running t communication rounds
per optimization step is mixing once with W^t.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .manifold import ConsensusRegionParams

_SYM_TOL = 1e-12
_ROWSUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected connected graph on nodes 0..n-1 without self-loops, built from any
    iterable of (i, j) pairs; edges holds each pair once, as (min(i, j), max(i, j))."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"need n >= 1, got {self.n}")
        edges = set()
        for i, j in self.edges:
            if not (isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)):
                raise ParameterError(f"bad edge {(i, j)}: nodes must be integers")
            if i == j:
                raise ParameterError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ParameterError(f"bad edge {(i, j)}: nodes must be in 0..{self.n - 1}")
            edges.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(edges))
        if not self._connected():
            raise ParameterError("graph is not connected")

    def _connected(self) -> bool:
        adj = [[] for _ in range(self.n)]
        for i, j in sorted(self.edges):
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def ring_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 2:
        raise ParameterError(f"ring needs n >= 2, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    """All pairs connected; its Metropolis matrix is the equal-weight (1/n) matrix."""
    if n < 2:
        raise ParameterError(f"complete graph needs n >= 2, got {n}")
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


_ER_TRIES = 1000  # samples erdos_renyi draws before it gives up on a connected one


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    """ER(n, p): each pair kept independently with probability p, resampled until connected."""
    if n < 2:
        raise ParameterError(f"ER graph needs n >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"need p in (0, 1], got {p}")
    for _ in range(_ER_TRIES):
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        try:
            return Graph(n, edges)
        except ParameterError:  # the pairs are valid edges, so the sample is disconnected
            continue
    raise ParameterError(f"no connected ER({n}, {p}) sample in {_ER_TRIES} tries")


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Symmetric doubly stochastic matrix with cached spectral quantities.

    sigma2 is the second-largest singular value (largest non-unit absolute
    eigenvalue); lambda_min and lambda2 are the smallest and second-largest
    eigenvalues. All are computed once by a dense symmetric eigendecomposition.
    The powers W^t that matrix_power builds are kept here, so a run builds each once.
    """

    w: np.ndarray
    sigma2: float = field(init=False)
    lambda_min: float = field(init=False)
    lambda2: float = field(init=False)
    _powers: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).copy()
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ParameterError(f"mixing matrix must be square, got {w.shape}")
        n = w.shape[0]
        if np.abs(w - w.T).max() > _SYM_TOL:
            raise ParameterError("mixing matrix is not symmetric")
        if np.abs(w.sum(axis=1) - 1.0).max() > _ROWSUM_TOL:
            raise ParameterError("mixing matrix rows do not sum to 1")
        if w.min() < -1e-12:
            raise ParameterError("mixing matrix has negative entries")
        diag = np.diag(w)
        # n = 1 forces w = [[1]]; the open upper bound on the diagonal only
        # makes sense with at least two nodes.
        if n > 1 and not ((diag > 0.0).all() and (diag < 1.0).all()):
            raise ParameterError("need 0 < W_ii < 1 on the diagonal")
        evals = np.linalg.eigvalsh(w)
        if evals[0] <= -1.0 + 1e-12:
            raise ParameterError(f"smallest eigenvalue {evals[0]:.6g} not in (-1, 1]")
        if evals[-1] > 1.0 + 1e-12:
            raise ParameterError(f"largest eigenvalue {evals[-1]:.6g} exceeds 1")
        sigma2 = float(max(abs(evals[0]), abs(evals[-2]))) if n > 1 else 0.0
        if n > 1 and sigma2 >= 1.0:
            raise ParameterError("sigma2 must be < 1 (is the graph connected?)")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "sigma2", max(sigma2, 0.0))
        object.__setattr__(self, "lambda_min", float(evals[0]))
        object.__setattr__(self, "lambda2", float(evals[-2]) if n > 1 else 1.0)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def __repr__(self):
        return f"MixingMatrix(n={self.n}, sigma2={self.sigma2:.6g})"


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis rule: W_ij = 1/(1 + max(deg_i, deg_j)) on edges, diagonal fills the row."""
    deg = g.degrees()
    w = np.zeros((g.n, g.n))
    for i, j in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix(w)


def min_communication_rounds(w: MixingMatrix) -> int:
    """Smallest t with sigma2^t <= 1/(2 sqrt(n)), the per-step rounds the theory asks for."""
    sigma2 = w.sigma2
    target = 1.0 / (2.0 * math.sqrt(w.n))
    if sigma2 <= target:
        return 1
    t = max(1, math.ceil(math.log(target) / math.log(sigma2)))
    # Guard the ceiling against floating-point edge cases.
    while sigma2**t > target:
        t += 1
    while t > 1 and sigma2 ** (t - 1) <= target:
        t -= 1
    return t


def matrix_power(w: MixingMatrix, t: int) -> MixingMatrix:
    """W^t; stays symmetric doubly stochastic, with sigma2(W^t) = sigma2(W)^t.
    Built once per W and t: later calls return the same object."""
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    if t not in w._powers:
        wt = np.linalg.matrix_power(w.w, t)
        w._powers[t] = MixingMatrix(0.5 * (wt + wt.T))
    return w._powers[t]


def mix(x, wt: MixingMatrix) -> np.ndarray:
    """Weighted neighborhood averages: slice i of the output is sum_j W_ij x_j.

    Takes an (n, d, r) array and returns a fresh (n, d, r) array. Outputs are
    convex combinations and generally leave the manifold.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or wt.n != x.shape[0]:
        raise ParameterError(f"mixing matrix is {wt.n}x{wt.n}, swarm has shape {x.shape}")
    return (wt.w @ x.reshape(x.shape[0], -1)).reshape(x.shape)


@dataclass(frozen=True)
class ConsensusRateReport:
    """Constants of the per-step consensus contraction for W^t.

    l_t = 1 - lambda_min(W^t) is the gradient Lipschitz constant of the
    disagreement function; mu_t = 1 - lambda2(W^t); phi = 2 - delta2^2;
    alpha_bar caps the consensus stepsize; rho_t = sqrt(1 - gamma_t * alpha)
    is the contraction factor at the evaluated alpha.
    """

    l_t: float
    mu_t: float
    phi: float
    alpha_bar: float
    alpha: float
    gamma_t: float
    rho_t: float


def consensus_rate_params(
    w: MixingMatrix, t: int, p: ConsensusRegionParams, alpha: float | None = None
) -> ConsensusRateReport:
    """Evaluate the consensus contraction constants for t rounds of W.

    alpha defaults to the cap alpha_bar = min(phi / (2 l_t), 1, 1/M) where M
    is the second-order retraction bound; M = 1 for the polar retraction, so
    the cap is min(phi / (2 l_t), 1). Raises ParameterError when alpha exceeds
    alpha_bar.
    """
    if w.n < 2:
        raise ParameterError("consensus rate needs at least two agents")
    wt = matrix_power(w, t)
    l_t = 1.0 - wt.lambda_min
    mu_t = 1.0 - wt.lambda2
    phi = 2.0 - p.delta2**2
    alpha_bar = min(phi / (2.0 * l_t), 1.0)
    if alpha is None:
        alpha = alpha_bar
    if alpha > alpha_bar * (1.0 + 1e-12):
        raise ParameterError(f"alpha = {alpha} exceeds alpha_bar = {alpha_bar:.6g}")
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    gamma_t = float((1.0 - 4.0 * p.r * p.delta1**2) * (1.0 - p.delta2**2 / 2.0) * mu_t)
    rho_sq = 1.0 - gamma_t * alpha
    if not (0.0 < rho_sq < 1.0):
        raise ParameterError(f"contraction factor out of range: rho^2 = {rho_sq:.6g}")
    return ConsensusRateReport(
        l_t=l_t,
        mu_t=mu_t,
        phi=phi,
        alpha_bar=alpha_bar,
        alpha=float(alpha),
        gamma_t=gamma_t,
        rho_t=float(np.sqrt(rho_sq)),
    )

