"""Graph topologies, Metropolis mixing matrices, and consensus-rate constants.

The mixing matrix W is symmetric doubly stochastic; its second-largest
singular value sigma2 governs gossip speed. Running t communication rounds
per optimization step is mixing once with W^t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .manifold import ConsensusRegionParams

_SYM_TOL = 1e-12
_ROWSUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected connected graph on nodes 0..n-1 without self-loops, built from an
    integer (E, 2) array or any iterable of (i, j) pairs. edges is a read-only (E, 2)
    array holding each pair once, as the row (min(i, j), max(i, j)), rows in sorted order."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ParameterError(f"need n >= 1, got {n}")
        rows, rest = self.edges, []
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] == 2 and rows.dtype.kind in "iu"):
            # any other input is a sequence of pairs: the integer ones before the first other one
            pairs = list(rows)
            k = next((k for k, (i, j) in enumerate(pairs)
                      if not (isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral))), len(pairs))
            rows, rest = np.array(pairs[:k], dtype=object).reshape(-1, 2), pairs[k:]
        # the first pair in input order that breaks a rule is the one named
        bad = (rows[:, 0] == rows[:, 1]) | ((rows < 0) | (rows >= n)).any(axis=1)
        if bad.any():
            i, j = rows[bad.argmax()].tolist()
            if i == j:
                raise ParameterError(f"self-loop at node {i}")
            raise ParameterError(f"bad edge {(i, j)}: nodes must be in 0..{n - 1}")
        if rest:
            raise ParameterError(f"bad edge {tuple(rest[0])}: nodes must be integers")
        lo, hi = np.sort(rows.astype(np.intp), axis=1).T
        adj = np.zeros((n, n), dtype=bool)
        adj[lo, hi] = True
        edges = np.argwhere(adj)  # row-major order: each pair once, rows sorted
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        adj[hi, lo] = True
        seen = frontier = np.arange(n) == 0  # breadth-first from node 0
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if not seen.all():
            raise ParameterError("graph is not connected")

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


def ring_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 2:
        raise ParameterError(f"ring needs n >= 2, got {n}")
    nodes = np.arange(n)
    return Graph(n, np.column_stack((nodes, (nodes + 1) % n)))


def complete_graph(n: int) -> Graph:
    """All pairs connected; its Metropolis matrix is the equal-weight (1/n) matrix."""
    if n < 2:
        raise ParameterError(f"complete graph needs n >= 2, got {n}")
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


_ER_TRIES = 1000  # samples erdos_renyi draws before it gives up on a connected one


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    """ER(n, p): each pair kept independently with probability p, resampled until connected."""
    if n < 2:
        raise ParameterError(f"ER graph needs n >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"need p in (0, 1], got {p}")
    pairs = np.column_stack(np.triu_indices(n, 1))  # row-major i < j: draw k decides pair k
    for _ in range(_ER_TRIES):
        try:
            return Graph(n, pairs[rng.random(len(pairs)) < p])
        except ParameterError:  # the pairs are valid edges, so the sample is disconnected
            continue
    raise ParameterError(f"no connected ER({n}, {p}) sample in {_ER_TRIES} tries")


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Symmetric doubly stochastic matrix with cached spectral quantities.

    sigma2 is the second-largest singular value (largest non-unit absolute
    eigenvalue); lambda_min and lambda2 are the smallest and second-largest
    eigenvalues. All are computed once by a dense symmetric eigendecomposition.
    """

    w: np.ndarray
    sigma2: float = field(init=False)
    lambda_min: float = field(init=False)
    lambda2: float = field(init=False)

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
    i, j = g.edges.T
    w = np.zeros((g.n, g.n))
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
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
    """W^t; stays symmetric doubly stochastic, with sigma2(W^t) = sigma2(W)^t. W^1 is w itself."""
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    if t == 1:
        return w
    wt = np.linalg.matrix_power(w.w, t)
    return MixingMatrix(0.5 * (wt + wt.T))


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
    disagreement function; mu_t = 1 - lambda2(W^t); alpha_bar caps the
    consensus stepsize alpha, and gamma_t turns it into the contraction rho(alpha).
    """

    l_t: float
    mu_t: float
    alpha_bar: float
    gamma_t: float

    def rho(self, alpha: float) -> float:
        """The contraction factor rho = sqrt(1 - gamma_t * alpha) at stepsize alpha; the
        theory holds it for alpha <= alpha_bar. Raises ParameterError unless 0 < rho^2 < 1."""
        rho_sq = 1.0 - self.gamma_t * alpha
        if not (0.0 < rho_sq < 1.0):
            raise ParameterError(f"contraction factor out of range: rho^2 = {rho_sq:.6g}")
        return float(np.sqrt(rho_sq))


def consensus_rate_params(wt: MixingMatrix, p: ConsensusRegionParams) -> ConsensusRateReport:
    """Evaluate the consensus contraction constants of one gossip step with wt = W^t.

    The stepsize cap is alpha_bar = min(phi / (2 l_t), 1, 1/M) with phi = 2 - delta2^2,
    where M is the second-order retraction bound; M = 1 for the polar retraction, so the
    cap is min(phi / (2 l_t), 1).
    """
    if wt.n < 2:
        raise ParameterError("consensus rate needs at least two agents")
    l_t = 1.0 - wt.lambda_min
    mu_t = 1.0 - wt.lambda2
    return ConsensusRateReport(
        l_t=l_t,
        mu_t=mu_t,
        alpha_bar=min((2.0 - p.delta2**2) / (2.0 * l_t), 1.0),
        gamma_t=float((1.0 - 4.0 * p.r * p.delta1**2) * (1.0 - p.delta2**2 / 2.0) * mu_t),
    )
