"""Local objectives for the decentralized eigenvector benchmark.

Each agent i holds a data block A_i and minimizes f_i(x) = -tr(x.T A_i.T A_i x)/2
over St(d, r); the network-average objective is minimized by the leading
eigenvectors of sum_i A_i.T A_i. Includes synthetic data with a controlled
eigengap, delimiter-separated file ingestion, smoothness constants for the
stepsize rules, and the centralized solution used as an oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DimensionError, IngestionError, ParameterError
from .manifold import StiefelPoint


class EigLocal:
    """One agent's share of the eigenvector problem.

    Holds the m_i x d data block and its precomputed d x d Gram matrix.
    f(x) = -tr(x.T G x)/2 with G = A.T A; no 1/m normalization is applied here,
    the experiment harness folds it into the stepsize instead.
    """

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise DimensionError(f"data block must be a nonempty matrix, got {rows.shape}")
        rows = rows.copy()
        rows.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            gram = rows.T @ rows
            gram = 0.5 * (gram + gram.T)
        if not np.isfinite(gram).all():
            raise ParameterError("Gram matrix of the data block is not finite (values too large)")
        gram.flags.writeable = False
        self.rows = rows
        self.gram = gram

    @property
    def sample_count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.dim:
            raise DimensionError(f"point has shape {x.shape}, data has d={self.dim}")
        return x

    def value(self, x) -> float:
        x = self._check(x)
        return float(-0.5 * np.sum(x * (self.gram @ x)))

    def euclidean_grad(self, x) -> np.ndarray:
        x = self._check(x)
        return -(self.gram @ x)

    def stochastic_egrad(self, x, batch_indices) -> np.ndarray:
        """Unbiased gradient estimate from the given sample rows.

        Returns -(m/|B|) sum_{s in B} a_s (a_s.T x); averaged over a disjoint
        partition of all rows (weighted by batch size) this telescopes exactly
        to the full gradient.
        """
        x = self._check(x)
        idx = np.asarray(batch_indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ParameterError("batch must be a nonempty index sequence")
        if idx.min() < 0 or idx.max() >= self.sample_count:
            raise ParameterError(
                f"batch indices out of range [0, {self.sample_count})"
            )
        sub = self.rows[idx]
        return -(self.sample_count / idx.size) * (sub.T @ (sub @ x))

    def __repr__(self):
        return f"EigLocal(m={self.sample_count}, d={self.dim})"


@dataclass(frozen=True)
class SmoothnessConstants:
    """Constants used by the stepsize rules and diagnostics.

    l is the Euclidean gradient Lipschitz constant, l_n the largest operator
    norm of the gradient over the manifold, l_g = l + l_n and l_big = l + 2 l_n
    the two Lipschitz-type constants on the manifold, d_bound the Frobenius
    gradient bound, and xi the stochastic-gradient deviation bound (an
    empirical estimate unless supplied by the caller).
    """

    l: float
    l_n: float
    l_g: float
    l_big: float
    d_bound: float
    xi: float = 0.0
    xi_is_estimate: bool = False

    def __post_init__(self):
        vals = (self.l, self.l_n, self.l_g, self.l_big, self.d_bound, self.xi)
        if any(v < 0.0 for v in vals):
            raise ParameterError("smoothness constants must be nonnegative")
        if self.l_g > self.l_big + 1e-15:
            raise ParameterError("need l_g <= l_big")

    def with_xi(self, xi: float, estimate: bool = True) -> "SmoothnessConstants":
        return replace(self, xi=xi, xi_is_estimate=estimate)


def quadratic_constants(locals_, r: int) -> SmoothnessConstants:
    """Smoothness constants of the quadratic eigenvector objective.

    For f(x) = -tr(x.T G x)/2 both the gradient Lipschitz constant and the
    operator-norm bound equal the largest Gram eigenvalue, maximized over
    agents; the Frobenius bound uses the provable sqrt(r) * l_n rather than a
    sampled supremum, so stepsizes derived from it stay on the safe side.
    """
    locals_ = list(locals_)
    if not locals_:
        raise ParameterError("need at least one local objective")
    if r < 1:
        raise ParameterError(f"need r >= 1, got {r}")
    l_n = max(float(np.linalg.eigvalsh(o.gram)[-1]) for o in locals_)
    l_n = max(l_n, 0.0)
    return SmoothnessConstants(
        l=l_n,
        l_n=l_n,
        l_g=2.0 * l_n,
        l_big=3.0 * l_n,
        d_bound=float(np.sqrt(r)) * l_n,
    )


def estimate_xi(
    locals_, x: StiefelPoint, rng: np.random.Generator, draws: int = 256
) -> float:
    """Empirical deviation bound: max over agents and draws of ||v - grad f_i(x)||_F
    for single-sample stochastic gradients v drawn at the given point."""
    if draws < 1:
        raise ParameterError(f"need draws >= 1, got {draws}")
    worst = 0.0
    for o in locals_:
        full = o.euclidean_grad(x.data)
        for _ in range(draws):
            v = o.stochastic_egrad(x.data, rng.choice(o.sample_count, size=1, replace=False))
            worst = max(worst, float(np.linalg.norm(v - full)))
    return worst


def synthesize_eigengap_data(
    n: int, m_per_node: int, d: int, r: int, gap: float, seed
) -> tuple:
    """Gaussian data reshaped to a geometric singular-value profile.

    Draws an (n * m_per_node) x d standard Gaussian matrix, replaces its
    singular values by s_0 * gap^(i/2), splits the rows evenly across n agents,
    and also returns the exact leading-eigenvector solution for use as an
    oracle. Larger gap means slower spectral decay and a harder problem.
    """
    if n < 1 or m_per_node < 1:
        raise ParameterError("need n >= 1 and m_per_node >= 1")
    if not (1 <= r <= d):
        raise ParameterError(f"need 1 <= r <= d, got r={r}, d={d}")
    if n * m_per_node < d:
        raise ParameterError(
            f"need n * m_per_node >= d for a full spectrum, got {n * m_per_node} < {d}"
        )
    if not (0.0 < gap < 1.0):
        raise ParameterError(f"need gap in (0, 1), got {gap}")
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((n * m_per_node, d))
    u, s, vt = np.linalg.svd(a0, full_matrices=False)
    s_new = s[0] * gap ** (np.arange(d) / 2.0)
    a = (u * s_new) @ vt
    blocks = [
        EigLocal(a[i * m_per_node : (i + 1) * m_per_node]) for i in range(n)
    ]
    return blocks, StiefelPoint(vt[:r].T)


def load_dsv_partition(path, n: int, normalize_divisor: float = 1.0) -> list:
    """Read a delimiter-separated sample matrix and split it across n agents.

    One sample per row, comma- or whitespace-delimited, no header (a single
    leading non-numeric row is skipped). Rows are divided by the divisor and
    split into n contiguous blocks; the first (rows mod n) agents get one
    extra row each. Parse failures and non-finite fields (nan, inf) report the
    1-based line number; a block whose Gram matrix overflows names its agent.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if normalize_divisor == 0.0:
        raise ParameterError("divisor must be nonzero")
    rows = []
    width = None
    header_allowed = True
    with open(Path(path), "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",") if "," in line else line.split()
            try:
                values = [float(tok) for tok in fields]
            except ValueError:
                if header_allowed:
                    header_allowed = False  # only the first row may be a header
                    continue
                bad = next(tok for tok in fields if not _is_number(tok))
                raise IngestionError(f"line {lineno}: non-numeric field {bad!r}") from None
            bad = next((tok for tok, v in zip(fields, values) if not math.isfinite(v)), None)
            if bad is not None:
                raise IngestionError(f"line {lineno}: non-finite field {bad!r}")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise IngestionError(
                    f"line {lineno}: expected {width} fields, got {len(values)}"
                )
            header_allowed = False
            rows.append(values)
    total = len(rows)
    if total < n:
        raise IngestionError(f"only {total} data rows for {n} agents")
    data = np.asarray(rows, dtype=float) / normalize_divisor
    base, extra = divmod(total, n)
    blocks = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        try:
            blocks.append(EigLocal(data[start : start + size]))
        except ParameterError as e:
            raise IngestionError(f"agent {i}: {e}; scale the data down with --divisor") from None
        start += size
    return blocks


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def centralized_oracle(locals_, r: int) -> StiefelPoint:
    """Leading r eigenvectors of the summed Gram matrix, by descending eigenvalue.

    Warns when the eigengap between positions r and r+1 vanishes, since the
    optimal subspace is then ill-defined.
    """
    locals_ = list(locals_)
    if not locals_:
        raise ParameterError("need at least one local objective")
    d = locals_[0].dim
    if not (1 <= r <= d):
        raise ParameterError(f"need 1 <= r <= d, got r={r}, d={d}")
    total = np.zeros((d, d))
    for o in locals_:
        if o.dim != d:
            raise DimensionError("local objectives have mismatched dimensions")
        total += o.gram
    evals, evecs = np.linalg.eigh(total)
    if r < d and evals[-r] - evals[-(r + 1)] < 1e-12:
        warnings.warn(
            "eigengap below 1e-12: the optimal subspace is ill-defined",
            RuntimeWarning,
            stacklevel=2,
        )
    return StiefelPoint(evecs[:, ::-1][:, :r])
