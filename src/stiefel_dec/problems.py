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
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import IngestionError, ParameterError
from .manifold import StiefelPoint, frobenius_norms

_BAD_BATCH = "need nonempty batches of indices in [0, m_i)"


class EigLocal:
    """The eigenvector problem of a whole swarm, held as stacked arrays.

    The M x d data rows are split into n contiguous blocks A_i, the first
    (M mod n) one row longer; agent i minimizes f_i(x) = -tr(x.T G_i x)/2 with
    G_i = A_i.T A_i. Holds the rows, the sample counts m_i and the (n, d, d)
    Gram stack; no 1/m normalization is applied here, the experiment harness
    folds it into the stepsize instead. A point is one d x r array, evaluated
    by every agent, or an (n, d, r) stack with one slice per agent; results
    have one slice (or value) per agent. Iterating yields one-agent problems.
    The data are copied unless copy=False, which adopts and freezes an array
    its caller has just built.
    """

    def __init__(self, data, n: int = 1, copy: bool = True):
        rows = np.array(data, dtype=float) if copy else np.asarray(data, dtype=float)
        if rows.ndim != 2 or not 1 <= n <= rows.shape[0]:
            raise ParameterError(f"need a matrix of at least n={n} rows, got shape {rows.shape}")
        blocks = np.array_split(rows, n)  # views; the first (M mod n) one row longer
        d = rows.shape[1]
        gram = np.empty((n, d, d))
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            for i, block in enumerate(blocks):  # syrk (or numpy's own loop) is exactly symmetric
                np.matmul(block.T, block, out=gram[i])
        bad = np.flatnonzero(~np.isfinite(gram).all(axis=(1, 2)))
        if bad.size:
            raise ParameterError(f"agent {bad[0]}: Gram matrix of the data block is not finite (values too large)")
        self._adopt(rows, np.array([len(b) for b in blocks]), gram)

    def _adopt(self, rows, counts, gram):
        for a in (rows, counts, gram):
            a.flags.writeable = False
        self.rows, self.counts, self.gram = rows, counts, gram
        self.starts = np.cumsum(counts) - counts  # first row of each block

    def __iter__(self):
        for i, (start, m) in enumerate(zip(self.starts, self.counts)):
            agent = object.__new__(EigLocal)
            agent._adopt(self.rows[start : start + m], self.counts[i : i + 1], self.gram[i : i + 1])
            yield agent

    @property
    def n(self) -> int:
        return self.counts.size

    @property
    def sample_count(self) -> int:
        """The largest m_i: an epoch of batches of b rows takes ceil(sample_count / b) steps."""
        return int(self.counts.max())

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def gram_sum(self) -> np.ndarray:
        """sum_i G_i, the Gram matrix of all the rows, formed on first use."""
        total = self.gram.sum(axis=0)
        total.flags.writeable = False
        return total

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (2, 3) or x.shape[-2] != self.dim:
            raise ParameterError(f"point has shape {x.shape}, data has d={self.dim}")
        if x.ndim == 3 and x.shape[0] != self.n:
            raise ParameterError(f"{self.n} objectives for {x.shape[0]} agents")
        return x

    def value(self, x) -> np.ndarray:
        """The n values f_i(x_i)."""
        x = self._check(x)
        return -0.5 * np.sum(x * (self.gram @ x), axis=(-2, -1))

    def euclidean_grad(self, x) -> np.ndarray:
        """The (n, d, r) stack of gradients -G_i x_i."""
        g = self.gram @ self._check(x)
        return np.negative(g, out=g)

    def mean_grad(self, x) -> np.ndarray:
        """The gradient of the average objective at one d x r point, -(sum_i G_i) x / n."""
        return -(self.gram_sum @ self._check(x)) / self.n

    def stochastic_egrad(self, x, batches) -> np.ndarray:
        """Unbiased gradient estimates from each agent's sample rows batches[i]
        (numbered within its block), as an (n, d, r) stack.

        Returns -(m_i/|B_i|) sum_{s in B_i} a_s (a_s.T x_i); averaged over a
        disjoint partition of all rows (weighted by batch size) this telescopes
        exactly to the full gradient. The one-step case of gather and batch_egrad.
        """
        x = self._check(x)
        (step,) = self.gather(batches, [[len(b) for b in batches]])
        return self.batch_egrad(np.broadcast_to(x, (self.n, *x.shape[-2:])), step)

    def gather(self, rows, sizes) -> list:
        """Check the batches of several steps at once and copy their sample rows once.

        rows[i] holds agent i's row numbers (within its block) for all the steps,
        batch after batch, and sizes[s][i] is the length of its batch at step s. The
        rows land in one C-contiguous block, step after step, agent after agent. A
        uniform step (one length b) is one (n, b, d) slice under slice(None); a ragged
        step is one (1, b_i, d) slice per agent under the list [i], which copies x_i.
        No batch is padded and no operand is a strided view. Returns, per step, the
        (agents, a, coef) groups batch_egrad takes, coef = -(m_i/b_i). An empty batch,
        or else an index outside [0, m_i), raises ParameterError naming the first
        agent that has one.
        """
        n = self.n
        if len(rows) != n:
            raise ParameterError(f"{len(rows)} batches for {n} agents")
        sizes = np.asarray(sizes, dtype=int).reshape(-1, n)
        empty = (sizes < 1).any(axis=0)
        if empty.any():
            raise ParameterError(f"agent {np.argmax(empty)}: {_BAD_BATCH}")
        rows = [np.asarray(r) for r in rows]
        for r in rows:
            if r.ndim != 1 or r.dtype.kind not in "iu":
                raise ParameterError(f"need 1-D integer batch indices, got {r.dtype} of shape {r.shape}")
        per_agent = sizes.sum(axis=0)
        if per_agent.tolist() != [r.size for r in rows]:
            raise ParameterError(f"batch lengths add up to {per_agent.tolist()} rows per agent, "
                                 f"got {[r.size for r in rows]}")
        idx = np.concatenate(rows, dtype=int)  # agent after agent
        owner = np.repeat(np.arange(n), per_agent)
        out = owner[(idx < 0) | (idx >= self.counts[owner])]
        if out.size:
            raise ParameterError(f"agent {out[0]}: {_BAD_BATCH}")
        at = self.starts[owner] + idx  # row numbers in the data, agent after agent
        b = sizes.max(initial=1)
        if (sizes == b).all():  # a uniform epoch: (steps, n, b) by one reshape, copied,
            coef = -(self.counts / b)[:, None, None]  # since a strided index gives a strided block
            return [[(slice(None), a, coef)] for a in self.rows[at.reshape(n, -1, b).swapaxes(0, 1).copy()]]
        step_of = np.repeat(np.tile(np.arange(len(sizes)), n), sizes.T.ravel())
        pick = np.argsort(step_of, kind="stable")  # step after step, agent after agent
        block = self.rows[at[pick]]  # (total, d), C-contiguous
        plans, coefs, pos = [], {}, 0
        for row in sizes.tolist():
            b = row[0]
            if row.count(b) == n:  # uniform
                if b not in coefs:
                    coefs[b] = -(self.counts / b)[:, None, None]
                step = [(slice(None), block[pos : pos + n * b].reshape(n, b, -1), coefs[b])]
            else:  # ragged
                step = [([i], block[lo : lo + b][None], -(self.counts[i] / b))
                        for i, (b, lo) in enumerate(zip(row, accumulate(row, initial=pos)))]
            plans.append(step)
            pos += sum(row)
        return plans

    @staticmethod
    def batch_egrad(x, step) -> np.ndarray:
        """The (n, d, r) gradient estimates at an (n, d, r) stack x from one gathered
        step: -(m_i/b) a.T (a x_i) for each group of a slice a."""
        if len(step) == 1:  # uniform: the one group's product is the result
            ((_, a, coef),) = step
            return coef * (a.swapaxes(1, 2) @ (a @ x))
        grads = np.empty(x.shape)
        for agents, a, coef in step:
            grads[agents] = coef * (a.swapaxes(1, 2) @ (a @ x[agents]))
        return grads


@dataclass(frozen=True)
class SmoothnessConstants:
    """Constants of the quadratic objective used by the stepsize rules and diagnostics.

    l_n is the largest Gram eigenvalue over the agents: both the Euclidean
    gradient Lipschitz constant and the largest operator norm of the gradient
    over the manifold. From it follow l_g = 2 l_n and l_big = 3 l_n, the two
    Lipschitz-type constants on the manifold, and d_bound = sqrt(r) l_n, the
    Frobenius gradient bound on St(d, r). xi is the stochastic-gradient
    deviation bound, 0 where no rule needs it.
    """

    l_n: float
    r: int
    xi: float = 0.0

    def __post_init__(self):
        if self.l_n < 0.0 or self.xi < 0.0:
            raise ParameterError("smoothness constants must be nonnegative")
        if self.r < 1:
            raise ParameterError(f"need r >= 1, got {self.r}")

    @property
    def l_g(self) -> float:
        return 2.0 * self.l_n

    @property
    def l_big(self) -> float:
        return 3.0 * self.l_n

    @property
    def d_bound(self) -> float:
        return float(np.sqrt(self.r)) * self.l_n


def quadratic_constants(locals_, r: int) -> SmoothnessConstants:
    """Smoothness constants of the quadratic eigenvector objective.

    For f(x) = -tr(x.T G x)/2 both the gradient Lipschitz constant and the
    operator-norm bound equal the largest Gram eigenvalue, maximized over
    agents; the Frobenius bound uses the provable sqrt(r) * l_n rather than a
    sampled supremum, so stepsizes derived from it stay on the safe side.
    """
    return SmoothnessConstants(max(_largest_gram_eigenvalue(locals_), 0.0), r)


def _largest_gram_eigenvalue(locals_) -> float:
    """max_i lambda_max(G_i). When every block has fewer rows m_i than d it comes from
    the m_i x m_i outer Grams A_i A_i.T, which share the nonzero spectrum of G_i, one
    agent at a time (a stack of them would raise the set-up's peak memory). An outer
    Gram that overflows takes the d x d route."""
    if locals_.sample_count < locals_.dim:
        top = 0.0
        for start, m in zip(locals_.starts.tolist(), locals_.counts.tolist()):
            block = locals_.rows[start : start + m]
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                outer = block @ block.T
            if not np.isfinite(outer).all():
                break
            top = float(np.max(np.linalg.eigvalsh(outer), initial=top))  # an empty block adds 0
        else:
            return top
    return float(np.linalg.eigvalsh(locals_.gram)[:, -1].max())


_XI_DRAWS = 256  # single-sample gradients per agent behind an xi estimate
_GRAM_ROUTE_COND_SQ = 16.0  # synthesis forms the rows from a0.T a0 below this cond(a0)^2
_SLAB_ROWS = 1024  # rows per product when synthesis rewrites its draw in place


def estimate_xi(locals_, x: StiefelPoint, rng: np.random.Generator) -> float:
    """Empirical deviation bound: max over agents and 256 draws of ||v - grad f_i(x)||_F
    for single-sample stochastic gradients v drawn at the given point."""
    # the rng serves agent 0's draws, then agent 1's, ...; all are gathered at once and
    # the gradients go a draw at a time
    rows = [rng.integers(0, m, size=_XI_DRAWS) for m in locals_.counts.tolist()]
    at = np.broadcast_to(x.data, (locals_.n, *x.data.shape))
    full = locals_.euclidean_grad(x.data)
    worst = 0.0
    for step in locals_.gather(rows, np.ones((_XI_DRAWS, locals_.n), dtype=int)):
        dev = locals_.batch_egrad(at, step) - full
        worst = max(worst, float(np.fmax.reduce(frobenius_norms(dev))))  # fmax, like max(), skips NaN
    return worst


def synthesize_eigengap_data(
    n: int, m_per_node: int, d: int, r: int, gap: float, seed
) -> tuple:
    """Gaussian data reshaped to a geometric singular-value profile.

    Draws an M x d standard Gaussian matrix a0 (M = n * m_per_node), replaces its
    singular values s_i by s_0 * gap^(i/2), splits the rows evenly across n agents
    (one EigLocal), and also returns the exact leading-eigenvector solution for
    use as an oracle. Larger gap means slower spectral decay and a harder problem.

    The profile comes from the d x d Gram matrix, not from an M x d factorization:
    with (s_i^2, V) = eigh(a0.T a0) the rows are a0 V diag(s_new / s) V.T and the
    oracle is the top r columns of V. The Gram squares cond(a0), so this route is
    taken only when its smallest eigenvalue exceeds 1/16 of the largest (cond(a0)
    < 4, which a Gaussian draw with M >= 4d all but always meets, and one with
    M = d almost never); otherwise the rows come from the thin SVD a0 = U S V.T as
    U diag(s_new) V.T. Either way, at every M >= d, each sigma_i(rows) stays within
    64 eps s_0 of s_new_i, and the oracle's subspace_distance to the rows' top r
    right singular vectors within 64 eps s_0 / (s_new_(r-1) - s_new_r). No
    eigenvalue at or below 0 reaches the square root or the division.
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
    a0 = np.random.default_rng(seed).standard_normal((n * m_per_node, d))
    s2, v = np.linalg.eigh(a0.T @ a0)
    s2, v = s2[::-1], v[:, ::-1]  # descending
    decay = gap ** (np.arange(d) / 2.0)
    if s2[-1] > s2[0] / _GRAM_ROUTE_COND_SQ:  # strict: every s2 is then positive
        s = np.sqrt(s2)
        a, b = a0, (v * (s[0] * decay / s)) @ v.T
    else:
        u, s, vt = np.linalg.svd(a0, full_matrices=False)
        del a0
        u *= s[0] * decay
        a, b, v = u, vt, vt.T
    # the rows are a @ b, written back over a a slab at a time: outside the SVD's own
    # transient the set-up holds one M x d array, and the heap never has two to fit
    # the Gram stack around
    for start in range(0, a.shape[0], _SLAB_ROWS):
        rows = a[start : start + _SLAB_ROWS]
        rows[:] = rows @ b
    return EigLocal(a, n, copy=False), StiefelPoint(v[:, :r])


def load_dsv_partition(path, n: int, normalize_divisor: float = 1.0) -> EigLocal:
    """Read a delimiter-separated sample matrix and split it across n agents.

    One sample per row, comma- or whitespace-delimited, no header (a single
    leading non-numeric row is skipped; a UTF-8 byte-order mark is dropped). Rows
    are divided by the divisor and split as EigLocal splits them. A file that is
    not UTF-8 text is named; parse failures and non-finite fields (nan, inf) report
    the 1-based line number; a block whose Gram matrix overflows names its agent.
    """
    if normalize_divisor == 0.0:
        raise ParameterError("divisor must be nonzero")
    if n < 1:  # checked here: EigLocal's own errors below mean the data overflowed
        raise ParameterError(f"need n >= 1, got {n}")
    values_read = array("d")  # every row's values back to back, held once
    total = 0
    width = None
    header_allowed = True
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a line at a time, universal newlines
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
                values_read.extend(values)
                total += 1
    except OSError as e:
        raise IngestionError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError:
        raise IngestionError(f"cannot read {path}: not UTF-8 text") from None
    if total < n:
        raise IngestionError(f"only {total} data rows for {n} agents")
    rows = np.frombuffer(values_read, dtype=float).reshape(total, width)
    with np.errstate(over="ignore"):  # EigLocal's Gram check reports it, naming --divisor
        np.divide(rows, normalize_divisor, out=rows)
    try:
        return EigLocal(rows, n, copy=False)
    except ParameterError as e:
        raise IngestionError(f"{e}; scale the data down with --divisor") from None


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def centralized_oracle(locals_, r: int) -> StiefelPoint:
    """Leading r eigenvectors of the summed Gram matrix, by descending eigenvalue.

    Warns when the gap between eigenvalues r and r+1 is at most 1e-12 of the largest
    (an exact tie, an all-zero spectrum): the optimal subspace is then ill-defined.
    """
    d = locals_.dim
    if not (1 <= r <= d):
        raise ParameterError(f"need 1 <= r <= d, got r={r}, d={d}")
    evals, evecs = np.linalg.eigh(locals_.gram_sum)
    if r < d and evals[-r] - evals[-(r + 1)] <= 1e-12 * evals[-1]:
        warnings.warn("eigengap below 1e-12 of the largest eigenvalue: the optimal subspace is "
                      "ill-defined", RuntimeWarning, stacklevel=2)
    return StiefelPoint(evecs[:, ::-1][:, :r])
