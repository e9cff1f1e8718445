"""The three decentralized iteration schemes and their stepsize rules.

All schemes share the same synchronous-round template: every agent mixes its
neighbors' variables through t rounds of gossip (one product with W^t),
projects once onto its tangent space, steps, and retracts. The consensus
scheme projects the mixed point; the gradient schemes project the mixed point
minus a (stochastic, exact or tracked) gradient step, which by linearity of
the projection equals the difference of the two projections. Rounds are
barrier-synchronized, so a round is a few operations on the (n, d, r) stack
of all agents' variables.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .manifold import StiefelPoint, SwarmState, _check_orthonormal, as_stack, consensus_measures
from .manifold import polar_retract, project_to_tangent
from .metrics import IterationRecord, average_value, stationarity_measure, subspace_distance
from .network import MixingMatrix, matrix_power, mix

ALGORITHMS = ("drcs", "drsgd", "drdgd", "drgta")

@dataclass(frozen=True, eq=False)
class TrackerState:
    """Gradient trackers y_i (ambient, not constrained tangent) and the local
    Riemannian gradients g_i = grad f_i(x_i) they carry, as read-only copies of
    (n, d, r) arrays. The tracker average stays equal to the average Riemannian gradient."""

    y: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        y, g = as_stack(self.y, "tracker"), as_stack(self.g, "gradient")
        if g.shape != y.shape:
            raise ParameterError(f"gradients have shape {g.shape}, trackers {y.shape}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "g", g)

    def average(self) -> np.ndarray:
        return self.y.sum(axis=0) / len(self.y)


@dataclass(frozen=True)
class StepsizeSchedule:
    """Gradient stepsize sequence: diminishing base/sqrt(k+1) or the constant base."""

    base: float
    diminishing: bool = False

    def __post_init__(self):
        if self.base <= 0.0:
            raise ParameterError(f"stepsize base must be positive, got {self.base}")

    def beta(self, k: int) -> float:
        if k < 0:
            raise ParameterError(f"need k >= 0, got {k}")
        if self.diminishing:
            return self.base / math.sqrt(k + 1.0)
        return self.base


def drsgd_diminishing_schedule(constants, rho_t: float, alpha: float, delta1: float) -> StepsizeSchedule:
    """Theory stepsize: (1/sqrt(k+1)) * min(1/(5 l_g), alpha d1/(5 D), (1-rho) d1/D)."""
    _check_rate_inputs(rho_t, alpha, delta1)
    if constants.l_g <= 0.0 or constants.d_bound <= 0.0:
        raise ParameterError("need positive l_g and d_bound")
    base = min(
        1.0 / (5.0 * constants.l_g),
        alpha * delta1 / (5.0 * constants.d_bound),
        (1.0 - rho_t) * delta1 / constants.d_bound,
    )
    return StepsizeSchedule(base, diminishing=True)


def drsgd_constant_schedule(
    k_max: int, n: int, constants, alpha: float, delta1: float, rho_t: float
) -> StepsizeSchedule:
    """Constant stepsize 1/(2 l_big + xi sqrt((K+1)/n)) for a K-iteration run.

    The rule is only guaranteed for K at or above the horizon
    n (max(3 l_big, 5 D/(alpha d1), D/((1-rho) d1)) / xi)^2 - 1; a warning is
    emitted when K falls short. With xi = 0 the stepsize degrades gracefully to
    1/(2 l_big) and no horizon is known.
    """
    _check_rate_inputs(rho_t, alpha, delta1)
    if k_max < 0:
        raise ParameterError(f"need K >= 0, got {k_max}")
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    lb, db, xi = constants.l_big, constants.d_bound, constants.xi
    if lb <= 0.0:
        raise ParameterError("need positive l_big")
    if xi > 0.0:
        worst = max(3.0 * lb, 5.0 * db / (alpha * delta1), db / ((1.0 - rho_t) * delta1))
        horizon = math.ceil(n * (worst / xi) ** 2 - 1.0)
        if k_max < horizon:
            warnings.warn(
                f"constant-stepsize rule assumes K >= {horizon}, got {k_max}",
                RuntimeWarning,
                stacklevel=2,
            )
    return StepsizeSchedule(1.0 / (2.0 * lb + xi * math.sqrt((k_max + 1.0) / n)))


def drgta_max_stepsize(constants, rho_t: float, alpha: float, delta1: float) -> float:
    """Largest tracking stepsize with the stay-in-region guarantee:
    min((1-rho) d1, alpha d1 / 5) / (l_big + 2 D)."""
    _check_rate_inputs(rho_t, alpha, delta1)
    denom = constants.l_big + 2.0 * constants.d_bound
    if denom <= 0.0:
        raise ParameterError("need positive l_big + 2 d_bound")
    return min((1.0 - rho_t) * delta1, alpha * delta1 / 5.0) / denom


def _check_rate_inputs(rho_t: float, alpha: float, delta1: float):
    if not (0.0 < rho_t < 1.0):
        raise ParameterError(f"need rho_t in (0, 1), got {rho_t}")
    if alpha <= 0.0:
        raise ParameterError(f"need alpha > 0, got {alpha}")
    if delta1 <= 0.0:
        raise ParameterError(f"need delta1 > 0, got {delta1}")


def _retracted(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """R_x(xi), frozen: the iterate a step returns. polar_retract's conditioning test
    stands in for an orthonormality check; run checks the iterate at every row."""
    out = polar_retract(x, xi)
    out.flags.writeable = False
    return out


def _check_step(x: np.ndarray, alpha: float, beta: float = 0.0, **stacks):
    """A step's argument checks: alpha > 0, beta >= 0 and every stack shaped like x."""
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if beta < 0.0:
        raise ParameterError(f"beta must be nonnegative, got {beta}")
    for name, v in stacks.items():
        if v.shape != x.shape:
            raise ParameterError(f"{name} of shape {v.shape} for a swarm of shape {x.shape}")


def drcs_step(x: np.ndarray, wt: MixingMatrix, alpha: float) -> np.ndarray:
    """One consensus iteration on the (n, d, r) swarm x: retract along the tangent part
    of the mixed point; returns the new swarm, read-only.

    x_i <- R_{x_i}(alpha P_{T_{x_i}}(sum_j W_ij x_j)); the tangent part of the
    mixed point is exactly minus the Riemannian gradient of the disagreement
    function, so identical agents stay put.
    """
    _check_step(x, alpha)
    xi = project_to_tangent(x, mix(x, wt))
    xi *= alpha
    return _retracted(x, xi)


def _pull(x: np.ndarray, wt: MixingMatrix, alpha: float, beta: float, v: np.ndarray) -> np.ndarray:
    """alpha mix(x) - beta v, in place on the fresh mixed stack (same bits as the expression)."""
    out = mix(x, wt)
    out *= alpha
    out -= beta * v
    return out


def drsgd_step(x: np.ndarray, wt: MixingMatrix, alpha: float, beta_k: float, egrads) -> np.ndarray:
    """One (stochastic) gradient iteration on the (n, d, r) swarm x: consensus pull minus
    a gradient step; returns the new swarm, read-only.

    x_i <- R_{x_i}(P_{T_{x_i}}(alpha sum_j W_ij x_j - beta_k e_i)) where egrads
    is the (n, d, r) stack of the e_i: Euclidean gradients at the x_i, stochastic
    or exact. The one projection equals alpha P(mixed) - beta_k grad_i with grad_i
    the Riemannian gradient; beta_k = 0 recovers the pure consensus step.
    """
    _check_step(x, alpha, beta_k, gradients=egrads)
    return _retracted(x, project_to_tangent(x, _pull(x, wt, alpha, beta_k, egrads)))


def _riemannian_grads(x: np.ndarray, locals_) -> np.ndarray:
    """The (n, d, r) stack of grad f_i(x_i), which the trackers carry."""
    return project_to_tangent(x, locals_.euclidean_grad(x))


def drgta_init(x: np.ndarray, locals_) -> tuple:
    """Start the trackers at the local Riemannian gradients: (y, g) with
    y_i = g_i = grad f_i(x_i), one read-only (n, d, r) array."""
    g = _riemannian_grads(x, locals_)
    g.flags.writeable = False
    return g, g


def drgta_step(x: np.ndarray, y, g, wt: MixingMatrix, alpha: float, beta: float, locals_) -> tuple:
    """One gradient-tracking iteration on the (n, d, r) swarm x, trackers y and the
    Riemannian gradients g they carry; returns the new (x, y, g), read-only.

    Per agent: move x_i <- R_{x_i}(P_{T_{x_i}}(alpha mixed - beta y_i)), one
    projection for alpha P(mixed) - beta P(y_i); refresh the tracker
    y_i <- sum_j W_ij y_j + grad f_i(x_i+) - g_i. Because W is doubly
    stochastic the tracker average equals the average Riemannian gradient
    after every step (the correction telescopes).
    """
    _check_step(x, alpha, beta, trackers=y, gradients=g)
    x_new = _retracted(x, project_to_tangent(x, _pull(x, wt, alpha, beta, y)))
    g_new = _riemannian_grads(x_new, locals_)
    y_new = mix(y, wt)
    y_new += g_new - g
    y_new.flags.writeable = g_new.flags.writeable = False
    return x_new, y_new, g_new


def tracking_residual(tr: TrackerState, s: SwarmState, locals_) -> float:
    """Norm of (tracker average - average Riemannian gradient); zero in exact arithmetic."""
    mean_grad = _riemannian_grads(s.x, locals_).sum(axis=0) / s.n
    return float(np.linalg.norm(tr.average() - mean_grad))


def steps_per_epoch(locals_, batch_size: int) -> int:
    """Inner steps of one drsgd epoch: enough batches for the largest local sample set."""
    return math.ceil(locals_.sample_count / batch_size)


def _epoch_batches(m: int, batch: int, steps: int, rng: np.random.Generator):
    """One agent's batches, an epoch of `steps` at a time: their row numbers back to
    back and their lengths. Batches of `batch` rows walk a shuffle of the m rows, the
    last one of a pass takes what is left, and each pass is a fresh shuffle."""
    one_pass = [batch] * (m // batch) + ([m % batch] if m % batch else [])
    rows, sizes = np.empty(0, dtype=int), []
    while True:
        while len(sizes) < steps:
            rows = np.concatenate([rows, rng.permutation(m)])
            sizes += one_pass
        taken = sum(sizes[:steps])
        yield rows[:taken], sizes[:steps]
        rows, sizes = rows[taken:], sizes[steps:]


@dataclass(frozen=True)
class RunResult:
    """Outcome of a run: metric rows (initial row plus one per round), the final
    state, the tracker for gradient-tracking runs, and why the loop stopped."""

    records: tuple
    final: SwarmState
    tracker: TrackerState | None
    converged: bool
    stop: str


def run(
    algorithm: str,
    swarm: SwarmState,
    wt: MixingMatrix,
    *,
    alpha: float,
    locals_=None,
    schedule: StepsizeSchedule | None = None,
    oracle: StiefelPoint | None = None,
    max_rounds: int = 100,
    batch_size: int = 1,
    tol_ds: float | None = None,
    tol_grad: float | None = None,
    tol_consensus: float | None = None,
    seed: int = 0,
    rounds: int = 1,
    timing: bool = False,
    on_record=None,
) -> RunResult:
    """Drive one of the algorithms for up to max_rounds synchronous rounds.

    A round is one iteration, except for the stochastic algorithm where it is
    one epoch (a full pass over every agent's samples, shuffled per epoch from
    per-agent streams derived from the seed, whose batches are drawn, checked and
    gathered when the epoch starts). One metrics row is recorded per
    round plus an initial row, each handed to on_record(row) first when given.
    Each row first checks the swarm orthonormal, once per round (not per drsgd
    step: a step's retraction raises itself when its conditioning breaks down). A
    breakdown in the loop (a non-finite value, a retraction that lost its
    conditioning, an iterate that lost orthonormality) raises NumericalError naming
    its round, a KeyboardInterrupt the last recorded round. Early stop on d_s(mean,
    oracle) <= tol_ds, on ||grad f(mean)|| <= tol_grad, or (consensus runs) on
    the stacked deviation norm <= tol_consensus; tolerances set to None or 0
    are disabled. Each gossip step runs `rounds` rounds of wt, applied as one
    product with wt^rounds. The same seed and arguments give identical records.
    The loop carries the swarm, the trackers and their gradients as read-only
    (n, d, r) arrays; `final` and `tracker` are built from them once, at the end.
    """
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algorithm!r}")
    if max_rounds < 0:
        raise ParameterError(f"need max_rounds >= 0, got {max_rounds}")
    if not alpha > 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    with_obj = algorithm != "drcs"
    if with_obj:
        if locals_ is None:
            raise ParameterError(f"{algorithm} needs local objectives")
        locals_._check(swarm.x)  # one objective per agent
        if schedule is None:
            raise ParameterError(f"{algorithm} needs a stepsize schedule")
    if wt.n != swarm.n:
        raise ParameterError(f"mixing matrix is {wt.n}x{wt.n}, swarm has shape {swarm.x.shape}")
    if oracle is not None and oracle.data.shape != swarm.x.shape[1:]:
        raise ParameterError(f"oracle has shape {oracle.data.shape}, swarm has shape {swarm.x.shape}")
    if batch_size < 1:
        raise ParameterError(f"need batch_size >= 1, got {batch_size}")
    if rounds < 1:
        raise ParameterError(f"need rounds >= 1, got {rounds}")
    if rounds > 1:
        wt = matrix_power(wt, rounds)

    x = swarm.x
    target = None if oracle is None else oracle.data
    y, g = drgta_init(x, locals_) if algorithm == "drgta" else (None, None)
    streams = None
    if algorithm == "drsgd":
        steps = steps_per_epoch(locals_, batch_size)
        streams = [
            _epoch_batches(m, batch_size, steps, np.random.default_rng([seed, 2, i]))
            for i, m in enumerate(locals_.counts.tolist())
        ]

    t_start = time.perf_counter()
    records = []

    def snapshot(k: int, beta: float | None):
        _check_orthonormal(x)  # the round's one check of the swarm
        mean, ces, linf = consensus_measures(x)  # the mean, checked once, and the two errors
        gsq = f_bar = ds = None
        if with_obj:
            egrad = locals_.mean_grad(mean)
            gsq = stationarity_measure(mean, egrad)
            f_bar = average_value(mean, egrad)
        if target is not None:
            ds = subspace_distance(mean, target)
        elapsed = (time.perf_counter() - t_start) * 1000.0 if timing else None
        rec = IterationRecord(k, ces, linf, gsq, f_bar, ds, beta, elapsed)  # the CSV's column order
        if on_record is not None:
            on_record(rec)
        records.append(rec)

    def stop_reason(rec: IterationRecord) -> str | None:
        if tol_ds and rec.ds_oracle is not None and rec.ds_oracle <= tol_ds:
            return "ds_tol"
        if tol_grad and rec.grad_norm_sq is not None and math.sqrt(rec.grad_norm_sq) <= tol_grad:
            return "grad_tol"
        if tol_consensus and math.sqrt(swarm.n * rec.consensus_err_sq) <= tol_consensus:
            return "consensus_tol"
        return None

    k = step_index = 0
    with np.errstate(over="ignore", invalid="ignore"):  # polar_retract reports non-finite steps
        try:
            snapshot(0, None)
            stop = stop_reason(records[0]) or "max_rounds"
            last = max_rounds if stop == "max_rounds" else 0  # no rounds after an initial stop
            for k in range(1, last + 1):
                beta = None
                if algorithm == "drcs":
                    x = drcs_step(x, wt, alpha)
                elif algorithm == "drdgd":
                    beta = schedule.beta(k - 1)
                    x = drsgd_step(x, wt, alpha, beta, locals_.euclidean_grad(x))
                elif algorithm == "drgta":
                    beta = schedule.beta(k - 1)
                    x, y, g = drgta_step(x, y, g, wt, alpha, beta, locals_)
                else:  # drsgd: one epoch, its batches drawn, checked and gathered at once
                    rows, sizes = zip(*map(next, streams))
                    for step in locals_.gather(rows, np.transpose(sizes)):
                        beta = schedule.beta(step_index)
                        x = drsgd_step(x, wt, alpha, beta, locals_.batch_egrad(x, step))
                        step_index += 1
                snapshot(k, beta)
                reason = stop_reason(records[-1])
                if reason:
                    stop = reason
                    break
        except (NumericalError, ParameterError) as e:
            # the arguments were checked above: a broken invariant here is a breakdown
            raise NumericalError(f"round {k}: {e}") from None
        except KeyboardInterrupt:  # SIGINT, or SIGTERM under the CLI
            raise KeyboardInterrupt(f"last recorded round {records[-1].k}" if records else "") from None

    any_tol = bool(tol_ds) or bool(tol_grad) or bool(tol_consensus)
    converged = (stop != "max_rounds") or not any_tol
    return RunResult(
        records=tuple(records),
        final=SwarmState(x),
        tracker=None if y is None else TrackerState(y, g),
        converged=converged,
        stop=stop,
    )
