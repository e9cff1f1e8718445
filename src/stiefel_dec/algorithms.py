"""The three decentralized iteration schemes and their stepsize rules.

All schemes share the same synchronous-round template: every agent mixes its
neighbors' variables through t rounds of gossip (one product with W^t),
projects onto its tangent space, takes a step, and retracts. The consensus
scheme stops there; the gradient schemes subtract a (stochastic or tracked)
Riemannian gradient before retracting. Rounds are barrier-synchronized: agents
read the frozen previous state and the new state is assembled in agent order.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DegenerateMeanError,
    DimensionError,
    ParameterError,
)
from .manifold import (
    StiefelPoint,
    SwarmState,
    TangentVector,
    polar_retract,
    project_to_tangent,
    riemannian_gradient,
)
from .metrics import IterationRecord, average_value, stationarity_measure, subspace_distance
from .network import MixingMatrix, matrix_power, mix

ALGORITHMS = ("drcs", "drsgd", "drdgd", "drgta")

@dataclass(frozen=True, eq=False)
class TrackerState:
    """Per-agent gradient trackers y_i (ambient matrices, not constrained tangent).

    The defining property is that the tracker average stays equal to the
    average Riemannian gradient after every step.
    """

    y: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float).copy() for m in self.y)
        if not mats:
            raise DimensionError("tracker needs at least one agent")
        shape = mats[0].shape
        for i, m in enumerate(mats):
            if m.shape != shape:
                raise DimensionError(f"tracker {i} has shape {m.shape}, expected {shape}")
            m.flags.writeable = False
        object.__setattr__(self, "y", mats)

    @property
    def n(self) -> int:
        return len(self.y)

    def average(self) -> np.ndarray:
        acc = np.zeros_like(self.y[0])
        for m in self.y:
            acc += m
        return acc / self.n


@dataclass(frozen=True)
class StepsizeSchedule:
    """Gradient stepsize sequence: diminishing base/sqrt(k+1) or a constant.

    kind "user" marks a constant chosen by the caller rather than a rule;
    min_rounds, when set, is the horizon the constant-stepsize rule assumes.
    """

    kind: str
    base: float
    min_rounds: int | None = None

    def __post_init__(self):
        if self.kind not in ("diminishing", "constant", "user"):
            raise ParameterError(f"unknown schedule kind {self.kind!r}")
        if self.base <= 0.0:
            raise ParameterError(f"stepsize base must be positive, got {self.base}")

    def beta(self, k: int) -> float:
        if k < 0:
            raise ParameterError(f"need k >= 0, got {k}")
        if self.kind == "diminishing":
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
    return StepsizeSchedule(kind="diminishing", base=base)


def drsgd_constant_schedule(
    k_max: int,
    n: int,
    constants,
    alpha: float | None = None,
    delta1: float | None = None,
    rho_t: float | None = None,
) -> StepsizeSchedule:
    """Constant stepsize 1/(2 l_big + xi sqrt((K+1)/n)) for a K-iteration run.

    The rule is only guaranteed for K above a minimal horizon; the computable
    part of that horizon is reported in min_rounds (and a warning is emitted
    when K falls short). The horizon terms needing alpha, delta1 or rho_t are
    included only when those are supplied; with xi = 0 the stepsize degrades
    gracefully to 1/(2 l_big) and no horizon is known.
    """
    if k_max < 0:
        raise ParameterError(f"need K >= 0, got {k_max}")
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    lb = constants.l_big
    if lb <= 0.0:
        raise ParameterError("need positive l_big")
    xi = constants.xi
    base = 1.0 / (2.0 * lb + xi * math.sqrt((k_max + 1.0) / n))
    min_rounds = None
    if xi > 0.0:
        terms = [3.0 * lb]
        if alpha is not None and delta1 is not None:
            terms.append(5.0 * constants.d_bound / (alpha * delta1))
            if rho_t is not None:
                terms.append(constants.d_bound / ((1.0 - rho_t) * delta1))
        min_rounds = max(0, math.ceil(n * (max(terms) / xi) ** 2 - 1.0))
        if k_max < min_rounds:
            warnings.warn(
                f"constant-stepsize rule assumes K >= {min_rounds}, got {k_max}",
                RuntimeWarning,
                stacklevel=2,
            )
    return StepsizeSchedule(kind="constant", base=base, min_rounds=min_rounds)


def drgta_max_stepsize(constants, rho_t: float, alpha: float, delta1: float) -> float:
    """Largest tracking stepsize with the stay-in-region guarantee:
    min((1-rho) d1, alpha d1 / 5) / (l_big + 2 D)."""
    _check_rate_inputs(rho_t, alpha, delta1)
    denom = constants.l_big + 2.0 * constants.d_bound
    if denom <= 0.0:
        raise ParameterError("need positive l_big + 2 d_bound")
    return min((1.0 - rho_t) * delta1, alpha * delta1 / 5.0) / denom


def drgta_theoretical_stepsize(
    constants,
    rho_t: float,
    sigma2_t: float,
    alpha: float,
    delta1: float,
    r: int,
) -> float:
    """Full theory cap for the tracking stepsize; heuristic, diagnostic only.

    The analysis constant c1 is an existence constant known only up to order
    1/(1-rho)^2; it is substituted by exactly 2/(1-rho)^2 here, so the value
    is a ballpark rather than a certificate. The second-order retraction
    constant M of the analysis is 1 for the polar retraction, so it drops out.
    """
    _check_rate_inputs(rho_t, alpha, delta1)
    if not (0.0 <= sigma2_t < 1.0):
        raise ParameterError(f"need sigma2^t in [0, 1), got {sigma2_t}")
    if r < 1:
        raise ParameterError(f"need r >= 1, got {r}")
    lb, db = constants.l_big, constants.d_bound
    if lb <= 0.0:
        raise ParameterError("need positive l_big")
    c1 = 2.0 / (1.0 - rho_t) ** 2
    c0 = 2.0 / (1.0 - rho_t) ** 2
    c2 = 2.0 / (1.0 - sigma2_t) ** 2
    g0 = 4.0 * r * (lb + 2.0 * db) ** 2 * c1 / lb**2
    g1 = 1.0 + g0 + (2.0 * db * alpha + 8.0 * db * alpha**2) / lb + 13.0 * c1 * delta1**2 * alpha**4
    g2 = 2.0 * db / lb + delta1**2 / 2.0 + 5.0
    g3 = g1 * c0 + g0 * c0 + g2
    third = 1.0 / (4.0 * lb * (2.0 * g3 + (8.0 * c0 + 0.5 * c2) * alpha * delta1))
    return min(
        drgta_max_stepsize(constants, rho_t, alpha, delta1),
        1.0 / (8.0 * lb),
        third,
    )


def _check_rate_inputs(rho_t: float, alpha: float, delta1: float):
    if not (0.0 < rho_t < 1.0):
        raise ParameterError(f"need rho_t in (0, 1), got {rho_t}")
    if alpha <= 0.0:
        raise ParameterError(f"need alpha > 0, got {alpha}")
    if delta1 <= 0.0:
        raise ParameterError(f"need delta1 > 0, got {delta1}")


def drcs_step(s: SwarmState, wt: MixingMatrix, alpha: float) -> SwarmState:
    """One consensus iteration: retract along the tangent part of the mixed point.

    x_i <- R_{x_i}(alpha P_{T_{x_i}}(sum_j W_ij x_j)); the tangent part of the
    mixed point is exactly minus the Riemannian gradient of the disagreement
    function, so identical agents stay put.
    """
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    mixed = mix(s, wt)
    return SwarmState(
        tuple(
            polar_retract(x, project_to_tangent(x, m).scaled(alpha))
            for x, m in zip(s.points, mixed)
        )
    )


def drsgd_step(s: SwarmState, wt: MixingMatrix, alpha: float, beta_k: float, grads) -> SwarmState:
    """One (stochastic) gradient iteration: consensus pull minus a gradient step.

    x_i <- R_{x_i}(alpha P_{T_{x_i}}(sum_j W_ij x_j) - beta_k v_i) where v_i is a
    tangent vector at x_i (a stochastic Riemannian gradient, or the exact one
    for the deterministic variant). beta_k = 0 recovers the pure consensus step.
    """
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if beta_k < 0.0:
        raise ParameterError(f"beta must be nonnegative, got {beta_k}")
    grads = list(grads)
    if len(grads) != s.n:
        raise ContractError(f"{len(grads)} gradients for {s.n} agents")
    for i, g in enumerate(grads):
        if not isinstance(g, TangentVector):
            raise ContractError(f"gradient {i} is not a TangentVector")
        if g.base is not s.points[i] and not np.array_equal(g.base.data, s.points[i].data):
            raise ContractError(f"gradient {i} is attached to a different point")
    mixed = mix(s, wt)
    return SwarmState(
        tuple(
            polar_retract(
                x, TangentVector(x, alpha * project_to_tangent(x, m).data - beta_k * g.data)
            )
            for x, m, g in zip(s.points, mixed, grads)
        )
    )


def drgta_init(s: SwarmState, locals_) -> TrackerState:
    """Start the trackers at the local Riemannian gradients, y_i = grad f_i(x_i)."""
    locals_ = list(locals_)
    if len(locals_) != s.n:
        raise ContractError(f"{len(locals_)} objectives for {s.n} agents")
    return TrackerState(
        tuple(riemannian_gradient(x, o.euclidean_grad(x)).data for x, o in zip(s.points, locals_))
    )


def drgta_step(
    s: SwarmState,
    tr: TrackerState,
    wt: MixingMatrix,
    alpha: float,
    beta: float,
    locals_,
) -> tuple:
    """One gradient-tracking iteration; returns the new (swarm, tracker) pair.

    Per agent, in order: project the tracker onto the tangent space,
    v_i = P_{T_{x_i}} y_i; move x_i <- R_{x_i}(alpha P_{T_{x_i}}(mixed) - beta v_i);
    refresh the tracker y_i <- sum_j W_ij y_j + grad f_i(x_i+) - grad f_i(x_i).
    Because W is doubly stochastic the tracker average equals the average
    Riemannian gradient after every step (the correction telescopes).
    """
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if beta < 0.0:
        raise ParameterError(f"beta must be nonnegative, got {beta}")
    locals_ = list(locals_)
    if tr.n != s.n or len(locals_) != s.n:
        raise ContractError("swarm, tracker and objectives must agree on agent count")
    if tr.y[0].shape != s.points[0].data.shape:
        raise DimensionError("tracker shape does not match swarm")
    mixed_x = mix(s, wt)

    def move(i):
        x = s.points[i]
        g_old = riemannian_gradient(x, locals_[i].euclidean_grad(x)).data
        v = project_to_tangent(x, tr.y[i])
        consensus = project_to_tangent(x, mixed_x[i])
        direction = TangentVector(x, alpha * consensus.data - beta * v.data)
        x_new = polar_retract(x, direction)
        g_new = riemannian_gradient(x_new, locals_[i].euclidean_grad(x_new)).data
        return x_new, g_new - g_old

    moved = [move(i) for i in range(s.n)]
    mixed_y = mix(tr.y, wt)
    new_points = tuple(m[0] for m in moved)
    new_y = tuple(mixed_y[i] + moved[i][1] for i in range(s.n))
    return SwarmState(new_points), TrackerState(new_y)


def tracking_residual(tr: TrackerState, s: SwarmState, locals_) -> float:
    """Norm of (tracker average - average Riemannian gradient); zero in exact arithmetic."""
    locals_ = list(locals_)
    acc = np.zeros_like(tr.y[0])
    for i, o in enumerate(locals_):
        acc += riemannian_gradient(s.points[i], o.euclidean_grad(s.points[i])).data
    return float(np.linalg.norm(tr.average() - acc / s.n))


class _EpochStream:
    """Per-agent without-replacement sample stream: a fresh shuffle per pass."""

    def __init__(self, m: int, batch: int, rng: np.random.Generator):
        self.m = m
        self.batch = min(batch, m)
        self.rng = rng
        self.perm = rng.permutation(m)
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos >= self.m:
            self.perm = self.rng.permutation(self.m)
            self.pos = 0
        idx = self.perm[self.pos : self.pos + self.batch]
        self.pos += len(idx)
        return idx


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
) -> RunResult:
    """Drive one of the algorithms for up to max_rounds synchronous rounds.

    A round is one iteration, except for the stochastic algorithm where it is
    one epoch (a full pass over every agent's samples, shuffled per epoch from
    per-agent streams derived from the seed). One metrics row is recorded per
    round plus an initial row. Early stop on d_s(mean, oracle) <= tol_ds, on
    ||grad f(mean)|| <= tol_grad, or (consensus runs) on the stacked deviation
    norm <= tol_consensus; tolerances set to None or 0 are disabled. Each
    gossip step runs `rounds` rounds of wt, applied as one product with wt^rounds.
    The same seed and arguments reproduce the exact same records.
    """
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algorithm!r}")
    if max_rounds < 0:
        raise ParameterError(f"need max_rounds >= 0, got {max_rounds}")
    with_obj = algorithm != "drcs"
    if with_obj:
        if locals_ is None:
            raise ParameterError(f"{algorithm} needs local objectives")
        locals_ = list(locals_)
        if len(locals_) != swarm.n:
            raise ContractError(f"{len(locals_)} objectives for {swarm.n} agents")
        if schedule is None:
            raise ParameterError(f"{algorithm} needs a stepsize schedule")
    if batch_size < 1:
        raise ParameterError(f"need batch_size >= 1, got {batch_size}")
    if rounds < 1:
        raise ParameterError(f"need rounds >= 1, got {rounds}")
    if rounds > 1:
        wt = matrix_power(wt, rounds)

    s = swarm
    tracker = drgta_init(s, locals_) if algorithm == "drgta" else None
    streams = None
    inner_per_epoch = 1
    if algorithm == "drsgd":
        streams = [
            _EpochStream(o.sample_count, batch_size, np.random.default_rng([seed, 2, i]))
            for i, o in enumerate(locals_)
        ]
        inner_per_epoch = max(
            math.ceil(o.sample_count / batch_size) for o in locals_
        )

    t_start = time.perf_counter()
    records = []

    def snapshot(k: int, beta: float | None):
        try:
            ces = s.consensus_error_sq
            linf = s.linf_error
            gsq = f_bar = ds = None
            if with_obj:
                _, gsq = stationarity_measure(s, locals_)
                f_bar = average_value(s, locals_)
            if oracle is not None:
                ds = subspace_distance(s.mean_point, oracle)
        except DegenerateMeanError as e:
            raise DegenerateMeanError(f"round {k}: {e}") from None
        elapsed = (time.perf_counter() - t_start) * 1000.0 if timing else None
        records.append(
            IterationRecord(
                k=k,
                consensus_err_sq=ces,
                linf_err=linf,
                grad_norm_sq=gsq,
                f_bar=f_bar,
                ds_oracle=ds,
                beta_k=beta,
                elapsed_ms=elapsed,
            )
        )

    def stop_reason(rec: IterationRecord) -> str | None:
        if tol_ds and rec.ds_oracle is not None and rec.ds_oracle <= tol_ds:
            return "ds_tol"
        if tol_grad and rec.grad_norm_sq is not None and math.sqrt(rec.grad_norm_sq) <= tol_grad:
            return "grad_tol"
        if tol_consensus and math.sqrt(swarm.n * rec.consensus_err_sq) <= tol_consensus:
            return "consensus_tol"
        return None

    snapshot(0, None)
    stop = stop_reason(records[0]) or "max_rounds"
    step_index = 0
    if stop == "max_rounds":
        for k in range(1, max_rounds + 1):
            beta = None
            if algorithm == "drcs":
                s = drcs_step(s, wt, alpha)
            elif algorithm == "drdgd":
                beta = schedule.beta(k - 1)
                grads = [
                    riemannian_gradient(x, o.euclidean_grad(x)) for x, o in zip(s.points, locals_)
                ]
                s = drsgd_step(s, wt, alpha, beta, grads)
            elif algorithm == "drgta":
                beta = schedule.beta(k - 1)
                s, tracker = drgta_step(s, tracker, wt, alpha, beta, locals_)
            else:  # drsgd: one epoch
                for _ in range(inner_per_epoch):
                    beta = schedule.beta(step_index)
                    grads = [
                        riemannian_gradient(x, o.stochastic_egrad(x, st.next()))
                        for x, o, st in zip(s.points, locals_, streams)
                    ]
                    s = drsgd_step(s, wt, alpha, beta, grads)
                    step_index += 1
            snapshot(k, beta)
            reason = stop_reason(records[-1])
            if reason:
                stop = reason
                break

    any_tol = bool(tol_ds) or bool(tol_grad) or bool(tol_consensus)
    converged = (stop != "max_rounds") or not any_tol
    return RunResult(
        records=tuple(records),
        final=s,
        tracker=tracker,
        converged=converged,
        stop=stop,
    )
