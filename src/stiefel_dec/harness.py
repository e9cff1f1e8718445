"""Experiment orchestration: configuration, resolution, CSV logging, reports.

A run is fully described by an ExperimentConfig; resolving it builds the
graph, mixing matrix, problem data, smoothness constants, stepsize and the
initial swarm, all from seeded substreams, so the same config and seed always
reproduce the same log byte for byte.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import (
    ALGORITHMS,
    RunResult,
    StepsizeSchedule,
    drgta_max_stepsize,
    drsgd_constant_schedule,
    drsgd_diminishing_schedule,
    run,
    steps_per_epoch,
)
from .errors import ConfigError, NumericalError, ParameterError
from .manifold import (
    ConsensusRegionParams,
    StiefelPoint,
    SwarmState,
    perturbed_swarm,
    random_stiefel,
)
from .metrics import IterationRecord, average_value
from .network import (
    MixingMatrix,
    complete_graph,
    consensus_rate_params,
    erdos_renyi,
    matrix_power,
    metropolis_weights,
    min_communication_rounds,
    ring_graph,
)
from .problems import (
    EigLocal,
    centralized_oracle,
    estimate_xi,
    load_dsv_partition,
    quadratic_constants,
    synthesize_eigengap_data,
)

CSV_HEADER = ",".join(f.name for f in fields(IterationRecord))

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGESTION = 3
EXIT_NUMERICAL = 4
EXIT_NO_CONVERGENCE = 5
EXIT_INTERRUPTED = 130  # the shell's code for SIGINT

# The mixing matrix is a dense n x n array of doubles, 8 n^2 bytes: 512 MiB at this cap, for W
# alone. Checking W and building W^t hold several more n x n arrays, so the set-up peaks higher.
MAX_AGENTS = 2**13
# The largest count a float holds exactly. Round caps and r reach float arithmetic: sqrt(k), k + 1.0, sqrt(r).
MAX_COUNT = 2**53

COMMANDS = ("run", "spectral", "oracle")
_RUN = ("run",)


def _declare(default, help="", *, commands=COMMANDS, flag=None, choices=(), low=None, auto=False, high=None):
    """A config field with its CLI declaration: help text, the subcommands that take its
    flag (--name unless flag is given), and its simple range: a choice tuple (listed
    ahead of the help), or a lower bound (0 meaning auto when auto) and an upper one."""
    if choices:
        help = " | ".join((*choices, help) if help else choices)
    meta = dict(help=help, commands=commands, flag=flag, choices=choices, low=low, auto=auto, high=high)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, checked when built; 0 means "resolve automatically" for t and alpha."""

    algorithm: str = _declare("drgta", commands=_RUN, choices=ALGORITHMS)
    graph: str = _declare("ring", "er(p)", choices=("ring", "complete", "er"))
    er_p: float = _declare(0.3, "ER edge probability")
    n: int = _declare(8, "number of agents")
    t: int = _declare(0, "gossip rounds per iteration (0 = auto minimum)", low=0, auto=True)
    alpha: float = _declare(1.0, "consensus stepsize (0 = auto cap)", low=0, auto=True)
    schedule: str = _declare("user", commands=_RUN, choices=("diminishing", "constant", "user"))
    beta_hat: float = _declare(0.05, "practical stepsize before rescaling", commands=_RUN)
    beta_scale: str = _declare("default", commands=_RUN, choices=("default", "speedup", "raw"))
    problem: str = _declare("synthetic", choices=("synthetic", "dsv"))
    d: int = _declare(30, "ambient dimension (synthetic problem)")
    r: int = _declare(5, "columns of the Stiefel variable", low=1, high=MAX_COUNT)
    m: int = _declare(100, "samples per agent (synthetic problem)")
    gap: float = _declare(0.8, "eigengap of the synthetic spectrum, in (0,1)")
    data_path: str | None = _declare(None, "delimiter-separated data file (dsv problem)", flag="--data")
    divisor: float = _declare(1.0, "divide data values by this on load")
    max_iters: int = _declare(10000, "iteration cap of drgta, drdgd and drcs", commands=_RUN, low=0, high=MAX_COUNT)
    max_epochs: int = _declare(200, "epoch cap of drsgd", commands=_RUN, low=0, high=MAX_COUNT)
    batch_size: int = _declare(1, "samples per agent in each drsgd step", commands=_RUN, low=1)
    tol_ds: float | None = _declare(
        None, "stop when d_s(mean, oracle) is below this (0 disables)", commands=_RUN, low=0
    )
    tol_grad: float | None = _declare(
        None, "stop when ||grad f(mean)|| is below this (0 disables)", commands=_RUN, low=0
    )
    tol_consensus: float = _declare(
        1e-12, "consensus runs: stop when the stacked deviation is below this", commands=_RUN, low=0
    )
    seed: int = _declare(0, "master seed", low=0)
    init: str = _declare("shared", commands=_RUN, choices=("shared", "independent"))
    perturb: float = _declare(0.0, "tangent noise on a shared start", commands=_RUN, low=0)
    delta2: float = _declare(1.0 / 6.0, "per-agent region radius, at most 1/6")
    delta1: float = _declare(0.0, "mean-square region radius (0 = delta2/(5 sqrt r))", low=0, auto=True)
    timing: bool = _declare(
        False, "record wall-clock ms per row (breaks byte-level log reproducibility)", commands=_RUN
    )
    out: str | None = _declare(
        None, "run's CSV log, or oracle's solution instead of stdout", commands=("run", "oracle")
    )

    def __post_init__(self):
        validate_config(self)


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}
# the allowed values of each enumerated config field
CHOICES = {f.name: f.metadata["choices"] for f in fields(ExperimentConfig) if f.metadata["choices"]}


def parse_config(file=None, flags: dict | None = None) -> ExperimentConfig:
    """Build a config from a JSON file and/or a flat dict of overrides.

    Flag values override file values. Unknown keys, wrongly typed values, bad
    ranges and inconsistent combinations raise ConfigError with the field name.
    """
    merged = {}
    if file is not None:
        try:
            loaded = json.loads(Path(file).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:  # JSONDecodeError, or an int past str->int's digit limit
            raise ConfigError(f"cannot read config file: {e}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(loaded)
    if flags:
        merged.update(flags)
    unknown = set(merged) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(merged.get("graph"), str):  # any other type fails validate_config's type check
        merged.update(_parse_graph_choice(merged["graph"], merged.get("er_p")))
    return ExperimentConfig(**merged)


def _parse_graph_choice(value: str, er_p) -> dict:
    """Accept 'ring', 'complete', 'er' or the compact 'er(0.3)' form, which an er_p
    given beside it must agree with."""
    text = value.strip().lower()
    if not (text.startswith("er(") and text.endswith(")")):
        return {"graph": text}
    try:
        p = float(text[3:-1])
    except ValueError:
        raise ConfigError(f"graph: cannot parse probability in {value!r}") from None
    if er_p is not None and er_p != p:
        raise ConfigError(f"er_p: got {er_p!r}, but graph {value!r} sets {p!r}")
    return {"graph": "er", "er_p": p}


# annotation -> (accepted type, noun for errors); a bool is an int in Python but not here
_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "str": (str, "a string"),
    "bool": (bool, "a boolean"),
}


def validate_config(cfg: ExperimentConfig):
    def bad(field, msg):
        raise ConfigError(f"{field}: {msg}")

    for f in fields(cfg):
        v = getattr(cfg, f.name)
        kind, _, optional = f.type.partition(" | ")
        accepted, noun = _KINDS[kind]
        if v is None and optional:
            continue
        if not isinstance(v, accepted) or isinstance(v, bool) != (kind == "bool"):
            bad(f.name, f"must be {noun}, got {v!r}")
        if kind == "float" and not -math.inf < v < math.inf:  # nan passes every range test below
            bad(f.name, f"must be finite, got {v!r}")
        choices, low, high = f.metadata["choices"], f.metadata["low"], f.metadata["high"]
        if choices and v not in choices:
            bad(f.name, f"must be one of {choices}, got {v!r}")
        if low is not None and v < low:
            bound = "positive" if low == 1 else f">= {low}" + (" (0 = auto)" if f.metadata["auto"] else "")
            bad(f.name, f"must be {bound}, got {v}")
        if high is not None and v > high:
            bad(f.name, f"must be <= {high}, got {v}")
    if cfg.graph == "er" and not (0.0 < cfg.er_p <= 1.0):
        bad("er_p", f"must be in (0, 1], got {cfg.er_p}")
    if cfg.n < 2:
        bad("n", f"need at least 2 agents, got {cfg.n}")
    if cfg.n > MAX_AGENTS:
        bad("n", f"at most {MAX_AGENTS} agents (the mixing matrix is a dense n x n array), got {cfg.n}")
    if cfg.schedule == "user" and cfg.beta_hat <= 0.0:
        bad("beta_hat", f"must be positive, got {cfg.beta_hat}")
    if cfg.problem == "dsv" and not cfg.data_path:
        bad("data_path", "required for the dsv problem")
    if cfg.problem == "synthetic":
        if cfg.r > cfg.d:
            bad("r", f"need 1 <= r <= d, got r={cfg.r}, d={cfg.d}")
        if cfg.m < 1:
            bad("m", f"must be positive, got {cfg.m}")
        if cfg.algorithm != "drcs" and cfg.n * cfg.m < cfg.d:  # drcs builds no problem
            bad("m", f"need n * m >= d rows for a full spectrum, got n * m = {cfg.n * cfg.m} < d = {cfg.d}")
        if not (0.0 < cfg.gap < 1.0):
            bad("gap", f"must be in (0, 1), got {cfg.gap}")
    if cfg.divisor == 0.0:
        bad("divisor", "must be nonzero")
    if not (0.0 < cfg.delta2 <= 1.0 / 6.0 + 1e-15):
        bad("delta2", f"must be in (0, 1/6], got {cfg.delta2}")
    if cfg.init == "independent" and cfg.perturb > 0.0:
        bad("perturb", f"nudges the shared start, which init 'independent' does not use; got {cfg.perturb}")
    if cfg.algorithm == "drgta" and cfg.schedule == "diminishing":
        warnings.warn(
            "gradient tracking is designed for a constant stepsize; "
            "a diminishing schedule defeats its purpose",
            RuntimeWarning,
            stacklevel=4,  # the code that built the config
        )


@dataclass(frozen=True)
class ResolvedExperiment:
    """A config turned into concrete objects, plus the constants for the log header.
    mix_matrix is W^t itself, so mix_rounds, the products with it per gossip step, is a
    class constant, not a field."""

    mix_rounds = 1
    graph: object
    t: int
    mix_matrix: MixingMatrix  # W^t, one product per gossip step
    alpha: float
    locals_: EigLocal | None
    oracle: StiefelPoint | None
    schedule: StepsizeSchedule | None
    swarm0: SwarmState
    max_rounds: int
    tol_ds: float | None
    tol_grad: float | None
    tol_consensus: float | None
    header: dict


def _resolve_rates(cfg: ExperimentConfig) -> tuple:
    """Graph, W, t_min, t, W^t, region, the W^t rate report, the run's alpha, and the alpha the
    theory reads (the run's, clamped to alpha_bar) with rho_t there; 0 means auto for t and alpha."""
    g = _build_graph(cfg)
    w = metropolis_weights(g)
    t_min = min_communication_rounds(w)
    t = cfg.t if cfg.t > 0 else t_min
    try:
        region = ConsensusRegionParams(r=cfg.r, delta2=cfg.delta2, delta1=cfg.delta1)
    except ParameterError as e:  # r and delta2 are checked with the config, so delta1's cap
        raise ConfigError(f"delta1: {e}") from None
    try:
        wt = matrix_power(w, t)
    except ParameterError as e:  # W^t's repeated squaring drifts by about t * eps
        raise ConfigError(f"t: W^{t} is not doubly stochastic in floating point ({e}); use a smaller t") from None
    rate = consensus_rate_params(wt, region)
    alpha = cfg.alpha if cfg.alpha > 0.0 else rate.alpha_bar
    theory_alpha = float(min(alpha, rate.alpha_bar))
    try:
        rho_t = rate.rho(theory_alpha)
    except ParameterError as e:  # 1 - gamma_t * alpha rounds to 1
        raise ConfigError(
            f"alpha: {alpha!r} leaves no contraction in floating point ({e}); use a larger alpha"
        ) from None
    return g, w, t_min, t, wt, region, rate, alpha, theory_alpha, rho_t


def resolve(cfg: ExperimentConfig) -> ResolvedExperiment:
    g, w, t_min, t, wt, region, rate, alpha, theory_alpha, rho_t = _resolve_rates(cfg)
    if alpha > rate.alpha_bar:
        warnings.warn(
            f"alpha = {alpha:.6g} exceeds the theoretical cap "
            f"alpha_bar = {rate.alpha_bar:.6g} (common in practice)",
            RuntimeWarning,
            stacklevel=2,
        )

    header = {
        "sigma2": w.sigma2,
        "t": t,
        "t_min": t_min,
        "alpha": alpha,
        "alpha_bar": rate.alpha_bar,
        "rho_t": rho_t,
        "gamma_t": rate.gamma_t,
        "l_t": rate.l_t,
        "mu_t": rate.mu_t,
        "delta1": region.delta1,
        "delta2": region.delta2,
    }

    with _allocating(cfg, problem=cfg.algorithm != "drcs"):  # every array the config sizes
        locals_, oracle = (None, None) if cfg.algorithm == "drcs" else _build_problem(cfg)
        # the shared start: the swarm's common point, and where xi is estimated
        d_cols = cfg.d if locals_ is None else locals_.dim
        x0 = random_stiefel(d_cols, cfg.r, np.random.default_rng([cfg.seed, 1]))
        swarm0 = _build_swarm(cfg, x0, region)
    if cfg.algorithm == "drcs":
        max_rounds = cfg.max_iters
        schedule = tol_ds = tol_grad = None
        tol_consensus = cfg.tol_consensus
    else:
        constants = quadratic_constants(locals_, cfg.r)
        mean_m = locals_.rows.shape[0] / locals_.n
        header.update(
            {
                "l_g": constants.l_g,
                "l_big": constants.l_big,
                "d_bound": constants.d_bound,
                "mean_m": mean_m,
            }
        )
        stochastic = cfg.algorithm == "drsgd"
        max_rounds = cfg.max_epochs if stochastic else cfg.max_iters
        schedule, constants = _build_schedule(cfg, constants, theory_alpha, rho_t, region, mean_m, locals_, x0)
        header["beta"] = schedule.base
        header["schedule"] = cfg.schedule
        if constants.xi > 0.0:
            header["xi_estimate"] = constants.xi
        if cfg.algorithm == "drgta":
            beta_bar = drgta_max_stepsize(constants, rho_t, theory_alpha, region.delta1)
            header["beta_bar"] = beta_bar
            if schedule.base > beta_bar:
                warnings.warn(
                    f"beta = {schedule.base:.6g} exceeds the stay-in-region cap "
                    f"beta_bar = {beta_bar:.6g} (practical values usually do)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        tol_ds = _default_tol(cfg.tol_ds, 1e-5 if stochastic else 1e-8)
        tol_grad = None if stochastic else _default_tol(cfg.tol_grad, 1e-8)
        tol_consensus = None

    return ResolvedExperiment(
        graph=g,
        t=t,
        mix_matrix=wt,
        alpha=alpha,
        locals_=locals_,
        oracle=oracle,
        schedule=schedule,
        swarm0=swarm0,
        max_rounds=max_rounds,
        tol_ds=tol_ds,
        tol_grad=tol_grad,
        tol_consensus=tol_consensus,
        header=header,
    )


def _default_tol(value, default):
    if value is None:
        return default
    return value if value > 0.0 else None


def _build_graph(cfg: ExperimentConfig):
    if cfg.graph == "ring":
        return ring_graph(cfg.n)
    if cfg.graph == "complete":
        return complete_graph(cfg.n)
    try:
        return erdos_renyi(cfg.n, cfg.er_p, np.random.default_rng([cfg.seed, 4]))
    except ParameterError as e:  # n and er_p are checked with the config: no connected sample
        raise ConfigError(f"er_p: {e}") from None


@contextmanager
def _allocating(cfg: ExperimentConfig, problem: bool):
    """A set-up in which an array that malloc refuses is a ConfigError naming the fields that
    size the problem's arrays, or with problem False the start's. Malloc refuses one far
    beyond memory at once; one just under it can still be killed by the OS. One past
    numpy's index range, which numpy refuses with a ValueError, is caught before it is drawn:
    the synthetic draw or Gram stack, or the start's (n, d, r) stack (a DSV file sizes its own)."""
    if problem:
        floats = cfg.n * cfg.d * max(cfg.m, cfg.d) if cfg.problem == "synthetic" else 0
    else:
        floats = cfg.n * cfg.d * cfg.r
    try:
        if 8 * floats > sys.maxsize:
            raise MemoryError(f"{8 * floats} bytes, past numpy's largest array")
        yield
    except MemoryError as e:
        data = f"n, m, d: n={cfg.n}, m={cfg.m}, d={cfg.d}" if cfg.problem == "synthetic" else f"n, data_path: n={cfg.n}"
        sizes = f"{data}: the problem's" if problem else f"n, d, r: n={cfg.n}, d={cfg.d}, r={cfg.r}: the start's"
        raise ConfigError(f"{sizes} arrays cannot be allocated ({e})") from None


def _build_problem(cfg: ExperimentConfig):
    if cfg.problem == "synthetic":
        return synthesize_eigengap_data(cfg.n, cfg.m, cfg.d, cfg.r, cfg.gap, seed=[cfg.seed, 0])
    locals_ = load_dsv_partition(cfg.data_path, cfg.n, cfg.divisor)
    if cfg.r > locals_.dim:
        raise ConfigError(f"r: data has d={locals_.dim} < r={cfg.r}")
    return locals_, centralized_oracle(locals_, cfg.r)


def _build_schedule(cfg, constants, alpha, rho_t, region, mean_m, locals_, x0):
    if cfg.schedule == "user":
        if cfg.beta_scale == "raw":
            beta = cfg.beta_hat
        elif cfg.beta_scale == "speedup":
            beta = cfg.beta_hat * math.sqrt(cfg.n) / (10000.0 * math.sqrt(300.0) * mean_m)
        elif cfg.algorithm == "drsgd":
            # Stochastic gradients here carry the m_i sample scaling, so the
            # per-epoch-horizon rule is divided by the mean sample count too; a
            # zero-epoch run takes the one-epoch stepsize.
            beta = cfg.beta_hat / (math.sqrt(max(cfg.max_epochs, 1)) * mean_m)
        else:
            beta = cfg.beta_hat / mean_m
        return StepsizeSchedule(beta), constants
    if cfg.schedule == "diminishing":
        return (
            drsgd_diminishing_schedule(constants, rho_t, alpha, region.delta1),
            constants,
        )
    # Constant rule: needs the stochastic deviation bound, estimated at the
    # shared starting point from single-sample draws.
    constants = replace(constants, xi=estimate_xi(locals_, x0, np.random.default_rng([cfg.seed, 3])))
    if cfg.algorithm == "drsgd":
        k_total = cfg.max_epochs * steps_per_epoch(locals_, cfg.batch_size)
    else:
        k_total = cfg.max_iters
    schedule = drsgd_constant_schedule(
        k_total, cfg.n, constants, alpha=alpha, delta1=region.delta1, rho_t=rho_t
    )
    return schedule, constants


def _build_swarm(cfg, x0, region) -> SwarmState:
    if cfg.init == "independent":
        # a stream id of their own: SeedSequence zero-pads, so [seed, 1, 0] is the shared [seed, 1]
        return SwarmState(
            [random_stiefel(x0.d, x0.r, np.random.default_rng([cfg.seed, 6, i])) for i in range(cfg.n)]
        )
    noise = cfg.perturb
    if noise == 0.0 and cfg.algorithm == "drcs":
        # Pure consensus from an exactly shared point is a no-op; nudge each
        # agent inside the contraction region instead.
        noise = region.delta1 / 2.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, not as numpy's warning
            return perturbed_swarm(x0, cfg.n, noise, np.random.default_rng([cfg.seed, 5]))
    except NumericalError as e:  # polar_retract's two causes: an overflow or an ill-conditioned step
        cause = "overflows in floating point" if "not finite" in str(e) else "is too large to retract accurately"
        raise ConfigError(f"perturb: a nudge of norm {noise!r} {cause} ({e}); use a smaller perturb") from None
    except ParameterError:  # the tangent space of St(d, r) is {0} only at d = r = 1
        raise ConfigError("d, r: St(1, 1) has no tangent direction to nudge the start along") from None


@dataclass(frozen=True)
class ExperimentOutcome:
    code: int
    summary: str
    result: RunResult


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutcome:
    """Resolve, run while each row is written to the CSV log, and report a one-line
    summary. The log is open before the first round, so a failure or an interrupt
    leaves every row recorded before it on disk."""
    res = resolve(cfg)
    with nullcontext() if cfg.out is None else _log(cfg.out, cfg, res.header) as fh:
        result = run(
            cfg.algorithm,
            res.swarm0,
            res.mix_matrix,
            alpha=res.alpha,
            locals_=res.locals_,
            schedule=res.schedule,
            oracle=res.oracle,
            max_rounds=res.max_rounds,
            batch_size=cfg.batch_size,
            tol_ds=res.tol_ds,
            tol_grad=res.tol_grad,
            tol_consensus=res.tol_consensus,
            seed=cfg.seed,
            timing=cfg.timing,
            on_record=None if fh is None else lambda rec: fh.write(_row(rec)),
        )
    last = result.records[-1]
    parts = [f"{cfg.algorithm}: {last.k} rounds, stop={result.stop}"]
    if last.ds_oracle is not None:
        parts.append(f"ds={last.ds_oracle:.3e}")
    if last.grad_norm_sq is not None:
        parts.append(f"|grad|={math.sqrt(last.grad_norm_sq):.3e}")
    parts.append(f"consensus_err_sq={last.consensus_err_sq:.3e}")
    if cfg.out is not None:
        parts.append(f"log={cfg.out}")
    code = EXIT_OK if result.converged else EXIT_NO_CONVERGENCE
    return ExperimentOutcome(code=code, summary="  ".join(parts), result=result)


def _row(rec: IterationRecord) -> str:
    # an int's digits, a float's shortest round-trip decimal, an empty cell for None; vars()
    # keeps the field order of CSV_HEADER, where dataclasses.astuple would deep-copy each row
    return ",".join("" if v is None else repr(v) for v in vars(rec).values()) + "\n"


@contextmanager
def open_out(path):
    """run's log or oracle's solution, opened to write; an OSError while it is open or
    as it closes is a config error naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as e:
        raise ConfigError(f"out: cannot write {path}: {e.strerror or e}") from None


@contextmanager
def _log(path, cfg: ExperimentConfig, header: dict):
    """The CSV log at path, its three # lines and column line on disk, open for rows."""
    with open_out(path) as fh:
        fh.write(
            f"# stiefel-dec {__version__}\n# config: {json.dumps(asdict(cfg), sort_keys=True)}\n"
            f"# constants: {json.dumps(header, sort_keys=True)}\n{CSV_HEADER}\n"
        )
        fh.flush()
        yield fh


def write_csv(path, cfg: ExperimentConfig, header: dict, records):
    with _log(path, cfg, header) as fh:
        fh.writelines(map(_row, records))


def spectral_report(cfg: ExperimentConfig) -> str:
    """Graph and mixing diagnostics: n, the edge list, sigma2, lambda_min, t_min
    and rho_t at alpha_bar for t_min rounds, then the constants of the resolved t."""
    g, w, t_min, t, _, region, rate, _, _, rho_t = _resolve_rates(cfg)
    at_t_min = rate if t == t_min else consensus_rate_params(matrix_power(w, t_min), region)
    lines = [
        f"n {g.n}",
        f"edges {' '.join(f'{i}-{j}' for i, j in g.edges.tolist())}",
        f"sigma2 {w.sigma2:.12g}",
        f"lambda_min {w.lambda_min:.12g}",
        f"t_min {t_min}",
        f"rho_t {at_t_min.rho(at_t_min.alpha_bar):.12g}",
        f"t {t}",
        f"L_t {rate.l_t:.12g}",
        f"mu_t {rate.mu_t:.12g}",
        f"alpha_bar {rate.alpha_bar:.12g}",
        f"gamma_t {rate.gamma_t:.12g}",
        f"rho_t {rho_t:.12g}",
    ]
    return "\n".join(lines)


def oracle_report(cfg: ExperimentConfig) -> str:
    """Printable dump of the centralized solution of the configured problem."""
    with _allocating(cfg, problem=True):
        locals_, oracle = _build_problem(cfg)
    total = average_value(oracle.data, locals_.mean_grad(oracle.data))
    rows = ["# centralized leading-eigenvector solution", f"# f(x*) = {total!r}"]
    for row in oracle.data:
        rows.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(rows)
