"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with `pytest -s`)."""

import math
import time
import warnings

import numpy as np
import pytest

from stiefel_dec import manifold, metrics, network, problems
from stiefel_dec.algorithms import (
    StepsizeSchedule,
    TrackerState,
    drcs_step,
    drgta_init,
    drgta_step,
    run,
    tracking_residual,
)
from stiefel_dec.harness import parse_config, run_experiment
from stiefel_dec.manifold import ConsensusRegionParams, SwarmState

from manifold_helpers import euclidean_mean, in_consensus_region, scaled, stacked_error


def _verdict(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _ring_metropolis(n):
    return network.metropolis_weights(network.ring_graph(n))


@pytest.fixture(scope="module")
def convergence_instance():
    """Shared instance for criteria 3-5: synthetic(d=30, r=5, m=100, gap=0.8), n=8 ring."""
    locals_, xstar = problems.synthesize_eigengap_data(8, 100, 30, 5, 0.8, seed=[11, 0])
    w = _ring_metropolis(8)
    x0 = manifold.random_stiefel(30, 5, np.random.default_rng([11, 1]))
    return locals_, xstar, w, SwarmState((x0,) * 8)


@pytest.fixture(scope="module")
def drgta_run(convergence_instance):
    locals_, xstar, w, s0 = convergence_instance
    start = time.perf_counter()
    result = run(
        "drgta", s0, w, alpha=1.0, locals_=locals_,
        schedule=StepsizeSchedule(0.05 / 100.0), oracle=xstar,
        max_rounds=10_000, tol_ds=1e-8,
    )
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def drdgd_run(convergence_instance):
    locals_, xstar, w, s0 = convergence_instance
    return run(
        "drdgd", s0, w, alpha=1.0, locals_=locals_,
        schedule=StepsizeSchedule(0.05 / 100.0), oracle=xstar,
        max_rounds=10_000, tol_ds=1e-8,
    )


def test_criterion_01_tracking_exactness():
    locals_, _ = problems.synthesize_eigengap_data(8, 50, 20, 3, 0.8, seed=[21, 0])
    w = _ring_metropolis(8)
    x0 = manifold.random_stiefel(20, 3, np.random.default_rng([21, 1]))
    x = SwarmState((x0,) * 8).x
    y, g = drgta_init(x, locals_)
    beta = 0.05 / 50.0
    start = time.perf_counter()
    worst, gmax = 0.0, 0.0
    for _ in range(200):
        x, y, g = drgta_step(x, y, g, w, 1.0, beta, locals_)
        tr = TrackerState(y, g)
        worst = max(worst, tracking_residual(tr, SwarmState(x), locals_))
        gmax = max(gmax, float(np.linalg.norm(tr.average())))
    elapsed = time.perf_counter() - start
    tol = 1e-10 * (1.0 + gmax)
    _verdict(
        1, "tracking exactness", worst <= tol and elapsed < 5.0,
        f"max residual {worst:.3e} <= {tol:.3e}, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_drcs_q_linear_contraction():
    n, d, r = 8, 20, 3
    p = ConsensusRegionParams(delta1=(1.0 / 6.0) / (5.0 * math.sqrt(3.0)), delta2=1.0 / 6.0, r=r)
    w = _ring_metropolis(n)
    t = network.min_communication_rounds(w)
    rate = network.consensus_rate_params(network.matrix_power(w, t), p)  # alpha = alpha_bar
    wt = network.matrix_power(w, t)
    rng = np.random.default_rng(22)
    s = manifold.perturbed_swarm(manifold.random_stiefel(d, r, rng), n, p.delta1 / 2.0, rng)
    assert bool(in_consensus_region(s, p))
    x, err = s.x, stacked_error(s)
    worst_ratio, steps = 0.0, 0
    while err > 1e-12 and steps < 500:
        x = drcs_step(x, wt, rate.alpha_bar)
        new = stacked_error(SwarmState(x))
        worst_ratio = max(worst_ratio, new / err)
        err, steps = new, steps + 1
    _verdict(
        2, "consensus contraction", err <= 1e-12 and worst_ratio <= rate.rho(rate.alpha_bar),
        f"worst per-step ratio {worst_ratio:.4f} <= rho_t {rate.rho(rate.alpha_bar):.4f} over {steps} steps",
    )


def test_criterion_03_drgta_exact_convergence(drgta_run):
    result, elapsed = drgta_run
    final = result.records[-1]
    ok = final.ds_oracle <= 1e-8 and final.k <= 10_000 and elapsed < 60.0
    _verdict(
        3, "tracking converges exactly", ok,
        f"ds {final.ds_oracle:.3e} <= 1e-8 at round {final.k}, {elapsed:.1f}s < 60s",
    )


def test_criterion_04_drdgd_inexact(drgta_run, drdgd_run):
    gta_final = drgta_run[0].records[-1].ds_oracle
    dgd_final = drdgd_run.records[-1].ds_oracle
    ok = dgd_final > gta_final and dgd_final > 1e-8
    _verdict(
        4, "plain descent plateaus", ok,
        f"dgd {dgd_final:.3e} > gta {gta_final:.3e} and > 1e-8",
    )


def test_criterion_05_drsgd_stepsize_accuracy(convergence_instance):
    locals_, xstar, w, _ = convergence_instance
    means = {}
    for beta_hat in (0.05, 0.2):
        beta = beta_hat / (100.0 * math.sqrt(200.0))
        finals = []
        for seed in (1, 2, 3):
            x0 = manifold.random_stiefel(30, 5, np.random.default_rng([seed, 1]))
            result = run(
                "drsgd", SwarmState((x0,) * 8), w, alpha=1.0, locals_=locals_,
                schedule=StepsizeSchedule(beta), oracle=xstar,
                max_rounds=200, batch_size=1, tol_ds=1e-5, seed=seed,
            )
            finals.append(result.records[-1].ds_oracle)
        means[beta_hat] = sum(finals) / len(finals)
    _verdict(
        5, "smaller stepsize is more accurate", means[0.05] < means[0.2],
        f"mean ds {means[0.05]:.3e} (0.05) < {means[0.2]:.3e} (0.2), 3 seeds each",
    )


def test_criterion_06_retraction_properties():
    rng = np.random.default_rng(23)
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(2, 10))
        r = int(rng.integers(1, d + 1))
        x = manifold.random_stiefel(d, r, rng)
        y = manifold.random_stiefel(d, r, rng)
        xi = manifold.random_tangent(x, rng, norm=float(rng.uniform(0.0, 2.0)))
        out = manifold.polar_retract(x.data, xi.data)
        if np.linalg.norm(out - y.data) > np.linalg.norm(x.data + xi.data - y.data) + 1e-12:
            violations += 1
    for _ in range(1000):
        d = int(rng.integers(2, 10))
        r = int(rng.integers(1, d + 1))
        x = manifold.random_stiefel(d, r, rng)
        xi = manifold.random_tangent(x, rng, norm=float(rng.uniform(0.0, 1.0)))
        out = manifold.polar_retract(x.data, xi.data)
        if np.linalg.norm(out - (x.data + xi.data)) > xi.norm**2 + 1e-12:
            violations += 1
    _verdict(6, "retraction property suite", violations == 0, f"{violations} violations in 2x1000 trials")


def test_criterion_07_lipschitz_suite():
    locals_, _ = problems.synthesize_eigengap_data(4, 12, 10, 3, 0.8, seed=[24, 0])
    constants = problems.quadratic_constants(locals_, r=3)
    rng = np.random.default_rng(25)

    def f(x):
        return float(np.sum(locals_.value(x.data))) / locals_.n

    def grad(x):
        acc = locals_.euclidean_grad(x.data).sum(axis=0) / locals_.n
        return manifold.project_to_tangent(x.data, acc)

    bad = 0
    for _ in range(1000):
        x = manifold.random_stiefel(10, 3, rng)
        y = manifold.random_stiefel(10, 3, rng)
        diff = y.data - x.data
        if abs(f(y) - f(x) - float(np.sum(grad(x) * diff))) > 0.5 * constants.l_g * np.linalg.norm(diff) ** 2 + 1e-10:
            bad += 1
        if np.linalg.norm(grad(x) - grad(y)) > constants.l_big * np.linalg.norm(diff) + 1e-10:
            bad += 1
    _verdict(7, "Lipschitz-type inequalities", bad == 0, f"{bad} violations in 1000 pairs")


def test_criterion_08_iam_vs_euclidean_mean_bound():
    rng = np.random.default_rng(26)
    checked, bad = 0, 0
    while checked < 1000:
        n = int(rng.integers(2, 9))
        d = int(rng.integers(3, 12))
        r = int(rng.integers(1, 4))
        x0 = manifold.random_stiefel(d, r, rng)
        s = manifold.perturbed_swarm(x0, n, float(rng.uniform(0.01, math.sqrt(0.5))), rng)
        stacked_sq = s.n * s.consensus_error_sq
        if stacked_sq > n / 2.0:
            continue
        checked += 1
        gap = np.linalg.norm(s.mean_point.data - euclidean_mean(s))
        if gap > 2.0 * math.sqrt(r) * stacked_sq / n + 1e-12:
            bad += 1
    _verdict(8, "induced-mean bound", bad == 0, f"{bad} violations in {checked} swarms")


def test_criterion_09_gradient_vs_finite_differences():
    rng = np.random.default_rng(27)
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(3, 10))
        r = int(rng.integers(1, min(d, 4) + 1))
        rows = rng.standard_normal((d + 2, d)) / math.sqrt(d)
        o = problems.EigLocal(rows)
        x = manifold.random_stiefel(d, r, rng)
        xi = manifold.random_tangent(x, rng, norm=1.0)
        analytic = float(np.sum(manifold.project_to_tangent(x.data, o.euclidean_grad(x.data)[0]) * xi.data))
        numeric = (
            o.value(manifold.polar_retract(x.data, scaled(xi, h).data))[0]
            - o.value(manifold.polar_retract(x.data, scaled(xi, -h).data))[0]
        ) / (2.0 * h)
        worst = max(worst, abs(numeric - analytic))
    _verdict(9, "gradient matches finite differences", worst <= 1e-5, f"max gap {worst:.3e} <= 1e-5")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(28)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 12))
        u = manifold.random_stiefel(d, 1, rng)
        v = manifold.random_stiefel(d, 1, rng)
        brute = min(np.linalg.norm(u.data - v.data), np.linalg.norm(u.data + v.data))
        worst = max(worst, abs(metrics.subspace_distance(u.data, v.data) - brute))
    locals_, xstar = problems.synthesize_eigengap_data(6, 20, 16, 3, 0.8, seed=[29, 0])
    ds = metrics.subspace_distance(problems.centralized_oracle(locals_, 3).data, xstar.data)
    _verdict(
        10, "distance and solution oracles agree", worst <= 1e-12 and ds <= 1e-10,
        f"procrustes-vs-brute gap {worst:.2e} <= 1e-12, oracle ds {ds:.2e} <= 1e-10",
    )


def test_criterion_11_spectral_values():
    w = _ring_metropolis(4)
    p = ConsensusRegionParams(delta1=1.0 / 30.0, delta2=1.0 / 6.0, r=1)
    rep = network.consensus_rate_params(network.matrix_power(w, 2), p)
    # independent scripted evaluation straight from eigenvalues and formulas
    evals = np.linalg.eigvalsh(np.linalg.matrix_power(w.w, 2))
    l_t = 1.0 - evals[0]
    mu_t = 1.0 - evals[-2]
    phi = 2.0 - p.delta2**2
    alpha_bar = min(phi / (2.0 * l_t), 1.0, 1.0)
    gamma = (1.0 - 4.0 * p.r * p.delta1**2) * (1.0 - p.delta2**2 / 2.0) * mu_t
    rho = math.sqrt(1.0 - gamma * alpha_bar)
    ok = (
        abs(w.sigma2 - 1.0 / 3.0) <= 1e-12
        and network.min_communication_rounds(w) == 2
        and abs(rep.l_t - l_t) <= 1e-12
        and abs(rep.mu_t - mu_t) <= 1e-12
        and abs(rep.alpha_bar - alpha_bar) <= 1e-12
        and abs(rep.gamma_t - gamma) <= 1e-12
        and abs(rep.rho(rep.alpha_bar) - rho) <= 1e-12
    )
    _verdict(
        11, "spectral constants", ok,
        f"sigma2 {w.sigma2:.15f}, t_min 2, rate constants match scripted oracle to 1e-12",
    )


def test_criterion_12_byte_identical_logs(tmp_path):
    configs = [
        dict(algorithm="drgta", graph="ring", n=3, t=1, alpha=1.0, beta_hat=0.05,
             d=8, r=2, m=10, gap=0.8, max_iters=25, tol_ds=0, tol_grad=0, seed=5),
        dict(algorithm="drsgd", graph="er(0.6)", n=4, t=1, alpha=1.0, beta_hat=0.05,
             d=8, r=2, m=10, gap=0.8, max_epochs=4, tol_ds=0, seed=9),
    ]
    ok = True
    for i, flags in enumerate(configs):
        out = tmp_path / f"det{i}.csv"
        cfg = parse_config(flags=dict(flags, out=str(out)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(cfg)
            first = out.read_bytes()
            run_experiment(cfg)
        ok = ok and (out.read_bytes() == first)
    _verdict(12, "byte-identical reruns", ok, f"{len(configs)} configs, same seed twice")
