import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stiefel_dec import manifold, metrics, network, problems
from stiefel_dec.algorithms import (
    StepsizeSchedule,
    TrackerState,
    drcs_step,
    drgta_init,
    drgta_max_stepsize,
    drgta_step,
    drsgd_constant_schedule,
    drsgd_diminishing_schedule,
    drsgd_step,
    run,
    steps_per_epoch,
    tracking_residual,
)
from stiefel_dec.errors import NumericalError, ParameterError
from stiefel_dec.manifold import ConsensusRegionParams, StiefelPoint, SwarmState, consensus_measures
from stiefel_dec.metrics import IterationRecord, average_value
from stiefel_dec.network import MixingMatrix
from stiefel_dec.problems import EigLocal, SmoothnessConstants

import manifold_helpers as helpers


def col(*vals):
    return np.asarray(vals, dtype=float).reshape(-1, 1)


HALF2 = MixingMatrix(np.full((2, 2), 0.5))
SINGLE = MixingMatrix(np.array([[1.0]]))
REFERENCE_CONSTANTS = SmoothnessConstants(1.0, r=1)  # l_g = 2, l_big = 3, d_bound = 1


def homogeneous_problem(n, d, r, m, seed):
    """All agents share the same data block, so every local optimum coincides."""
    rows = np.random.default_rng(seed).standard_normal((m, d))
    locals_ = EigLocal(np.tile(rows, (n, 1)), n)
    return locals_, problems.centralized_oracle(locals_, r)


def stacked_error(x):
    return helpers.stacked_error(SwarmState(x))


class TestDrcsStep:
    def test_identical_points_fixed(self):
        rng = np.random.default_rng(0)
        x = manifold.random_stiefel(6, 2, rng)
        s = SwarmState((x,) * 4)
        out = drcs_step(s.x, network.metropolis_weights(network.ring_graph(4)), alpha=1.0)
        for p in out:
            assert np.allclose(p, x.data, atol=1e-14)

    def test_two_agent_hand_values(self):
        s = SwarmState((StiefelPoint(col(1.0, 0.0)), StiefelPoint(col(0.0, 1.0))))
        out = drcs_step(s.x, HALF2, alpha=1.0)
        r5 = math.sqrt(5.0)
        assert np.allclose(out[0], col(2.0 / r5, 1.0 / r5), atol=1e-14)
        assert np.allclose(out[1], col(1.0 / r5, 2.0 / r5), atol=1e-14)

    def test_linear_contraction_from_region(self):
        n, d, r = 4, 10, 2
        p = ConsensusRegionParams(r=r)
        w = network.metropolis_weights(network.ring_graph(n))
        t = network.min_communication_rounds(w)
        rate = network.consensus_rate_params(network.matrix_power(w, t), p)
        wt = network.matrix_power(w, t)
        rng = np.random.default_rng(1)
        s = manifold.perturbed_swarm(manifold.random_stiefel(d, r, rng), n, p.delta1 / 2.0, rng)
        assert helpers.in_consensus_region(s, p)
        x, err = s.x, helpers.stacked_error(s)
        for _ in range(60):
            if err <= 1e-12:
                break
            x = drcs_step(x, wt, rate.alpha_bar)
            new = stacked_error(x)
            assert new <= rate.rho(rate.alpha_bar) * err + 1e-15
            err = new
        assert err <= 1e-12

    def test_bad_alpha(self):
        s = SwarmState((StiefelPoint(col(1.0, 0.0)),) * 2)
        with pytest.raises(ParameterError):
            drcs_step(s.x, HALF2, alpha=0.0)


class TestDrsgdStep:
    def test_zero_beta_reduces_to_consensus(self):
        rng = np.random.default_rng(2)
        w = network.metropolis_weights(network.ring_graph(4))
        s = SwarmState(tuple(manifold.random_stiefel(6, 2, rng) for _ in range(4)))
        a = drsgd_step(s.x, w, 1.0, 0.0, np.zeros((4, 6, 2)))
        b = drcs_step(s.x, w, 1.0)
        for pa, pb in zip(a, b):
            assert np.allclose(pa, pb, atol=1e-15)

    def test_single_agent_is_centralized_step(self):
        rng = np.random.default_rng(3)
        locals_, _ = homogeneous_problem(1, 8, 2, 12, seed=4)
        x = manifold.random_stiefel(8, 2, rng)
        egrad = locals_.euclidean_grad(x.data)  # drsgd_step projects it
        g = manifold.project_to_tangent(x.data, egrad[0])
        beta = 1e-3
        out = drsgd_step(SwarmState((x,)).x, SINGLE, 1.0, beta, egrad)
        expect = manifold.polar_retract(x.data, -beta * g)
        assert np.allclose(out[0], expect, atol=1e-14)

    def test_stationary_at_oracle_consensus(self):
        # identical data on every agent: grad f_i vanishes at the solution
        locals_, xstar = homogeneous_problem(3, 8, 2, 15, seed=5)
        s = SwarmState((xstar,) * 3)
        w = network.metropolis_weights(network.ring_graph(3))
        out = drsgd_step(s.x, w, 1.0, 1e-2, locals_.euclidean_grad(s.x))
        for p in out:
            assert np.abs(p - xstar.data).max() <= 1e-12

    def test_gradient_count_mismatch_rejected(self):
        # arrays carry no base point; the contract left is one gradient per agent
        rng = np.random.default_rng(6)
        s = SwarmState(tuple(manifold.random_stiefel(5, 2, rng) for _ in range(2)))
        other = manifold.random_stiefel(5, 2, rng)
        bad = np.stack([helpers.random_tangent(other, rng).data for _ in range(3)])
        with pytest.raises(ParameterError, match=r"^gradients of shape \(3, 5, 2\) for a swarm of shape \(2, 5, 2\)$"):
            drsgd_step(s.x, HALF2, 1.0, 0.1, bad)

    def test_bad_rates_rejected(self):
        s = SwarmState((StiefelPoint(col(1.0, 0.0)),) * 2)
        with pytest.raises(ParameterError, match="^alpha must be positive, got 0.0$"):
            drsgd_step(s.x, HALF2, 0.0, 0.1, np.zeros((2, 2, 1)))
        with pytest.raises(ParameterError, match="^beta must be nonnegative, got -0.1$"):
            drsgd_step(s.x, HALF2, 1.0, -0.1, np.zeros((2, 2, 1)))


class TestSchedules:
    def test_diminishing_base_value(self):
        sched = drsgd_diminishing_schedule(
            REFERENCE_CONSTANTS, rho_t=0.3568, alpha=1.0, delta1=1.0 / 30.0
        )
        # min(1/10, 1/150, 0.6432/30) = 1/150
        assert np.isclose(sched.base, 1.0 / 150.0, atol=1e-15)
        assert np.isclose(sched.beta(0), 1.0 / 150.0, atol=1e-15)

    def test_diminishing_decay(self):
        sched = drsgd_diminishing_schedule(REFERENCE_CONSTANTS, 0.5, 1.0, 0.02)
        for k in range(30):
            ratio = sched.beta(k) / sched.beta(k + 1)
            assert np.isclose(ratio, math.sqrt((k + 2.0) / (k + 1.0)), atol=1e-12)
        assert np.isclose(sched.beta(9), sched.beta(0) / math.sqrt(10.0), atol=1e-15)

    def test_constant_value(self):
        constants = replace(REFERENCE_CONSTANTS, xi=1.0)
        with pytest.warns(RuntimeWarning, match="got 99"):  # K below the rule's horizon
            sched = drsgd_constant_schedule(99, 4, constants, 1.0, 0.02, 0.5)
        assert np.isclose(sched.base, 1.0 / 11.0, atol=1e-15)
        assert not sched.diminishing

    def test_constant_zero_xi_guarded(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # xi = 0: no horizon is known, so even K = 0 draws no warning
            sched = drsgd_constant_schedule(0, 4, REFERENCE_CONSTANTS, 1.0, 0.02, 0.5)
        assert np.isclose(sched.base, 1.0 / 6.0, atol=1e-15)

    def test_constant_monotone_in_horizon(self):
        constants = replace(REFERENCE_CONSTANTS, xi=0.5)
        last = math.inf
        for k in (10_000, 40_000, 160_000):
            beta = drsgd_constant_schedule(k, 4, constants, 1.0, 1.0, 0.5).base
            assert beta < last
            last = beta

    @pytest.mark.parametrize("alpha, delta1, rho_t, worst", [
        (1.0, 0.02, 0.5, 5.0 / 0.02),  # 5 D/(alpha delta1) dominates
        (1.0, 0.02, 0.9, 1.0 / ((1.0 - 0.9) * 0.02)),  # D/((1-rho) delta1) dominates
        (1.0, 10.0, 0.5, 9.0),  # 3 l_big dominates
    ], ids=["alpha-delta1-term", "rho-term", "l_big-term"])
    def test_constant_horizon_takes_the_largest_term(self, alpha, delta1, rho_t, worst):
        constants = replace(REFERENCE_CONSTANTS, xi=1.0)
        horizon = math.ceil(4 * worst**2 - 1.0)
        with pytest.warns(RuntimeWarning, match=f"assumes K >= {horizon}, got {horizon - 1}$"):
            drsgd_constant_schedule(horizon - 1, 4, constants, alpha, delta1, rho_t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # K at the horizon
            drsgd_constant_schedule(horizon, 4, constants, alpha, delta1, rho_t)

    def test_schedule_validation(self):
        with pytest.raises(ParameterError):
            StepsizeSchedule(0.0)
        with pytest.raises(ParameterError):
            StepsizeSchedule(0.1).beta(-1)


class TestDrgtaStepsizes:
    def test_max_stepsize_value(self):
        beta_bar = drgta_max_stepsize(
            REFERENCE_CONSTANTS, rho_t=0.3568, alpha=1.0, delta1=1.0 / 30.0
        )
        # min(0.6432/30, 1/150) / 5 = min(0.6432/150, 1/750) = 1/750
        assert np.isclose(beta_bar, 1.0 / 750.0, atol=1e-15)

    def test_max_stepsize_linear_in_delta1(self):
        a = drgta_max_stepsize(REFERENCE_CONSTANTS, 0.5, 1.0, 0.01)
        b = drgta_max_stepsize(REFERENCE_CONSTANTS, 0.5, 1.0, 0.02)
        assert np.isclose(b, 2.0 * a, rtol=1e-12)

    def test_max_stepsize_vanishes_near_rho_one(self):
        small = drgta_max_stepsize(REFERENCE_CONSTANTS, 0.999, 1.0, 0.01)
        ref = drgta_max_stepsize(REFERENCE_CONSTANTS, 0.5, 1.0, 0.01)
        assert small < ref / 100.0


class TestDrgtaInitAndStep:
    def test_init_tracker_identity_exact(self):
        rng = np.random.default_rng(7)
        locals_, _ = problems.synthesize_eigengap_data(4, 10, 8, 2, 0.7, seed=8)
        s = SwarmState(tuple(manifold.random_stiefel(8, 2, rng) for _ in range(4)))
        tr = TrackerState(drgta_init(s.x, locals_)[0])
        assert tracking_residual(tr, s, locals_) <= 1e-14

    def test_init_sums_to_zero_at_oracle(self):
        locals_, xstar = problems.synthesize_eigengap_data(4, 10, 8, 2, 0.7, seed=9)
        y, _ = drgta_init(SwarmState((xstar,) * 4).x, locals_)
        total = sum(np.linalg.norm(yi) for yi in y)
        assert total > 1e-8  # individual trackers need not vanish
        assert np.linalg.norm(sum(y)) <= 1e-10

    def test_init_zero_for_identity_gram(self):
        rng = np.random.default_rng(10)
        locals_ = EigLocal(np.tile(np.eye(6), (3, 1)), 3)
        s = SwarmState(tuple(manifold.random_stiefel(6, 2, rng) for _ in range(3)))
        y, _ = drgta_init(s.x, locals_)
        for yi in y:
            assert np.abs(yi).max() <= 1e-14

    def test_tracking_identity_over_200_steps(self):
        locals_, _ = problems.synthesize_eigengap_data(4, 20, 10, 2, 0.8, seed=[11, 0])
        w = network.metropolis_weights(network.ring_graph(4))
        x0 = manifold.random_stiefel(10, 2, np.random.default_rng([11, 1]))
        x = SwarmState((x0,) * 4).x
        y, g = drgta_init(x, locals_)
        beta = 0.05 / 20.0
        worst, gmax = 0.0, 0.0
        for _ in range(200):
            x, y, g = drgta_step(x, y, g, w, 1.0, beta, locals_)
            tr = TrackerState(y)
            worst = max(worst, tracking_residual(tr, SwarmState(x), locals_))
            gmax = max(gmax, float(np.linalg.norm(tr.average())))
        assert worst <= 1e-10 * (1.0 + gmax)

    def test_zero_beta_zero_tracker_reduces_to_consensus(self):
        rng = np.random.default_rng(12)
        locals_, _ = problems.synthesize_eigengap_data(3, 10, 6, 2, 0.7, seed=13)
        w = network.metropolis_weights(network.ring_graph(3))
        s = SwarmState(tuple(manifold.random_stiefel(6, 2, rng) for _ in range(3)))
        zeros = np.zeros((3, 6, 2))
        stepped, _, _ = drgta_step(s.x, zeros, zeros, w, 1.0, 0.0, locals_)
        reference = drcs_step(s.x, w, 1.0)
        for pa, pb in zip(stepped, reference):
            assert np.allclose(pa, pb, atol=1e-15)

    def test_single_agent_is_centralized_gradient_descent(self):
        locals_, _ = homogeneous_problem(1, 7, 2, 10, seed=14)
        o = locals_
        x0 = manifold.random_stiefel(7, 2, np.random.default_rng(15))
        x = SwarmState((x0,)).x
        y, g = drgta_init(x, locals_)
        beta = 1e-3
        x_ref = x0.data
        for _ in range(20):
            x, y, g = drgta_step(x, y, g, SINGLE, 1.0, beta, locals_)
            g_ref = manifold.project_to_tangent(x_ref, o.euclidean_grad(x_ref)[0])
            x_ref = manifold.polar_retract(x_ref, -beta * g_ref)
            assert np.allclose(x[0], x_ref, atol=1e-12)
            # tracker telescopes to the current gradient
            g_now = manifold.project_to_tangent(x[0], o.euclidean_grad(x[0])[0])
            assert np.allclose(y[0], g_now, atol=1e-12)

    def test_caller_arrays_are_copied_and_steps_freeze_theirs(self):
        locals_, _ = problems.synthesize_eigengap_data(3, 10, 6, 2, 0.7, seed=16)
        s = SwarmState(tuple(manifold.random_stiefel(6, 2, np.random.default_rng(17)) for _ in range(3)))
        y, g = np.ones((3, 6, 2)), np.zeros((3, 6, 2))
        tr = TrackerState(y)
        y[0, 0, 0] = 5.0  # the caller's array stays theirs
        assert tr.y[0, 0, 0] == 1.0
        w = network.metropolis_weights(network.ring_graph(3))
        moved = drgta_step(s.x, tr.y, g, w, 1.0, 1e-3, locals_)
        started = drgta_init(s.x, locals_)
        stepped = (drcs_step(s.x, w, 1.0), drsgd_step(s.x, w, 1.0, 1e-3, locals_.euclidean_grad(s.x)))
        for a in (*moved, *started, *stepped):
            assert not a.flags.writeable

    def test_tracker_shape_validation(self):
        with pytest.raises(ParameterError, match="^tracker is not an \\(n, d, r\\) stack"):
            TrackerState((np.zeros((3, 1)), np.zeros((4, 1))))

    def test_step_shape_validation(self):
        locals_, _ = problems.synthesize_eigengap_data(3, 10, 6, 2, 0.7, seed=18)
        x = SwarmState(tuple(manifold.random_stiefel(6, 2, np.random.default_rng(19)) for _ in range(3))).x
        w = network.metropolis_weights(network.ring_graph(3))
        good, bad = np.zeros((3, 6, 2)), np.zeros((2, 6, 2))
        with pytest.raises(ParameterError, match=r"^trackers of shape \(2, 6, 2\) for a swarm of shape \(3, 6, 2\)$"):
            drgta_step(x, bad, good, w, 1.0, 1e-3, locals_)
        with pytest.raises(ParameterError, match=r"^gradients of shape \(2, 6, 2\) for a swarm of shape \(3, 6, 2\)$"):
            drgta_step(x, good, bad, w, 1.0, 1e-3, locals_)
        with pytest.raises(ParameterError, match="^beta must be nonnegative"):
            drgta_step(x, good, good, w, 1.0, -1e-3, locals_)


class TestRegionPersistenceAndDeviation:
    def _setup(self, seed):
        n, d, r, m = 4, 12, 2, 20
        locals_, _ = problems.synthesize_eigengap_data(n, m, d, r, 0.7, seed=[seed, 0])
        p = ConsensusRegionParams(r=r)
        w = network.metropolis_weights(network.ring_graph(n))
        t = network.min_communication_rounds(w)
        rate = network.consensus_rate_params(network.matrix_power(w, t), p)
        wt = network.matrix_power(w, t)
        constants = problems.quadratic_constants(locals_, r)
        x0 = manifold.random_stiefel(d, r, np.random.default_rng([seed, 1]))
        return locals_, p, rate, wt, constants, SwarmState((x0,) * n)

    def test_region_persists_under_capped_stepsizes(self):
        locals_, p, rate, wt, constants, s = self._setup(16)
        sched = drsgd_diminishing_schedule(constants, rate.rho(rate.alpha_bar), rate.alpha_bar, p.delta1)
        rngs = [np.random.default_rng([16, 2, i]) for i in range(s.n)]
        x = s.x
        for k in range(300):
            batches = [rng.choice(m, size=1, replace=False) for m, rng in zip(locals_.counts, rngs)]
            x = drsgd_step(x, wt, rate.alpha_bar, sched.beta(k), locals_.stochastic_egrad(x, batches))
            assert bool(helpers.in_consensus_region(SwarmState(x), p))

    def test_bounded_deviation_with_constant_stepsize(self):
        locals_, p, rate, wt, constants, s = self._setup(17)
        beta = min(
            (1.0 - rate.rho(rate.alpha_bar)) * p.delta1 / constants.d_bound,
            rate.alpha_bar * p.delta1 / (5.0 * constants.d_bound),
        )
        bound = math.sqrt(s.n) * constants.d_bound * beta / (1.0 - rate.rho(rate.alpha_bar))
        rngs = [np.random.default_rng([17, 2, i]) for i in range(s.n)]
        x = s.x
        for k in range(400):
            batches = [rng.choice(m, size=1, replace=False) for m, rng in zip(locals_.counts, rngs)]
            x = drsgd_step(x, wt, rate.alpha_bar, beta, locals_.stochastic_egrad(x, batches))
            if k >= 300:
                assert math.sqrt(SwarmState(x).consensus_error_sq) <= bound + 1e-12


class TestRun:
    def _instance(self, seed=18, n=4, d=10, r=2, m=20):
        locals_, xstar = problems.synthesize_eigengap_data(n, m, d, r, 0.8, seed=[seed, 0])
        w = network.metropolis_weights(network.ring_graph(n))
        x0 = manifold.random_stiefel(d, r, np.random.default_rng([seed, 1]))
        return locals_, xstar, w, SwarmState((x0,) * n)

    def test_zero_rounds_emits_only_initial_row(self):
        locals_, xstar, w, s = self._instance()
        out = run(
            "drgta", s, w, alpha=1.0, locals_=locals_,
            schedule=StepsizeSchedule(1e-3), oracle=xstar, max_rounds=0,
        )
        assert len(out.records) == 1 and out.records[0].k == 0

    def test_deterministic_records(self):
        locals_, xstar, w, s = self._instance()
        kwargs = dict(
            alpha=1.0, locals_=locals_, schedule=StepsizeSchedule(2e-3),
            oracle=xstar, max_rounds=5, seed=7,
        )
        a = run("drsgd", s, w, **kwargs)
        b = run("drsgd", s, w, **kwargs)
        assert a.records == b.records

    def test_drgta_converges_and_reports_stop(self):
        locals_, xstar, w, s = self._instance()
        out = run(
            "drgta", s, w, alpha=1.0, locals_=locals_,
            schedule=StepsizeSchedule(0.05 / 20.0), oracle=xstar,
            max_rounds=5000, tol_ds=1e-9,
        )
        assert out.converged and out.stop == "ds_tol"
        assert out.records[-1].ds_oracle <= 1e-9
        assert out.tracker is not None
        assert tracking_residual(out.tracker, out.final, locals_) <= 1e-9

    def test_tracking_beats_plain_descent_at_equal_stepsize(self):
        locals_, xstar, w, s = self._instance(seed=19, d=12, m=30)
        beta = 0.05 / 30.0
        shared = dict(
            alpha=1.0, locals_=locals_, schedule=StepsizeSchedule(beta),
            oracle=xstar, max_rounds=2500,
        )
        gta = run("drgta", s, w, tol_ds=1e-9, **shared)
        dgd = run("drdgd", s, w, **shared)
        assert gta.records[-1].ds_oracle < dgd.records[-1].ds_oracle
        assert dgd.records[-1].ds_oracle > 1e-6  # plain descent plateaus

    def test_consensus_run_monotone_and_stops(self):
        n, d, r = 4, 8, 2
        p = ConsensusRegionParams(r=r)
        w = network.metropolis_weights(network.ring_graph(n))
        t = network.min_communication_rounds(w)
        rate = network.consensus_rate_params(network.matrix_power(w, t), p)
        rng = np.random.default_rng(20)
        s = manifold.perturbed_swarm(manifold.random_stiefel(d, r, rng), n, p.delta1 / 2.0, rng)
        out = run(
            "drcs", s, network.matrix_power(w, t), alpha=rate.alpha_bar,
            max_rounds=200, tol_consensus=1e-12,
        )
        assert out.converged and out.stop == "consensus_tol"
        errors = [rec.consensus_err_sq for rec in out.records]
        assert all(b <= a + 1e-18 for a, b in zip(errors, errors[1:]))
        assert out.records[-1].f_bar is None and out.records[-1].ds_oracle is None

    def test_final_points_stay_feasible(self):
        locals_, xstar, w, s = self._instance(seed=21)
        for algo in ("drcs", "drdgd", "drsgd", "drgta"):
            out = run(
                algo, s, w, alpha=1.0,
                locals_=None if algo == "drcs" else locals_,
                schedule=None if algo == "drcs" else StepsizeSchedule(1e-3),
                max_rounds=3,
            )
            for point in out.final.points:
                assert np.abs(point.data.T @ point.data - np.eye(s.r)).max() <= 1e-12

    def test_degenerate_mean_aborts_with_round(self):
        plus = StiefelPoint(np.array([[1.0]]))
        minus = StiefelPoint(np.array([[-1.0]]))
        w = MixingMatrix(np.full((2, 2), 0.5))
        with pytest.raises(NumericalError, match=r"^round 0: euclidean mean is rank deficient"):
            run("drcs", SwarmState((plus, minus)), w, alpha=1.0, max_rounds=3)

    def test_rounds_premultiply_power(self):
        # t gossip rounds per iteration are one product with W^t
        locals_, xstar, w, s = self._instance(seed=23)
        for algo in ("drcs", "drdgd", "drsgd", "drgta"):
            kwargs = dict(
                alpha=1.0, oracle=xstar, max_rounds=4, seed=3,
                locals_=None if algo == "drcs" else locals_,
                schedule=None if algo == "drcs" else StepsizeSchedule(1e-3),
            )
            a = run(algo, s, w, rounds=3, **kwargs)
            b = run(algo, s, network.matrix_power(w, 3), **kwargs)
            assert a.records == b.records
            for pa, pb in zip(a.final.points, b.final.points):
                assert np.array_equal(pa.data, pb.data)

    def test_records_match_svd_mean_reference(self):
        # each row's consensus errors and d_s, against the same iterates measured at the
        # induced mean taken by a thin SVD, within 1e-12 of St(d, r)'s diameter 2 sqrt(r)
        locals_, xstar, w, s = self._instance(seed=24, n=6, d=12, r=3)
        s = manifold.perturbed_swarm(s.points[0], s.n, 0.3, np.random.default_rng(24))
        beta, rounds = 2e-3, 25
        out = run("drgta", s, w, alpha=1.0, locals_=locals_, schedule=StepsizeSchedule(beta),
                  oracle=xstar, max_rounds=rounds)
        x = s.x
        swarms, (y, g) = [s], drgta_init(x, locals_)
        for _ in range(rounds):
            x, y, g = drgta_step(x, y, g, w, 1.0, beta, locals_)
            swarms.append(SwarmState(x))
        bound = 1e-12 * 2.0 * np.sqrt(s.r)
        assert len(out.records) == len(swarms)
        for rec, ref in zip(out.records, swarms):
            u, _, vt = np.linalg.svd(helpers.euclidean_mean(ref), full_matrices=False)
            mean = u @ vt
            dev = np.array([np.linalg.norm(xi - mean) for xi in ref.x])
            assert abs(np.sqrt(rec.consensus_err_sq) - np.sqrt(np.mean(dev**2))) <= bound
            assert abs(rec.linf_err - dev.max()) <= bound
            assert abs(rec.ds_oracle - metrics.subspace_distance(StiefelPoint(mean).data, xstar.data)) <= bound
        assert np.array_equal(out.final.x, swarms[-1].x)

    def test_near_consensus_snapshot_takes_no_svd(self, monkeypatch):
        # a swarm near consensus about the oracle has both polar factors of a metrics row,
        # the induced mean and the Procrustes rotation of d_s, within 1/2 of I: they come
        # from Newton-Schulz steps, and a far pair still reaches the SVD
        locals_, xstar, w, s = self._instance(seed=24, n=6, d=12, r=3)
        s = manifold.perturbed_swarm(xstar, s.n, 0.05, np.random.default_rng(24))

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        out = run("drgta", s, w, alpha=1.0, locals_=locals_, schedule=StepsizeSchedule(2e-3),
                  oracle=xstar, max_rounds=5)
        assert len(out.records) == 6 and all(0.0 < rec.ds_oracle < 1.0 for rec in out.records)
        far = manifold.random_stiefel(12, 3, np.random.default_rng(25))
        with pytest.raises(AssertionError, match="^np.linalg.svd called$"):
            metrics.subspace_distance(far.data, xstar.data)

    @pytest.mark.parametrize("algo", ["drcs", "drdgd", "drgta", "drsgd"])
    def test_records_equal_a_loop_of_the_array_steps(self, algo):
        # run's records, final swarm and trackers, bit for bit, against the public
        # array steps and consensus_measures written out by hand; drsgd for one epoch
        locals_, xstar, w, s = self._instance(seed=25, n=5, d=9, r=3, m=6)
        s = manifold.perturbed_swarm(s.points[0], s.n, 0.2, np.random.default_rng(25))
        alpha, beta, rounds, seed = 0.9, 2e-3, 1 if algo == "drsgd" else 6, 4
        handed = []
        out = run(algo, s, w, alpha=alpha, locals_=None if algo == "drcs" else locals_,
                  schedule=None if algo == "drcs" else StepsizeSchedule(beta),
                  oracle=xstar, max_rounds=rounds, seed=seed, on_record=handed.append)
        assert tuple(handed) == out.records  # every row, in order, as it was recorded

        def row(k, x, beta_k):
            mean, err_sq, linf = consensus_measures(x)
            gsq = f_bar = None
            if algo != "drcs":
                egrad = locals_.mean_grad(mean)
                gsq, f_bar = metrics.stationarity_measure(mean, egrad), average_value(mean, egrad)
            return IterationRecord(k, err_sq, linf, gsq, f_bar, metrics.subspace_distance(mean, xstar.data), beta_k)

        x = s.x
        y, g = drgta_init(x, locals_)
        want = [row(0, x, None)]
        for k in range(1, rounds + 1):
            if algo == "drcs":
                x, beta_k = drcs_step(x, w, alpha), None
            elif algo == "drdgd":
                x, beta_k = drsgd_step(x, w, alpha, beta, locals_.euclidean_grad(x)), beta
            elif algo == "drgta":
                (x, y, g), beta_k = drgta_step(x, y, g, w, alpha, beta, locals_), beta
            else:  # one epoch of batch-1 steps, each agent walking its own shuffle
                orders = [np.random.default_rng([seed, 2, i]).permutation(m)
                          for i, m in enumerate(locals_.counts.tolist())]
                for step in range(steps_per_epoch(locals_, 1)):
                    batches = [order[step:step + 1] for order in orders]
                    x = drsgd_step(x, w, alpha, beta, locals_.stochastic_egrad(x, batches))
                beta_k = beta
            want.append(row(k, x, beta_k))
        assert out.records == tuple(want)
        assert np.array_equal(out.final.x, x)
        if algo == "drgta":
            assert np.array_equal(out.tracker.y, y)

    def test_drgta_resumes_from_its_result_bit_for_bit(self):
        # the result keeps the swarm and the trackers; the gradients the trackers carry
        # come back from drgta_init at the final swarm, so five more steps continue the run
        locals_, xstar, w, s = self._instance(seed=27, n=5, d=9, r=3)
        s = manifold.perturbed_swarm(s.points[0], s.n, 0.2, np.random.default_rng(27))
        schedule = StepsizeSchedule(2e-3, diminishing=True)
        first, whole = (run("drgta", s, w, alpha=0.9, locals_=locals_, schedule=schedule, oracle=xstar,
                            max_rounds=rounds) for rounds in (10, 15))
        x, y, g = first.final.x, first.tracker.y, drgta_init(first.final.x, locals_)[1]
        for k in range(10, 15):
            x, y, g = drgta_step(x, y, g, w, 0.9, schedule.beta(k), locals_)
        assert np.array_equal(x, whole.final.x)
        assert np.array_equal(y, whole.tracker.y)

    def test_breakdown_in_round_one_keeps_the_initial_row(self):
        # a raw stepsize so large that the retraction Gram overflows in the first round
        locals_, xstar, w, s = self._instance(seed=26)
        handed = []
        with pytest.raises(NumericalError, match="^round 1: retraction step is not finite$"):
            run("drdgd", s, w, alpha=1.0, locals_=locals_, schedule=StepsizeSchedule(1e300),
                oracle=xstar, max_rounds=3, on_record=handed.append)
        assert [rec.k for rec in handed] == [0]

    def test_interrupt_names_the_last_recorded_round(self):
        # a KeyboardInterrupt in the loop (SIGINT) ends the run after the rows handed over
        locals_, xstar, w, s = self._instance(seed=26)
        handed = []

        def record(rec):  # the signal lands while row 2 is being handed over
            if rec.k == 2:
                raise KeyboardInterrupt
            handed.append(rec)

        with pytest.raises(KeyboardInterrupt, match="^last recorded round 1$"):
            run("drdgd", s, w, alpha=1.0, locals_=locals_, schedule=StepsizeSchedule(1e-3),
                oracle=xstar, max_rounds=5, on_record=record)
        assert [rec.k for rec in handed] == [0, 1]

    def test_metrics_row_evaluates_each_objective_once(self, monkeypatch):
        # f(xbar) and ||grad f(xbar)||^2 share one gradient of the average
        # objective, one product with sum_i G_i; no per-agent gradient
        locals_, xstar, w, s = self._instance(seed=23)
        calls = {"euclidean_grad": 0, "mean_grad": 0, "value": 0}
        for name in calls:
            def counted(self, x, _orig=getattr(EigLocal, name), _name=name):
                calls[_name] += 1
                return _orig(self, x)
            monkeypatch.setattr(EigLocal, name, counted)
        run("drdgd", s, w, alpha=1.0, locals_=locals_, schedule=StepsizeSchedule(1e-3),
            oracle=xstar, max_rounds=0)
        assert calls == {"euclidean_grad": 0, "mean_grad": 1, "value": 0}

    def test_argument_validation(self):
        locals_, xstar, w, s = self._instance(seed=22)
        with pytest.raises(ParameterError):
            run("newton", s, w, alpha=1.0)
        with pytest.raises(ParameterError):
            run("drgta", s, w, alpha=1.0, locals_=locals_, schedule=None)
        with pytest.raises(ParameterError):
            run("drgta", s, w, alpha=1.0, schedule=StepsizeSchedule(1e-3))
        with pytest.raises(ParameterError):
            run(
                "drsgd", s, w, alpha=1.0, locals_=locals_,
                schedule=StepsizeSchedule(1e-3), batch_size=0,
            )
        with pytest.raises(ParameterError, match="rounds"):
            run("drcs", s, w, alpha=1.0, rounds=0)
        with pytest.raises(ParameterError, match="objectives for"):
            short = EigLocal(locals_.rows, locals_.n - 1)
            run("drdgd", s, w, alpha=1.0, locals_=short, schedule=StepsizeSchedule(1e-3))
        with pytest.raises(ParameterError, match="alpha"):
            run("drdgd", s, w, alpha=0.0, locals_=locals_, schedule=StepsizeSchedule(1e-3))
        # argument errors, raised before any row is recorded: not breakdowns of round 1 or round 0
        handed = []
        with pytest.raises(ParameterError, match=r"^mixing matrix is 2x2, swarm has shape \(4, 10, 2\)$"):
            run("drcs", s, HALF2, alpha=1.0, max_rounds=3, on_record=handed.append)
        other = manifold.random_stiefel(10, 3, np.random.default_rng(23))
        with pytest.raises(ParameterError, match=r"^oracle has shape \(10, 3\), swarm has shape \(4, 10, 2\)$"):
            run("drdgd", s, w, alpha=1.0, locals_=locals_, schedule=StepsizeSchedule(1e-3), oracle=other,
                on_record=handed.append)
        assert handed == []
