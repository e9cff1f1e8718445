import math
import re

import numpy as np
import pytest

from stiefel_dec import manifold
from stiefel_dec.errors import NumericalError, ParameterError
from stiefel_dec.manifold import (
    ConsensusRegionParams,
    StiefelPoint,
    SwarmState,
    TangentVector,
    consensus_measures,
)

from manifold_helpers import euclidean_mean, in_consensus_region, scaled


def col(*vals):
    return np.asarray(vals, dtype=float).reshape(-1, 1)


E1 = StiefelPoint(col(1.0, 0.0))


class TestStiefelPoint:
    def test_accepts_orthonormal(self):
        x = StiefelPoint(np.eye(4)[:, :2])
        assert (x.d, x.r) == (4, 2)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ParameterError):
            StiefelPoint(np.ones((3, 2)))

    def test_rejects_wide(self):
        with pytest.raises(ParameterError, match=r"^need d >= r >= 1, got d=2, r=3$"):
            StiefelPoint(np.eye(2, 3))

    def test_rejects_nan(self):
        with pytest.raises(ParameterError, match="orthonormal"):
            StiefelPoint(np.full((4, 2), np.nan))

    def test_immutable(self):
        x = StiefelPoint(np.eye(3, 1))
        with pytest.raises(ValueError):
            x.data[0, 0] = 2.0


class TestTangentVector:
    def test_rejects_non_tangent(self):
        with pytest.raises(ParameterError):
            TangentVector(E1, col(1.0, 0.0))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ParameterError, match=r"^tangent shape \(3, 1\) does not match base \(2, 1\)$"):
            TangentVector(E1, np.zeros((3, 1)))

    def test_rejects_nan(self):
        with pytest.raises(ParameterError, match="not tangent"):
            TangentVector(E1, col(0.0, np.nan))

    def test_rejects_inf(self):
        # |x.T v| = inf against an infinite ||v||: a relative bound alone would accept it
        with pytest.raises(ParameterError, match="not tangent"):
            TangentVector(E1, col(np.inf, 0.0))

    def test_large_norm_draw_is_tangent(self):
        # the projection's round-off grows with ||v||: at norm 1e7 on a 30 x 5 point
        # max |x.T v + v.T x| is about 1e-9, which an absolute 1e-10 bound rejected
        rng = np.random.default_rng(24)
        x = manifold.random_stiefel(30, 5, rng)
        for _ in range(20):
            xi = manifold.random_tangent(x, rng, norm=1e7)
            assert xi.norm == pytest.approx(1e7)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e7])
    def test_rejects_non_tangent_at_any_scale(self, scale):
        # a tiny normal direction is still not tangent; an absolute bound let 1e-20 through
        with pytest.raises(ParameterError, match="not tangent"):
            TangentVector(E1, scale * col(1.0, 0.0))
        rng = np.random.default_rng(25)
        x = manifold.random_stiefel(30, 5, rng)
        normal = x.data @ np.diag([1.0, 0.0, 0.0, 0.0, 0.0])  # x.T v + v.T x = 2 e1 e1.T
        tangent = manifold.random_tangent(x, rng, norm=scale).data
        with pytest.raises(ParameterError, match="not tangent"):
            TangentVector(x, tangent + 1e-6 * scale * normal)

    def test_scaled(self):
        xi = TangentVector(E1, col(0.0, 2.0))
        assert np.allclose(scaled(xi, 0.5).data, col(0.0, 1.0))


class TestProjectToTangent:
    def test_identity_on_tangent(self):
        out = manifold.project_to_tangent(E1.data, col(0.0, 4.0))
        assert np.allclose(out, col(0.0, 4.0), atol=1e-15)

    def test_r1_matches_complement_projector(self):
        # for r = 1 the projection is (I - x x^T) y
        out = manifold.project_to_tangent(E1.data, col(3.0, 4.0))
        expected = (np.eye(2) - E1.data @ E1.data.T) @ col(3.0, 4.0)
        assert np.allclose(out, expected, atol=1e-15)
        assert np.allclose(out, col(0.0, 4.0), atol=1e-15)

    def test_point_projects_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = manifold.random_stiefel(7, 3, rng)
            assert np.linalg.norm(manifold.project_to_tangent(x.data, x.data)) < 1e-14

    def test_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = manifold.random_stiefel(6, 2, rng)
            y = rng.standard_normal((6, 2))
            z = rng.standard_normal((6, 2))
            py = manifold.project_to_tangent(x.data, y)
            assert np.allclose(manifold.project_to_tangent(x.data, py), py, atol=1e-13)
            pz = manifold.project_to_tangent(x.data, z)
            assert np.isclose(np.sum(py * z), np.sum(y * pz), atol=1e-11)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError, match=r"^shape \(3, 1\) does not match point \(2, 1\)$"):
            manifold.project_to_tangent(E1.data, np.zeros((3, 1)))


class TestPolarRetract:
    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(3)
        x = manifold.random_stiefel(5, 3, rng)
        out = manifold.polar_retract(x.data, np.zeros((5, 3)))
        assert np.allclose(out, x.data, atol=1e-15)

    def test_r1_closed_form(self):
        # polar factor of a single column is the normalized column
        out = manifold.polar_retract(E1.data, col(0.0, 1.0))
        assert np.allclose(out, col(1.0, 1.0) / np.sqrt(2.0), atol=1e-15)

    def test_breakdown_raises_numerical_error(self):
        x = manifold.random_stiefel(4, 2, np.random.default_rng(4))
        with pytest.raises(NumericalError, match="not finite"):
            manifold.polar_retract(x.data, np.full((4, 2), np.inf))
        with pytest.raises(NumericalError, match="positive definiteness"):
            manifold.polar_retract(x.data, -x.data)  # x + xi = 0
        # finite and positive definite, but ill-conditioned: v.T v = I + 1e8 e1 e1.T
        xi = 1e4 * np.outer(np.linalg.svd(x.data)[0][:, 2], [1.0, 0.0])
        with pytest.raises(NumericalError, match=r"^retraction Gram matrix lost positive definiteness \(w_min/w_max = 1\.000e-08\)$"):
            manifold.polar_retract(x.data, xi)

    def test_second_order_bound_1000_trials(self):
        # ||R_x(xi) - (x + xi)|| <= ||xi||^2 whenever ||xi|| <= 1
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            r = int(rng.integers(1, d + 1))
            x = manifold.random_stiefel(d, r, rng)
            xi = manifold.random_tangent(x, rng, norm=float(rng.uniform(0.0, 1.0)))
            out = manifold.polar_retract(x.data, xi.data)
            gap = np.linalg.norm(out - (x.data + xi.data))
            assert gap <= xi.norm**2 + 1e-12

    def test_nonexpansive_1000_trials(self):
        # ||R_x(xi) - y|| <= ||x + xi - y|| for any manifold point y
        rng = np.random.default_rng(6)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            r = int(rng.integers(1, d + 1))
            x = manifold.random_stiefel(d, r, rng)
            y = manifold.random_stiefel(d, r, rng)
            xi = manifold.random_tangent(x, rng, norm=float(rng.uniform(0.0, 3.0)))
            out = manifold.polar_retract(x.data, xi.data)
            lhs = np.linalg.norm(out - y.data)
            rhs = np.linalg.norm(x.data + xi.data - y.data)
            assert lhs <= rhs + 1e-12


def _sin_objective(b):
    def f(x):
        return float(np.sin(np.sum(b * x)))

    def grad(x):
        return manifold.project_to_tangent(x, np.cos(np.sum(b * x)) * b)

    return f, grad


class TestRiemannianGradient:
    def test_tangent_unchanged(self):
        rng = np.random.default_rng(7)
        x = manifold.random_stiefel(5, 2, rng)
        xi = manifold.random_tangent(x, rng)
        out = manifold.project_to_tangent(x.data, xi.data)
        assert np.allclose(out, xi.data, atol=1e-13)

    def test_normal_directions_vanish(self):
        rng = np.random.default_rng(8)
        x = manifold.random_stiefel(6, 3, rng)
        s = rng.standard_normal((3, 3))
        s = s + s.T
        assert np.linalg.norm(manifold.project_to_tangent(x.data, x.data @ s)) < 1e-13

    def test_eigenvector_is_stationary(self):
        # x = e1 is a leading eigenvector of diag(2, 1), so the gradient vanishes
        egrad = -np.diag([2.0, 1.0]) @ E1.data
        out = manifold.project_to_tangent(E1.data, egrad)
        assert np.linalg.norm(out) < 1e-15

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(100):
            d = int(rng.integers(2, 8))
            r = int(rng.integers(1, min(d, 3) + 1))
            x = manifold.random_stiefel(d, r, rng)
            b = rng.standard_normal((d, r))
            f, grad = _sin_objective(b)
            xi = manifold.random_tangent(x, rng, norm=1.0)
            forward = f(manifold.polar_retract(x.data, scaled(xi, h).data))
            backward = f(manifold.polar_retract(x.data, scaled(xi, -h).data))
            numeric = (forward - backward) / (2.0 * h)
            analytic = float(np.sum(grad(x.data) * xi.data))
            assert abs(numeric - analytic) <= 1e-5


class TestInducedArithmeticMean:
    def test_identical_points(self):
        rng = np.random.default_rng(10)
        x = manifold.random_stiefel(5, 2, rng)
        s = SwarmState((x, x, x))
        assert np.allclose(s.mean_point.data, x.data, atol=1e-15)

    def test_two_point_mean(self):
        s = SwarmState((E1, StiefelPoint(col(0.0, 1.0))))
        expect = col(1.0, 1.0) / np.sqrt(2.0)
        assert np.allclose(s.mean_point.data, expect, atol=1e-15)

    def test_antipodal_degenerate(self):
        s = SwarmState((E1, StiefelPoint(col(-1.0, 0.0))))
        with pytest.raises(NumericalError, match="^euclidean mean is rank deficient"):
            s.mean_point

    def test_ill_conditioned_mean_is_orthonormal(self):
        # x2 turns the second column of x1 by theta toward e3: the mean's singular
        # values are 1 and sin(theta / 2), a ratio of 1e-6. Rotated on both sides, so
        # that its Gram matrix is not diagonal; the mean is still the SVD's u @ vt
        theta = 2e-6
        x1 = np.eye(3)[:, :2]
        x2 = np.column_stack([[1.0, 0.0, 0.0], [0.0, -np.cos(theta), np.sin(theta)]])
        rng = np.random.default_rng(28)
        q, r = manifold.random_stiefel(3, 3, rng).data, manifold.random_stiefel(2, 2, rng).data
        s = SwarmState(np.stack([q @ x1 @ r, q @ x2 @ r]))
        u, sv, vt = np.linalg.svd(euclidean_mean(s), full_matrices=False)
        assert sv[-1] / sv[0] == pytest.approx(1e-6, rel=1e-6)
        got = s.mean_point.data
        assert np.abs(got.T @ got - np.eye(2)).max() <= 1e-15
        assert np.array_equal(got, u @ vt)

    @pytest.mark.parametrize("points", [
        (col(1.0, 0.0), col(-1.0, 0.0)),  # test_antipodal_degenerate
        (np.array([[1.0]]), np.array([[-1.0]])),  # test_degenerate_mean_aborts_with_round
    ])
    def test_antipodal_mean_raises_from_consensus(self, points):
        s = SwarmState(np.stack(points))
        with pytest.raises(NumericalError, match=r"^euclidean mean is rank deficient \(s_min = 0\.000e\+00\)$"):
            s.consensus

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_consensus_is_the_array_pass_bit_for_bit(self, noise):
        rng = np.random.default_rng(29)
        x = manifold.perturbed_swarm(manifold.random_stiefel(7, 3, rng), 5, noise, rng).x
        mean, err_sq, linf = consensus_measures(x)
        point, point_err_sq, point_linf = SwarmState(x).consensus
        assert np.array_equal(point.data, mean)
        assert (point_err_sq, point_linf) == (err_sq, linf)

    def test_consensus_pass_feeds_every_measure(self):
        rng = np.random.default_rng(27)
        s = manifold.perturbed_swarm(manifold.random_stiefel(7, 3, rng), 5, 0.2, rng)
        mean, err_sq, linf = s.consensus
        assert s.mean_point is mean
        norms = np.array([np.linalg.norm(xi - mean.data) for xi in s.x])
        assert (s.consensus_error_sq, s.linf_error) == (err_sq, linf)
        assert err_sq == pytest.approx(np.mean(norms**2), rel=1e-14)
        assert linf == norms.max()

    def test_iam_vs_euclidean_mean_bound(self):
        # ||xbar - xhat|| <= 2 sqrt(r) ||x - xbar||^2 / n inside the n/2 ball
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(3, 10))
            r = int(rng.integers(1, 4))
            x0 = manifold.random_stiefel(d, r, rng)
            noise = float(rng.uniform(0.01, np.sqrt(0.5)))
            s = manifold.perturbed_swarm(x0, n, noise, rng)
            stacked_sq = s.n * s.consensus_error_sq
            if stacked_sq > n / 2.0:
                continue
            gap = np.linalg.norm(s.mean_point.data - euclidean_mean(s))
            assert gap <= 2.0 * np.sqrt(r) * stacked_sq / n + 1e-12

    def test_two_average_bound(self):
        # swarms inside the mean-square region: ||xbar-ybar|| <= ||xhat-yhat||/(1-2 d1^2)
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(3, 9))
            r = int(rng.integers(1, 4))
            p = ConsensusRegionParams(r=r)
            sx = manifold.perturbed_swarm(manifold.random_stiefel(d, r, rng), n, p.delta1 / 2.0, rng)
            sy = manifold.perturbed_swarm(manifold.random_stiefel(d, r, rng), n, p.delta1 / 2.0, rng)
            lhs = np.linalg.norm(sx.mean_point.data - sy.mean_point.data)
            rhs = np.linalg.norm(euclidean_mean(sx) - euclidean_mean(sy))
            assert lhs <= rhs / (1.0 - 2.0 * p.delta1**2) + 1e-12


class TestConsensusErrors:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(13)
        x = manifold.random_stiefel(4, 2, rng)
        s = SwarmState((x, x))
        assert s.consensus_error_sq == 0.0
        assert s.linf_error == 0.0

    def test_two_point_values(self):
        s = SwarmState((E1, StiefelPoint(col(0.0, 1.0))))
        assert np.isclose(s.consensus_error_sq, 2.0 - np.sqrt(2.0), atol=1e-14)
        assert np.isclose(
            s.linf_error, np.sqrt(2.0 - np.sqrt(2.0)), atol=1e-14
        )

    def test_order_invariance(self):
        rng = np.random.default_rng(14)
        pts = tuple(manifold.random_stiefel(5, 2, rng) for _ in range(4))
        a = SwarmState(pts).consensus_error_sq
        b = SwarmState(pts[::-1]).consensus_error_sq
        assert np.isclose(a, b, atol=1e-14)

    def test_linf_dominates_rms(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            s = manifold.perturbed_swarm(manifold.random_stiefel(6, 2, rng), 5, 0.3, rng)
            assert s.linf_error >= np.sqrt(s.consensus_error_sq) - 1e-12


class TestConsensusRegion:
    def test_params_constraint(self):
        ConsensusRegionParams(delta1=1.0 / 30.0, delta2=1.0 / 6.0, r=1)  # admissible
        with pytest.raises(ParameterError):
            ConsensusRegionParams(delta1=0.04, delta2=1.0 / 6.0, r=1)
        with pytest.raises(ParameterError):
            ConsensusRegionParams(delta1=0.01, delta2=0.2, r=1)

    def test_delta1_zero_takes_the_cap(self):
        # bit for bit delta2 / (5 sqrt(r)), the value --delta1 0 resolves to
        for r in range(1, 6):
            assert ConsensusRegionParams(r=r).delta1 == (1 / 6) / (5 * math.sqrt(r))
            assert ConsensusRegionParams(r=r, delta2=0.1).delta1 == 0.1 / (5 * math.sqrt(r))

    def test_explicit_delta1_above_the_cap_is_rejected(self):
        # the message the delta1-above-cap digest line pins
        message = "need 0 < delta1 <= delta2/(5 sqrt(r)) = 0.0149071, got 0.5"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ConsensusRegionParams(r=5, delta1=0.5)

    def test_identical_points_inside(self):
        rng = np.random.default_rng(16)
        x = manifold.random_stiefel(5, 2, rng)
        s, p = SwarmState((x, x, x)), ConsensusRegionParams(r=2)
        assert in_consensus_region(s, p) is True
        assert s.consensus_error_sq < p.delta1**2 and s.linf_error < p.delta2

    def test_large_perturbation_outside(self):
        rng = np.random.default_rng(17)
        x = manifold.random_stiefel(6, 1, rng)
        far = StiefelPoint(manifold.polar_retract(x.data, manifold.random_tangent(x, rng, norm=0.5).data))
        s, p = SwarmState((x, x, x, far)), ConsensusRegionParams(r=1)
        assert in_consensus_region(s, p) is False
        assert s.linf_error > p.delta2

    def test_r_mismatch(self):
        rng = np.random.default_rng(18)
        s = SwarmState((manifold.random_stiefel(4, 2, rng),))
        with pytest.raises(ParameterError):
            in_consensus_region(s, ConsensusRegionParams(r=1))


class TestRandomStiefel:
    def test_square_orthogonal(self):
        x = manifold.random_stiefel(5, 5, np.random.default_rng(19))
        assert np.abs(x.data.T @ x.data - np.eye(5)).max() <= 1e-12

    def test_deterministic(self):
        a = manifold.random_stiefel(6, 3, np.random.default_rng(20))
        b = manifold.random_stiefel(6, 3, np.random.default_rng(20))
        assert np.array_equal(a.data, b.data)

    def test_wide_rejected(self):
        with pytest.raises(ParameterError, match=r"^need d >= r >= 1, got d=3, r=4$"):
            manifold.random_stiefel(3, 4, np.random.default_rng(21))


class TestSwarmState:
    def test_mismatched_shapes(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ParameterError, match=r"^swarm is not an \(n, d, r\) stack"):
            SwarmState((manifold.random_stiefel(4, 2, rng), manifold.random_stiefel(5, 2, rng)))

    def test_empty(self):
        with pytest.raises(ParameterError, match=r"^swarm must be a nonempty \(n, d, r\) stack, got shape \(0,\)$"):
            SwarmState(())

    def test_caller_array_is_copied(self):
        x = np.stack([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        s = SwarmState(x)
        x[0, 0, 0] = 5.0  # the caller's array stays writable and is not the state's
        assert s.x is not x and s.x[0, 0, 0] == 1.0 and not s.x.flags.writeable

    def test_fresh_stack_is_kept_and_still_checked(self):
        x = np.stack([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        SwarmState(x)
        with pytest.raises(ParameterError, match="not orthonormal"):
            SwarmState(2.0 * np.stack([np.eye(3)[:, :2]] * 2))
        with pytest.raises(ParameterError, match=r"^swarm must be a nonempty \(n, d, r\) stack, got shape \(3, 2\)$"):
            SwarmState(np.eye(3)[:, :2])

    def test_perturbed_swarm_size_and_spread(self):
        rng = np.random.default_rng(23)
        x0 = manifold.random_stiefel(6, 2, rng)
        s = manifold.perturbed_swarm(x0, 5, 0.01, rng)
        assert s.n == 5
        for p in s.points:
            assert np.linalg.norm(p.data - x0.data) < 0.02
