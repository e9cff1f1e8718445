import re

import numpy as np
import pytest

from stiefel_dec import manifold, metrics, problems
from stiefel_dec.errors import NumericalError, ParameterError
from stiefel_dec.manifold import StiefelPoint, SwarmState
from stiefel_dec.metrics import IterationRecord, average_value


def col(*vals):
    return np.asarray(vals, dtype=float).reshape(-1, 1)


class TestSubspaceDistance:
    def test_zero_on_same_point(self):
        x = manifold.random_stiefel(8, 3, np.random.default_rng(0))
        assert metrics.subspace_distance(x.data, x.data) <= 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = manifold.random_stiefel(7, 3, rng)
            q = manifold.random_stiefel(3, 3, rng)
            y = StiefelPoint(x.data @ q.data)
            assert metrics.subspace_distance(x.data, y.data) <= 1e-12

    def test_orthogonal_columns(self):
        u = StiefelPoint(col(1.0, 0.0))
        v = StiefelPoint(col(0.0, 1.0))
        assert np.isclose(metrics.subspace_distance(u.data, v.data), np.sqrt(2.0), atol=1e-12)

    def test_r1_matches_two_element_brute_force(self):
        # O(1) = {+1, -1}: the aligned distance is min(||u-v||, ||u+v||)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            d = int(rng.integers(2, 12))
            u = manifold.random_stiefel(d, 1, rng)
            v = manifold.random_stiefel(d, 1, rng)
            brute = min(
                np.linalg.norm(u.data - v.data), np.linalg.norm(u.data + v.data)
            )
            assert abs(metrics.subspace_distance(u.data, v.data) - brute) <= 1e-12

    def test_triangle_like(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            d, r = int(rng.integers(3, 9)), int(rng.integers(1, 4))
            x = manifold.random_stiefel(d, r, rng)
            y = manifold.random_stiefel(d, r, rng)
            z = manifold.random_stiefel(d, r, rng)
            assert metrics.subspace_distance(x.data, z.data) <= (
                metrics.subspace_distance(x.data, y.data) + metrics.subspace_distance(y.data, z.data) + 1e-9
            )

    def test_bounded_by_sqrt_2r(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            d, r = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            if r > d:
                continue
            x = manifold.random_stiefel(d, r, rng)
            y = manifold.random_stiefel(d, r, rng)
            assert metrics.subspace_distance(x.data, y.data) ** 2 <= 2.0 * r + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = manifold.random_stiefel(8, 2, rng)
        y = manifold.random_stiefel(8, 2, rng)
        assert np.isclose(
            metrics.subspace_distance(x.data, y.data), metrics.subspace_distance(y.data, x.data), atol=1e-12
        )

    def test_shape_mismatch(self):
        x = manifold.random_stiefel(5, 2, np.random.default_rng(7))
        y = manifold.random_stiefel(5, 3, np.random.default_rng(8))
        with pytest.raises(ParameterError, match=r"^shape mismatch: \(5, 2\) vs \(5, 3\)$"):
            metrics.subspace_distance(x.data, y.data)


class TestStationarityMeasure:
    def _measure(self, xbar, locals_):
        return metrics.stationarity_measure(xbar.data, locals_.mean_grad(xbar.data))

    def test_zero_at_oracle(self):
        locals_, xstar = problems.synthesize_eigengap_data(4, 10, 8, 2, 0.7, seed=9)
        assert self._measure(xstar, locals_) <= 1e-20

    def test_positive_off_critical(self):
        rng = np.random.default_rng(10)
        locals_, _ = problems.synthesize_eigengap_data(4, 10, 8, 2, 0.7, seed=11)
        x = manifold.random_stiefel(8, 2, rng)
        assert self._measure(x, locals_) > 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        locals_, _ = problems.synthesize_eigengap_data(3, 10, 6, 2, 0.7, seed=13)
        s = SwarmState(tuple(manifold.random_stiefel(6, 2, rng) for _ in range(3)))
        assert s.consensus_error_sq >= 0.0 and self._measure(s.mean_point, locals_) >= 0.0

    def test_agent_count_mismatch(self):
        # An empty stack, or the gradient of a problem of another dimension,
        # is not a gradient at xbar.
        x = manifold.random_stiefel(6, 2, np.random.default_rng(15)).data
        with pytest.raises(ParameterError, match=r"^shape \(0, 6, 2\) does not match point \(6, 2\)$"):
            metrics.stationarity_measure(x, np.empty((0, 6, 2)))
        others, _ = problems.synthesize_eigengap_data(1, 10, 5, 2, 0.7, seed=16)
        z = manifold.random_stiefel(5, 2, np.random.default_rng(17)).data
        with pytest.raises(ParameterError, match=r"^shape \(5, 2\) does not match point \(6, 2\)$"):
            metrics.stationarity_measure(x, others.mean_grad(z))

    @pytest.mark.parametrize("shape", [(1, 2), (3, 6, 2)])
    def test_gradient_not_shaped_like_the_point(self, shape):
        # a (1, r) row or an (n, d, r) stack would broadcast against the (d, r) point
        x = manifold.random_stiefel(6, 2, np.random.default_rng(18)).data
        for measure in (metrics.stationarity_measure, average_value):
            with pytest.raises(ParameterError, match=rf"^shape {re.escape(str(shape))} does not match point \(6, 2\)$"):
                measure(x, np.ones(shape))


class TestIterationRecord:
    def test_rejects_negative_k(self):
        with pytest.raises(ParameterError):
            IterationRecord(k=-1, consensus_err_sq=0.0, linf_err=0.0)

    def test_rejects_negative_norms(self):
        with pytest.raises(ParameterError):
            IterationRecord(k=0, consensus_err_sq=-1.0, linf_err=0.0)

    def test_rejects_nan_metrics(self):
        with pytest.raises(NumericalError, match="consensus_err_sq"):
            IterationRecord(k=0, consensus_err_sq=float("nan"), linf_err=float("nan"))
        with pytest.raises(NumericalError, match="ds_oracle"):
            IterationRecord(k=0, consensus_err_sq=0.0, linf_err=0.0, ds_oracle=float("nan"))

    @pytest.mark.parametrize(
        "field", ["consensus_err_sq", "linf_err", "grad_norm_sq", "f_bar", "ds_oracle", "beta_k", "elapsed_ms"]
    )
    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_rejects_infinite_metrics(self, field, value):
        row = dict(k=0, consensus_err_sq=0.0, linf_err=0.0)
        with pytest.raises(NumericalError, match=f"^{field} is not finite"):
            IterationRecord(**dict(row, **{field: value}))

    def test_optional_fields_default_none(self):
        rec = IterationRecord(k=0, consensus_err_sq=0.0, linf_err=0.0)
        assert rec.ds_oracle is None and rec.beta_k is None and rec.elapsed_ms is None
