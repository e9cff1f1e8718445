import copy
import math
import re

import numpy as np
import pytest

from stiefel_dec import manifold, network
from stiefel_dec.errors import ParameterError
from stiefel_dec.manifold import ConsensusRegionParams, SwarmState
from stiefel_dec.network import Graph, MixingMatrix

from manifold_helpers import euclidean_mean


def col(*vals):
    return np.asarray(vals, dtype=float).reshape(-1, 1)


RING4_W = network.metropolis_weights(network.ring_graph(4))
RING8_W = network.metropolis_weights(network.ring_graph(8))


def rows(g):
    return set(map(tuple, g.edges.tolist()))


def exact(message):
    return f"^{re.escape(message)}$"


def reference_er(n, p, rng):
    """erdos_renyi with one rng.random() call per pair: the pairs of the first connected
    sample (None if no try gives one) and the number of samples drawn."""
    for tries in range(1, network._ER_TRIES + 1):
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
        reach, grown = set(), {0}
        while grown != reach:
            reach = grown
            grown = reach | {j for i, j in pairs if i in reach} | {i for i, j in pairs if j in reach}
        if len(reach) == n:
            return pairs, tries
    return None, tries


class TestGraphs:
    def test_ring4(self):
        g = network.ring_graph(4)
        assert rows(g) == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert list(g.degrees()) == [2, 2, 2, 2]

    def test_complete3(self):
        assert len(network.complete_graph(3).edges) == 3

    def test_er_connected_and_deterministic(self):
        g1 = network.erdos_renyi(32, 0.3, np.random.default_rng(7))
        g2 = network.erdos_renyi(32, 0.3, np.random.default_rng(7))
        assert rows(g1) == rows(g2)
        assert g1.n == 32  # construction already checked connectivity

    def test_er_bad_p(self):
        with pytest.raises(ParameterError):
            network.erdos_renyi(8, 1.2, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            network.erdos_renyi(8, 0.0, np.random.default_rng(0))

    def test_disconnected_rejected(self):
        with pytest.raises(ParameterError, match="^graph is not connected$"):
            Graph(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError):
            Graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_any_orientation_and_duplicates_give_one_edge_each(self):
        assert rows(Graph(4, [(1, 0), (0, 1), (2, 1), (3, 2), (3, 0)])) == rows(network.ring_graph(4))

    @pytest.mark.parametrize("pair", [(3, 1), (0, 3), (-1, 0)])
    def test_out_of_range_pair_rejected_by_name(self, pair):
        with pytest.raises(ParameterError, match=f"^{re.escape(f'bad edge {pair}: nodes must be in 0..2')}$"):
            Graph(3, [(0, 1), (1, 2), pair])

    @pytest.mark.parametrize("pair", [(0, 1.5), (0, 1.0), ("0", 1)])
    def test_non_integer_node_rejected_by_name(self, pair):
        with pytest.raises(ParameterError, match=f"^{re.escape(f'bad edge {pair}: nodes must be integers')}$"):
            Graph(3, [(1, 2), (0, 2), pair])

    def test_numpy_integer_nodes_accepted(self):
        assert rows(Graph(3, [(np.int64(0), np.int32(1)), (1, 2)])) == {(0, 1), (1, 2)}

    @pytest.mark.parametrize("pairs, error", [
        ([(0, 1), (0, 3), (0, 1.5)], exact("bad edge (0, 3): nodes must be in 0..2")),
        ([(0, 1), (0, 1.5), (0, 3)], exact("bad edge (0, 1.5): nodes must be integers")),
        ([(1, 1), (0, 1.5)], exact("self-loop at node 1")),
        ([(0, 1.5), (1, 1)], exact("bad edge (0, 1.5): nodes must be integers")),
        ([(0, 3), (2, 2)], exact("bad edge (0, 3): nodes must be in 0..2")),
        ([(0, 1), (2, 2), (0, 3)], exact("self-loop at node 2")),
        (np.array([[0.0, 1.0], [1.0, 2.0]]), "nodes must be integers$"),
        (np.array([[2, 1], [1, 0], [0, 1]], dtype=np.int32), None),
    ])
    def test_first_bad_pair_in_input_order_is_named(self, pairs, error):
        if error is None:
            edges = Graph(3, pairs).edges
            assert np.array_equal(edges, [[0, 1], [1, 2]]) and not edges.flags.writeable
        else:
            with pytest.raises(ParameterError, match=error):
                Graph(3, pairs)

    @pytest.mark.parametrize("n, p, seed, tries", [
        (2, 1.0, 0, 1), (8, 0.5, 1, 1), (32, 0.3, 7, 1), (40, 0.9, 2, 1), (12, 0.2, 3, 8), (20, 0.01, 0, 1000),
    ])
    def test_er_draws_like_one_random_call_per_pair(self, n, p, seed, tries):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs, drawn = reference_er(n, p, ref_rng)
        assert drawn == tries  # the pinned cases cover one try, retries and running out
        if pairs is None:
            with pytest.raises(ParameterError, match=exact(f"no connected ER({n}, {p}) sample in 1000 tries")):
                network.erdos_renyi(n, p, rng)
        else:
            assert rows(network.erdos_renyi(n, p, rng)) == pairs
        assert rng.random() == ref_rng.random()

    def test_small_n_rejected(self):
        for build in (network.ring_graph, network.complete_graph):
            with pytest.raises(ParameterError):
                build(1)


class TestMetropolis:
    def test_ring4_weights(self):
        w = RING4_W.w
        for i, j in network.ring_graph(4).edges:
            assert np.isclose(w[i, j], 1.0 / 3.0)
        assert np.allclose(np.diag(w), 1.0 / 3.0)

    def test_weights_equal_a_per_edge_loop(self):
        rng = np.random.default_rng(11)
        graphs = [network.ring_graph(5), network.complete_graph(7)]
        for _ in range(30):
            graphs.append(network.erdos_renyi(int(rng.integers(2, 24)), float(rng.uniform(0.2, 0.9)), rng))
        for g in graphs:
            deg = [0] * g.n
            for i, j in g.edges.tolist():
                deg[i] += 1
                deg[j] += 1
            w = np.zeros((g.n, g.n))
            for i, j in g.edges.tolist():
                w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
            np.fill_diagonal(w, 1.0 - w.sum(axis=1))
            assert np.array_equal(network.metropolis_weights(g).w, w)

    def test_ring4_sigma2(self):
        # circulant eigenvalues {1, 1/3, -1/3, 1/3}
        assert abs(RING4_W.sigma2 - 1.0 / 3.0) <= 1e-12

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(3, 16))
            g = network.erdos_renyi(n, float(rng.uniform(0.25, 0.9)), rng)
            w = network.metropolis_weights(g)  # constructor enforces all invariants
            assert np.allclose(w.w.sum(axis=1), 1.0, atol=1e-12)
            assert np.abs(w.w - w.w.T).max() <= 1e-12
            assert 0.0 <= w.sigma2 < 1.0


class TestMixingMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            MixingMatrix(np.array([[0.5, 0.5], [0.4, 0.6]]))

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ParameterError):
            MixingMatrix(np.array([[0.5, 0.4], [0.4, 0.5]]))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ParameterError):
            MixingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_single_agent_identity_allowed(self):
        w = MixingMatrix(np.array([[1.0]]))
        assert w.sigma2 == 0.0 and w.n == 1


class TestMinCommunicationRounds:
    def test_ring4(self):
        assert network.min_communication_rounds(RING4_W) == 2

    def test_equal_weight_matrix(self):
        for n in (2, 5, 17):
            w = MixingMatrix(np.full((n, n), 1.0 / n))
            assert abs(w.sigma2) <= 1e-12
            assert network.min_communication_rounds(w) == 1

    def test_slow_chain(self):
        # 0.9 I + 0.1 J/32 has sigma2 = 0.9 with n = 32: smallest t with
        # 0.9^t <= 1/(2 sqrt(32)) is 24
        w = MixingMatrix(0.9 * np.eye(32) + 0.1 / 32)
        assert abs(w.sigma2 - 0.9) <= 1e-12
        assert network.min_communication_rounds(w) == 24


class TestMatrixPower:
    def test_power_one_is_same(self):
        assert network.matrix_power(RING4_W, 1) is RING4_W  # W^1 is W itself

    def test_power_leaves_its_argument_as_it_was(self):
        w = network.metropolis_weights(network.ring_graph(5))
        before = {k: copy.deepcopy(v) for k, v in vars(w).items()}
        network.matrix_power(w, 3)
        assert vars(w).keys() == before.keys()
        for k, v in before.items():
            assert np.array_equal(vars(w)[k], v) if isinstance(v, np.ndarray) else vars(w)[k] == v

    def test_ring4_squared_sigma2(self):
        assert abs(network.matrix_power(RING4_W, 2).sigma2 - 1.0 / 9.0) <= 1e-12

    def test_rows_still_stochastic(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = network.erdos_renyi(int(rng.integers(3, 10)), 0.6, rng)
            w = network.metropolis_weights(g)
            for t in (2, 5, 10):
                wt = network.matrix_power(w, t)
                assert np.allclose(wt.w.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_power(self):
        with pytest.raises(ParameterError):
            network.matrix_power(RING4_W, 0)


class TestMix:
    def test_identical_points_fixed(self):
        rng = np.random.default_rng(10)
        x = manifold.random_stiefel(5, 2, rng)
        out = network.mix(SwarmState((x,) * 4).x, RING4_W)
        for m in out:
            assert np.allclose(m, x.data, atol=1e-15)

    def test_half_half(self):
        w = MixingMatrix(np.full((2, 2), 0.5))
        s = SwarmState((manifold.StiefelPoint(col(1.0, 0.0)), manifold.StiefelPoint(col(0.0, 1.0))))
        out = network.mix(s.x, w)
        assert np.allclose(out[0], col(0.5, 0.5), atol=1e-15)
        assert np.allclose(out[1], col(0.5, 0.5), atol=1e-15)

    def test_size_mismatch(self):
        rng = np.random.default_rng(11)
        s = SwarmState(tuple(manifold.random_stiefel(4, 2, rng) for _ in range(3)))
        with pytest.raises(ParameterError, match=r"^mixing matrix is 4x4, swarm has shape \(3, 4, 2\)$"):
            network.mix(s.x, RING4_W)

    def test_contraction_toward_euclidean_mean(self):
        # ||W^t x - xhat|| <= sigma2^t ||x - xhat|| on the stacked swarm
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = network.erdos_renyi(n, 0.6, rng)
            w = network.metropolis_weights(g)
            t = int(rng.integers(1, 4))
            s = SwarmState(tuple(manifold.random_stiefel(6, 2, rng) for _ in range(n)))
            xhat = euclidean_mean(s)
            mixed = network.mix(s.x, network.matrix_power(w, t))
            before = math.sqrt(sum(np.linalg.norm(p.data - xhat) ** 2 for p in s.points))
            after = math.sqrt(sum(np.linalg.norm(m - xhat) ** 2 for m in mixed))
            assert after <= w.sigma2**t * before + 1e-12


class TestConsensusRateParams:
    def test_ring4_against_scripted_oracle(self):
        # independent evaluation straight from the eigenvalues of W^t
        p = ConsensusRegionParams(delta1=1.0 / 30.0, delta2=1.0 / 6.0, r=1)
        t = 2
        rep = network.consensus_rate_params(network.matrix_power(RING4_W, t), p)
        wt = np.linalg.matrix_power(RING4_W.w, t)
        evals = np.linalg.eigvalsh(wt)
        l_t = 1.0 - evals[0]
        mu_t = 1.0 - evals[-2]
        phi = 2.0 - p.delta2**2
        alpha_bar = min(phi / (2.0 * l_t), 1.0, 1.0)
        gamma = (1.0 - 4.0 * p.r * p.delta1**2) * (1.0 - p.delta2**2 / 2.0) * mu_t
        rho = math.sqrt(1.0 - gamma * alpha_bar)
        assert abs(rep.l_t - l_t) <= 1e-12 and abs(rep.l_t - 8.0 / 9.0) <= 1e-12
        assert abs(rep.mu_t - mu_t) <= 1e-12 and abs(rep.mu_t - 8.0 / 9.0) <= 1e-12
        assert rep.alpha_bar == 1.0
        assert abs(rep.gamma_t - gamma) <= 1e-12
        assert abs(rep.rho(rep.alpha_bar) - rho) <= 1e-12

    def test_equal_weight_matrix(self):
        w = MixingMatrix(np.full((4, 4), 0.25))
        rep = network.consensus_rate_params(network.matrix_power(w, 1), ConsensusRegionParams(r=1))
        assert abs(rep.mu_t - 1.0) <= 1e-12
        assert abs(rep.l_t - 1.0) <= 1e-12

    def test_gamma_lower_bound(self):
        # gamma_t >= mu_t / 2 >= (1 - sigma2^t) / 2
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            g = network.erdos_renyi(n, 0.5, rng)
            w = network.metropolis_weights(g)
            t = int(rng.integers(1, 5))
            r = int(rng.integers(1, 5))
            rep = network.consensus_rate_params(network.matrix_power(w, t), ConsensusRegionParams(r=r))
            assert rep.gamma_t >= rep.mu_t / 2.0 - 1e-12
            assert rep.mu_t / 2.0 >= (1.0 - w.sigma2**t) / 2.0 - 1e-12
            assert 0.0 < rep.rho(rep.alpha_bar) < 1.0

    def test_alpha_bar_reads_phi_where_the_cap_binds(self):
        p = ConsensusRegionParams(r=3)
        rep = network.consensus_rate_params(network.matrix_power(RING8_W, 1), p)
        assert rep.alpha_bar < 1.0
        assert rep.alpha_bar == (2.0 - p.delta2**2) / (2.0 * rep.l_t)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.5])
    def test_rho_below_at_and_above_alpha_bar(self, scale):
        # one formula wherever alpha lies: a run above alpha_bar is warned of, not refused
        rep = network.consensus_rate_params(network.matrix_power(RING8_W, 1), ConsensusRegionParams(r=3))
        alpha = scale * rep.alpha_bar
        assert rep.rho(alpha) == float(np.sqrt(1.0 - rep.gamma_t * alpha))

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1e-300])
    def test_rho_out_of_range_rejected(self, alpha):
        # alpha <= 0 gives rho^2 >= 1; at 1e-300, 1 - gamma_t * alpha rounds to 1
        rep = network.consensus_rate_params(network.matrix_power(RING8_W, 1), ConsensusRegionParams(r=3))
        with pytest.raises(ParameterError, match=r"^contraction factor out of range: rho\^2 = 1"):
            rep.rho(alpha)


class TestGradPhiBounds:
    def test_norm_bounds_on_random_swarms(self):
        # grad phi_i = -P_{T_{x_i}}(mixed_i); stacked norm <= L_t ||x - xbar||
        # and the norm of the agent sum <= L_t ||x - xbar||^2
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            g = network.erdos_renyi(n, 0.7, rng)
            w = network.metropolis_weights(g)
            t = int(rng.integers(1, 4))
            wt = network.matrix_power(w, t)
            l_t = 1.0 - wt.lambda_min
            s = SwarmState(tuple(manifold.random_stiefel(7, 2, rng) for _ in range(n)))
            xbar = s.mean_point.data
            stacked = math.sqrt(sum(np.linalg.norm(p.data - xbar) ** 2 for p in s.points))
            mixed = network.mix(s.x, wt)
            grads = [
                -manifold.project_to_tangent(s.x[i], mixed[i]) for i in range(n)
            ]
            stacked_grad = math.sqrt(sum(np.linalg.norm(g_) ** 2 for g_ in grads))
            sum_grad = np.linalg.norm(sum(grads))
            assert stacked_grad <= l_t * stacked + 1e-10
            assert sum_grad <= l_t * stacked**2 + 1e-10
