import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from stiefel_dec import manifold, metrics, problems
from stiefel_dec.errors import IngestionError, ParameterError
from stiefel_dec.manifold import StiefelPoint
from stiefel_dec.problems import EigLocal, SmoothnessConstants


def col(*vals):
    return np.asarray(vals, dtype=float).reshape(-1, 1)


E1 = StiefelPoint(col(1.0, 0.0))


def local_with_gram(diag):
    """EigLocal whose Gram matrix is diag(diag): rows sqrt(diag_i) e_i."""
    d = len(diag)
    return EigLocal(np.diag(np.sqrt(np.asarray(diag, dtype=float))))


def assert_same_bits(got, want):
    """Two EigLocals hold the same rows and Gram stack, bit for bit."""
    for a, b in ((got.rows, want.rows), (got.gram, want.gram)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestEigValueAndGrad:
    def test_identity_gram(self):
        rng = np.random.default_rng(0)
        o = local_with_gram([1.0] * 6)
        x = manifold.random_stiefel(6, 2, rng)
        assert np.isclose(o.value(x.data), -1.0, atol=1e-12)  # -r/2
        assert np.allclose(o.euclidean_grad(x.data), -x.data, atol=1e-12)

    def test_diag_2_1(self):
        o = local_with_gram([2.0, 1.0])
        assert np.isclose(o.value(E1.data), -1.0, atol=1e-15)
        assert np.allclose(o.euclidean_grad(E1.data), col(-2.0, 0.0), atol=1e-15)

    def test_matches_ambient_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(20):
            a = rng.standard_normal((8, 5))
            o = EigLocal(a)
            x = manifold.random_stiefel(5, 2, rng)
            grad = o.euclidean_grad(x.data)
            for _ in range(5):
                e = rng.standard_normal((5, 2))
                e /= np.linalg.norm(e)
                fp = -0.5 * np.sum((x.data + h * e) * (o.gram @ (x.data + h * e)))
                fm = -0.5 * np.sum((x.data - h * e) * (o.gram @ (x.data - h * e)))
                numeric = (fp - fm) / (2.0 * h)
                assert abs(numeric - float(np.sum(grad * e))) <= 1e-6

    def test_non_finite_gram_rejected(self):
        with pytest.raises(ParameterError, match="Gram matrix"):
            EigLocal(np.full((3, 2), 1e160))

    def test_non_finite_gram_names_its_agent(self):
        rows = np.ones((9, 3))
        rows[7] = 1e160  # the third of blocks 3, 3, 3
        with pytest.raises(ParameterError, match=r"^agent 2: Gram matrix of the data block is not finite"):
            EigLocal(rows, 3)

    def test_data_copied_unless_adopted(self):
        data = np.arange(12.0).reshape(4, 3)
        o = EigLocal(data, 2)
        assert data.flags.writeable and not np.shares_memory(o.rows, data)
        adopted = EigLocal(data, 2, copy=False)
        assert adopted.rows is data and not data.flags.writeable
        assert_same_bits(adopted, o)

    def test_shape_mismatch(self):
        o = local_with_gram([1.0, 1.0, 1.0])
        with pytest.raises(ParameterError, match=r"^point has shape \(2, 1\), data has d=3$"):
            o.value(E1.data)


def symmetrized_grams(rows, n):
    """The Gram stack as 0.5 (g + g.T) of each block's product: the exactly symmetric
    stack EigLocal writes with one product per block must have these bytes."""
    out = []
    for block in np.array_split(rows, n):
        g = block.T @ block
        out.append(0.5 * (g + g.T))
    return np.stack(out)


class TestGramStack:
    @pytest.mark.parametrize("layout", ["C", "F", "column-strided"])
    @pytest.mark.parametrize("shape, n", [((3200, 200), 32), ((800, 30), 8), ((41, 20), 4),
                                          ((37, 9), 4), ((6, 5), 6)])  # (6, 5) over 6: one-row blocks
    @pytest.mark.parametrize("copy", [True, False])
    def test_bytes_of_the_symmetrized_product(self, layout, shape, n, copy):
        rng = np.random.default_rng(shape[0] + n)
        if layout == "column-strided":
            data = rng.standard_normal((shape[0], 2 * shape[1]))[:, ::2]
        else:
            data = np.asarray(rng.standard_normal(shape), order=layout)
        o = EigLocal(data, n, copy=copy)
        assert o.gram.tobytes() == symmetrized_grams(o.rows, n).tobytes()
        assert (o.gram == o.gram.swapaxes(1, 2)).all()


class TestStochasticGrad:
    def test_full_batch_exact(self):
        rng = np.random.default_rng(2)
        o = EigLocal(rng.standard_normal((7, 4)))
        x = manifold.random_stiefel(4, 2, rng)
        out = o.stochastic_egrad(x.data, [np.arange(7)])
        assert np.allclose(out, o.euclidean_grad(x.data), atol=1e-12)

    def test_epoch_partition_telescopes(self):
        # batch-size-weighted average over a disjoint partition is exact
        rng = np.random.default_rng(3)
        o = EigLocal(rng.standard_normal((10, 5)))
        x = manifold.random_stiefel(5, 2, rng)
        perm = rng.permutation(10)
        acc = np.zeros((5, 2))
        for chunk in (perm[:4], perm[4:7], perm[7:]):
            acc += (len(chunk) / 10.0) * o.stochastic_egrad(x.data, [chunk])[0]
        assert np.abs(acc - o.euclidean_grad(x.data)[0]).max() <= 1e-12

    def test_two_row_enumeration(self):
        o = EigLocal(np.eye(2))
        g1 = o.stochastic_egrad(E1.data, [[0]])
        g2 = o.stochastic_egrad(E1.data, [[1]])
        assert np.allclose(g1, col(-2.0, 0.0), atol=1e-15)
        assert np.allclose(g2, col(0.0, 0.0), atol=1e-15)
        assert np.allclose((g1 + g2) / 2.0, o.euclidean_grad(E1.data), atol=1e-15)

    def test_empty_batch(self):
        o = local_with_gram([1.0, 1.0])
        with pytest.raises(ParameterError):
            o.stochastic_egrad(E1.data, [[]])

    def test_out_of_range_batch(self):
        o = local_with_gram([1.0, 1.0])
        with pytest.raises(ParameterError):
            o.stochastic_egrad(E1.data, [[5]])

    @pytest.mark.parametrize(
        "batches, dtype",
        [
            ([np.array([1.7]), np.array([0.2])], "float64"),
            ([np.array([True]), np.array([0])], "bool"),
            ([[0], np.array([[0]])], "int64"),
        ],
        ids=["float", "bool", "2-d"],
    )
    def test_non_integer_indices_rejected(self, batches, dtype):
        # converting with dtype=int would truncate 1.7 to row 1 and read True as row 1
        o = EigLocal(np.eye(4), 2)
        with pytest.raises(ParameterError, match=f"integer batch indices, got {dtype}"):
            o.stochastic_egrad(np.eye(4)[:, :1], batches)

    def test_out_of_range_names_its_group(self):
        # blocks of 4, 3, 3 rows: row 3 is outside agent 2's block, and agent 1's batch is empty
        o = EigLocal(np.arange(40.0).reshape(10, 4) % 7, 3)
        with pytest.raises(ParameterError, match=r"^agent 2: need nonempty batches of indices in \[0, m_i\)$"):
            o.stochastic_egrad(np.eye(4)[:, :1], [[0], [1, 2], [3]])
        with pytest.raises(ParameterError, match=r"^agent 1: need nonempty batches of indices in \[0, m_i\)$"):
            o.stochastic_egrad(np.eye(4)[:, :1], [[0, 1], [], [1]])

    def test_gather_plan(self):
        # blocks of 4, 4, 3 rows over d = 4: a uniform step, a ragged step in which every
        # length differs, and a ragged step in which two agents share a length
        o = EigLocal(np.random.default_rng(5).standard_normal((11, 4)), 3)
        rows = [np.array([3, 0, 1, 2]), np.array([2, 1, 0, 3]), np.array([0, 2, 1, 1, 0])]
        sizes = [[1, 1, 1], [1, 2, 3], [2, 1, 1]]
        plans = o.gather(rows, sizes)
        assert [[(who, a.shape) for who, a, _ in step] for step in plans] == [
            [(slice(None), (3, 1, 4))],
            [([0], (1, 1, 4)), ([1], (1, 2, 4)), ([2], (1, 3, 4))],
            [([0], (1, 2, 4)), ([1], (1, 1, 4)), ([2], (1, 1, 4))],
        ]
        for who, a, coef in (group for step in plans for group in step):
            assert a.flags.c_contiguous
            assert np.array_equal(np.ravel(coef), -(o.counts[who] / a.shape[1]))
        # the block holds the chosen rows step after step, agent after agent
        firsts = np.cumsum([[0] * 3, *sizes], axis=0)
        want = [o.rows[o.starts[i] + rows[i][firsts[s, i] : firsts[s + 1, i]]] for s in range(3) for i in range(3)]
        got = [a.reshape(-1, 4) for step in plans for _, a, _ in step]
        assert np.array_equal(np.concatenate(got), np.concatenate(want))

    def test_gather_checks_the_lengths(self):
        o = EigLocal(np.eye(4), 2)
        with pytest.raises(ParameterError, match="add up to"):
            o.gather([[0, 1], [1]], [[1, 1]])


class TestQuadraticConstants:
    def test_identity(self):
        c = problems.quadratic_constants(local_with_gram([1.0, 1.0]), r=1)
        assert (c.l_n, c.l_g, c.l_big, c.d_bound) == (1.0, 2.0, 3.0, 1.0)

    def test_diag_4_1(self):
        c = problems.quadratic_constants(local_with_gram([4.0, 1.0]), r=1)
        assert c.l_n == 4.0 and c.d_bound == 4.0

    def test_bound_dominates_sampled_sup(self):
        # sqrt(r) l_n really is an upper bound for sup ||grad f||_F
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 6))
        o = EigLocal(a)
        c = problems.quadratic_constants(o, r=2)
        sup = max(
            float(np.linalg.norm(o.euclidean_grad(manifold.random_stiefel(6, 2, rng).data)))
            for _ in range(10000)
        )
        assert sup <= c.d_bound + 1e-12

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 4))
        c1 = problems.quadratic_constants(EigLocal(a), r=2)
        c3 = problems.quadratic_constants(EigLocal(3.0 * a), r=2)
        for name in ("l_n", "d_bound"):
            assert np.isclose(getattr(c3, name), 9.0 * getattr(c1, name), rtol=1e-12)

    # (M, d), n: every block shorter than d (even, ragged), a block as long as d, blocks
    # longer than d (even, ragged), ragged blocks of d + 1 and d rows, the gta-er32 shape
    @pytest.mark.parametrize("shape, n", [((40, 12), 4), ((41, 20), 4), ((24, 6), 4), ((44, 6), 4),
                                          ((41, 6), 4), ((43, 10), 4), ((3200, 200), 32)])
    def test_l_n_matches_the_d_by_d_route(self, shape, n):
        for seed in range(3):
            o = EigLocal(np.random.default_rng([seed, *shape]).standard_normal(shape), n)
            want = float(np.linalg.eigvalsh(o.gram)[:, -1].max())
            got = problems.quadratic_constants(o, r=2).l_n
            if o.sample_count >= o.dim:
                assert got == want  # the same call: bit for bit
            else:
                assert abs(got - want) <= np.finfo(float).eps * max(o.sample_count, o.dim) * want

    def test_l_n_with_an_empty_block(self):
        # blocks of 3, 3 and 0 rows under d = 5: the empty block's Gram is 0
        rows = np.random.default_rng(8).standard_normal((6, 5))
        o = object.__new__(EigLocal)
        o._adopt(rows, np.array([3, 3, 0]), np.stack([*symmetrized_grams(rows, 2), np.zeros((5, 5))]))
        want = float(np.linalg.eigvalsh(o.gram)[:, -1].max())
        assert abs(problems.quadratic_constants(o, r=1).l_n - want) <= np.finfo(float).eps * 5 * want

    def test_l_n_when_an_outer_gram_overflows(self):
        # one-row blocks of 6 entries 6e153: every G_i entry is finite, the row's squared
        # norm (the outer Gram, and lambda_max) is not
        rows = np.full((4, 6), 6e153)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert problems.quadratic_constants(EigLocal(rows, 4), r=1).l_n == math.inf

    def test_invariant_validation(self):
        with pytest.raises(ParameterError):
            SmoothnessConstants(-1.0, 1)
        with pytest.raises(ParameterError):
            SmoothnessConstants(1.0, 1, xi=-1.0)
        with pytest.raises(ParameterError, match="r >= 1"):
            SmoothnessConstants(1.0, 0)


class TestLipschitzInequalities:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.locals_, _ = problems.synthesize_eigengap_data(4, 10, 8, 2, 0.7, seed=[8, 0])
        # keep the scale moderate so the suite exercises nontrivial values
        self.constants = problems.quadratic_constants(self.locals_, r=2)
        self.rng = rng

    def _f(self, x):
        return float(np.sum(self.locals_.value(x.data))) / self.locals_.n

    def _grad(self, x):
        acc = self.locals_.euclidean_grad(x.data).sum(axis=0) / self.locals_.n
        return manifold.project_to_tangent(x.data, acc)

    def test_function_inequality_1000_pairs(self):
        lg = self.constants.l_g
        for _ in range(1000):
            x = manifold.random_stiefel(8, 2, self.rng)
            y = manifold.random_stiefel(8, 2, self.rng)
            diff = y.data - x.data
            lhs = abs(self._f(y) - self._f(x) - float(np.sum(self._grad(x) * diff)))
            assert lhs <= 0.5 * lg * np.linalg.norm(diff) ** 2 + 1e-10

    def test_gradient_inequality_1000_pairs(self):
        lb = self.constants.l_big
        for _ in range(1000):
            x = manifold.random_stiefel(8, 2, self.rng)
            y = manifold.random_stiefel(8, 2, self.rng)
            lhs = np.linalg.norm(self._grad(x) - self._grad(y))
            assert lhs <= lb * np.linalg.norm(y.data - x.data) + 1e-10


class TestSynthesizeEigengapData:
    def test_singular_value_ratios(self):
        locals_, _ = problems.synthesize_eigengap_data(4, 10, 12, 3, 0.8, seed=123)
        a = locals_.rows
        s = np.linalg.svd(a, compute_uv=False)
        ratios = s[1:] / s[:-1]
        assert np.abs(ratios - math.sqrt(0.8)).max() <= 1e-10
        assert np.isclose(s[1] / s[0], 0.894427, atol=1e-6)

    def test_oracle_matches_generator(self):
        locals_, xstar = problems.synthesize_eigengap_data(5, 8, 10, 2, 0.6, seed=9)
        oracle = problems.centralized_oracle(locals_, 2)
        assert metrics.subspace_distance(oracle.data, xstar.data) <= 1e-10

    def test_paper_scale_accepted(self):
        locals_, xstar = problems.synthesize_eigengap_data(32, 1000, 100, 5, 0.8, seed=10)
        assert locals_.n == 32
        assert locals_.rows.shape == (32000, 100) and set(locals_.counts.tolist()) == {1000}
        assert (xstar.d, xstar.r) == (100, 5)

    def test_holds_each_data_array_once(self):
        # at gta-er32's shape (M = 3200 rows, d = 200) the rows and the Gram stack
        # stay; at the peak at most one more M x d array may be live beside them
        md_bytes = 32 * 100 * 200 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            locals_, _ = problems.synthesize_eigengap_data(32, 100, 200, 10, 0.8, seed=5)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert live - before >= locals_.rows.nbytes + locals_.gram.nbytes  # numpy is traced
        assert peak - live <= md_bytes

    def test_one_seed_gives_the_same_data(self):
        for shape in [(4, 5, 20, 2), (8, 100, 30, 5)]:  # the SVD route and the Gram route
            (one, x), (two, y) = (problems.synthesize_eigengap_data(*shape, 0.8, seed=[4, 0]) for _ in "ab")
            assert np.array_equal(one.rows, two.rows) and np.array_equal(x.data, y.data)

    @pytest.mark.parametrize("shape", [(4, 5, 20, 2), (2, 15, 20, 3), (8, 100, 30, 5), (32, 100, 200, 10)])
    def test_route_follows_the_draws_condition_number(self, shape):
        # the Gram route when cond(a0)^2 < 16, otherwise the thin SVD: the oracle bit for
        # bit, the rows (formed a slab of rows at a time) to round-off
        n, m, d, r = shape
        locals_, x = problems.synthesize_eigengap_data(n, m, d, r, 0.8, seed=[2, 0])
        a0 = np.random.default_rng([2, 0]).standard_normal((n * m, d))
        s2, v = np.linalg.eigh(a0.T @ a0)
        s2, v = s2[::-1], v[:, ::-1]
        decay = 0.8 ** (np.arange(d) / 2.0)
        if s2[0] < 16 * s2[-1]:
            s = np.sqrt(s2)
            want = a0 @ ((v * (s[0] * decay / s)) @ v.T)
        else:
            u, s, vt = np.linalg.svd(a0, full_matrices=False)
            want, v = (u * (s[0] * decay)) @ vt, vt.T
        assert np.abs(locals_.rows - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()
        assert np.array_equal(x.data, v[:, :r])

    @pytest.mark.parametrize("last", ["zero", "copy"])
    def test_rank_deficient_draw_takes_no_root_of_a_nonpositive_eigenvalue(self, monkeypatch, last):
        # a zero column, or a copy of another (here a0.T a0 computes an eigenvalue of -5e-15)
        a0 = np.random.default_rng(2).standard_normal((12, 6))
        a0[:, 5] = 0.0 if last == "zero" else a0[:, 4]

        class Draw:
            def standard_normal(self, shape):
                assert shape == a0.shape
                return a0.copy()

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draw())
        with np.errstate(all="raise"):
            locals_, x = problems.synthesize_eigengap_data(2, 6, 6, 2, 0.8, seed=0)
        sigma = np.linalg.svd(locals_.rows, compute_uv=False)
        assert np.abs(sigma - sigma[0] * 0.8 ** (np.arange(6) / 2.0)).max() <= 64 * np.finfo(float).eps * sigma[0]
        assert np.isfinite(x.data).all()

    def test_block_split(self):
        locals_, _ = problems.synthesize_eigengap_data(3, 5, 6, 1, 0.5, seed=11)
        assert [o.sample_count for o in locals_] == [5, 5, 5]

    def test_infeasible_dims(self):
        with pytest.raises(ParameterError):
            problems.synthesize_eigengap_data(2, 2, 10, 1, 0.5, seed=0)  # n*m < d
        with pytest.raises(ParameterError):
            problems.synthesize_eigengap_data(2, 10, 5, 1, 1.5, seed=0)  # gap out of range


class TestLoadDsvPartition:
    def test_block_sizes_with_remainder(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = [[i + j for j in range(3)] for i in range(10)]
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
        blocks = problems.load_dsv_partition(path, 3)
        assert [b.sample_count for b in blocks] == [4, 3, 3]
        assert_same_bits(blocks, EigLocal(np.asarray(rows) / 1.0, 3))
        assert not blocks.rows.flags.writeable

    def test_divisor(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("255,510\n255,255\n")
        blocks = problems.load_dsv_partition(path, 1, normalize_divisor=255.0)
        assert np.allclose(blocks.rows, [[1.0, 2.0], [1.0, 1.0]])
        path.write_text("1,3\n0.1,-7\n2,5e-3\n")  # quotients that round
        blocks = problems.load_dsv_partition(path, 2, normalize_divisor=3.0)
        assert_same_bits(blocks, EigLocal(np.asarray([[1, 3], [0.1, -7], [2, 5e-3]]) / 3.0, 2))

    def test_whitespace_delimited_and_header(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("colA colB\n1 2\n  \n3\t4.5 \n")
        blocks = problems.load_dsv_partition(path, 1)
        assert blocks.sample_count == 2
        assert_same_bits(blocks, EigLocal(np.asarray([[1, 2], [3, 4.5]]) / 1.0, 1))

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n1,2,x\n")
        with pytest.raises(IngestionError, match="line 3"):
            problems.load_dsv_partition(path, 1)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n1,x\n")
        with pytest.raises(IngestionError, match="line 3.*'x'"):
            problems.load_dsv_partition(path, 1)

    @pytest.mark.parametrize("tok", ["nan", "inf", "-Infinity"])
    def test_non_finite_field_names_line(self, tmp_path, tok):
        path = tmp_path / "data.csv"
        path.write_text(f"a,b\n1,2\n3,{tok}\n")
        with pytest.raises(IngestionError, match=f"line 3: non-finite field '{tok}'"):
            problems.load_dsv_partition(path, 1)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(IngestionError):
            problems.load_dsv_partition(path, 3)

    def test_no_agents_is_an_argument_error(self, tmp_path):
        # not reported as a Gram overflow with the --divisor hint
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ParameterError, match=r"^need n >= 1, got 0$"):
            problems.load_dsv_partition(path, 0)

    def test_parses_a_line_at_a_time(self, tmp_path):
        # the file's text and its list of lines are never held whole: together they
        # took about 7x the values and the Gram stack at this shape
        path = tmp_path / "data.csv"
        rows = np.random.default_rng(3).standard_normal((4000, 50)).tolist()
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blocks = problems.load_dsv_partition(path, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_bits(blocks, EigLocal(np.asarray(rows), 4))
        assert peak - before <= 2 * (blocks.rows.nbytes + blocks.gram.nbytes)

    def test_not_utf8_past_the_first_read_buffer(self, tmp_path):
        # the decode error surfaces mid-file, after the lines before it were parsed
        path = tmp_path / "data.csv"
        path.write_bytes(b"1,2\n" * 5000 + "3,\u00e9\n".encode("latin-1"))
        with pytest.raises(IngestionError, match=f"^cannot read {re.escape(str(path))}: not UTF-8 text$"):
            problems.load_dsv_partition(path, 1)

    @pytest.mark.parametrize("header", [b"", b"a,b,c\n"], ids=["no-header", "header"])
    def test_byte_order_mark_keeps_every_row(self, tmp_path, header):
        # "\ufeff1" is not a number: read as plain UTF-8, the first data row was
        # skipped as the header, or a real header became a non-numeric row
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + header + b"1,2,3\n4,5,6\n7,8,9.5\n1,0,2\n")
        blocks = problems.load_dsv_partition(path, 1)
        assert_same_bits(blocks, EigLocal(np.asarray([[1, 2, 3], [4, 5, 6], [7, 8, 9.5], [1, 0, 2]]) / 1.0, 1))

    # 1 / 1e-320 overflows in the divide itself: the Gram check alone reports it, with no
    # RuntimeWarning from numpy ahead of the ingestion error
    @pytest.mark.parametrize("text,divisor", [
        ("1e154,2e154\n3e154,1e154\n", 1.0), ("1,2\n3,1\n", 1e-300), ("1,2\n3,1\n", 1e-320),
    ])
    def test_gram_overflow_names_the_divisor(self, tmp_path, text, divisor):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestionError, match="agent 0: Gram matrix .* not finite.*--divisor"):
                problems.load_dsv_partition(path, 1, normalize_divisor=divisor)


class TestCentralizedOracle:
    def test_diag_spectrum(self):
        o = local_with_gram([3.0, 2.0, 1.0])
        oracle = problems.centralized_oracle(o, 2)
        target = np.eye(3)[:, :2]
        assert metrics.subspace_distance(oracle.data, StiefelPoint(target).data) <= 1e-12

    def test_oracle_is_minimizer(self):
        rng = np.random.default_rng(12)
        locals_, _ = problems.synthesize_eigengap_data(4, 10, 8, 2, 0.7, seed=13)
        oracle = problems.centralized_oracle(locals_, 2)
        f_star = np.sum(locals_.value(oracle.data))
        for _ in range(100):
            x = manifold.random_stiefel(8, 2, rng)
            assert f_star <= np.sum(locals_.value(x.data)) + 1e-10

    def test_flat_spectrum_warns(self):
        o = local_with_gram([1.0, 1.0, 1.0])
        with pytest.warns(RuntimeWarning):
            problems.centralized_oracle(o, 1)

    @pytest.mark.parametrize("scale", [2.0**k for k in range(-240, 241, 40)] + [1e-7])
    def test_clear_gap_never_warns_at_any_scale(self, scale):
        # the 25 x 6 rows of the digest script's data files (e80.csv without its 1e80);
        # at r = 2 the gap is 0.36 of the largest eigenvalue. 1e-7 stands for `--divisor 1e7`.
        rng = random.Random(7)
        rows = np.array([[rng.gauss(0.0, 1.0) for _ in range(6)] for _ in range(25)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problems.centralized_oracle(EigLocal(rows * scale, 3), 2)

    @pytest.mark.parametrize("scale", [4.0**k for k in range(-240, 241, 40)] + [0.0])
    def test_tied_spectrum_warns_at_every_scale(self, scale):
        # an exact tie at positions 1 and 2; scale 0 is the all-zero spectrum
        with pytest.warns(RuntimeWarning, match="eigengap"):
            problems.centralized_oracle(local_with_gram(np.array([4.0, 4.0, 1.0]) * scale), 1)

    def test_bad_r(self):
        with pytest.raises(ParameterError):
            problems.centralized_oracle(local_with_gram([1.0, 2.0]), 3)


class TestEstimateXi:
    def test_positive_and_deterministic(self):
        rng = np.random.default_rng(14)
        locals_, _ = problems.synthesize_eigengap_data(3, 12, 6, 2, 0.7, seed=15)
        x = manifold.random_stiefel(6, 2, rng)
        a = problems.estimate_xi(locals_, x, np.random.default_rng(16))
        b = problems.estimate_xi(locals_, x, np.random.default_rng(16))
        assert a == b and a > 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 11, 50, 100, 101, 255, 256, 257, 1000, 4097, 65537])
    def test_one_integers_call_draws_as_single_choices(self, m):
        # the draws are rng.integers(0, m, size=256): the same indices, and the same
        # generator state after them, as 256 calls rng.choice(m, size=1, replace=False)
        for seed in range(5):
            one, each = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = one.integers(0, m, size=256)
            assert drawn.tolist() == [int(each.choice(m, size=1, replace=False)[0]) for _ in range(256)]
            assert one.integers(0, 2**62) == each.integers(0, 2**62)

    def test_bounds_observed_deviation(self):
        locals_, _ = problems.synthesize_eigengap_data(3, 12, 6, 2, 0.7, seed=17)
        x = manifold.random_stiefel(6, 2, np.random.default_rng(18))
        xi = problems.estimate_xi(locals_, x, np.random.default_rng(19))
        o = next(iter(locals_))
        # any single draw it saw is within the reported bound
        v = o.stochastic_egrad(x.data, [[0]])
        assert np.linalg.norm(v - o.euclidean_grad(x.data)) <= xi + 1e-9
