"""Property-based checks of the batched manifold kernels, of the per-agent norm
kernel and the stacked perturbed start, of the one-projection gradient steps,
of the metrics computed from the mean gradient, of the stacked problem's
gradients and of the drsgd epochs whose batches are gathered at once.

Shapes are drawn over n in 1..6, d up to 120 and r in 1..d, with the edge
cases r = 1 and r = d drawn on purpose. The synthesized data are drawn down to
a square draw, M = d.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stiefel_dec import algorithms, manifold, metrics, network, problems
from stiefel_dec.algorithms import _epoch_batches, steps_per_epoch
from stiefel_dec.errors import NumericalError
from stiefel_dec.manifold import frobenius_norms
from stiefel_dec.metrics import average_value

EPS = np.finfo(float).eps


@st.composite
def shapes(draw, max_d=120):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, max_d))
    r = draw(st.one_of(st.just(1), st.just(d), st.integers(1, d)))
    return n, d, r


def random_stack(rng, n, d, r):
    """n independent points of St(d, r) as one (n, d, r) array."""
    q, _ = np.linalg.qr(rng.standard_normal((n, d, r)))
    return q


def tangent_stack(rng, x, scale):
    """Tangent steps at every slice of x, of Frobenius norm about scale * sqrt(r)."""
    return manifold.project_to_tangent(x, rng.standard_normal(x.shape) * (scale / np.sqrt(x.shape[1])))


def gradient_instance(n, d, r, seed):
    """A problem with n * m >= d rows, n random points, uniform mixing and a stepsize."""
    m = max(2, -(-d // n))
    locals_, _ = problems.synthesize_eigengap_data(n, m, d, r, 0.8, seed=seed)
    s = manifold.SwarmState(random_stack(np.random.default_rng(seed), n, d, r))
    return locals_, network.MixingMatrix(np.full((n, n), 1.0 / n)), s, 0.05 / m


@st.composite
def synthetic_shapes(draw):
    """(n, m_per_node, d, r) with d <= M = n * m_per_node <= about 3d."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 40))
    m = draw(st.integers(-(-d // n), -(-3 * d // n)))
    return n, m, d, draw(st.integers(1, d))


@settings(max_examples=60, deadline=None)
@given(shape=synthetic_shapes(), gap=st.sampled_from([0.5, 0.8, 0.95]), seed=st.integers(0, 2**32 - 1))
@example(shape=(4, 5, 20, 2), gap=0.8, seed=0)  # M = d: the synthetic-square digest's shape
@example(shape=(1, 30, 30, 5), gap=0.95, seed=7)
@example(shape=(1, 60, 20, 3), gap=0.8, seed=3)  # M = 3d, about where the routes meet
def test_synthesized_profile_and_oracle_match_the_rows_svd(shape, gap, seed):
    # whichever route the draw takes, down to M = d
    n, m, d, r = shape
    locals_, xstar = problems.synthesize_eigengap_data(n, m, d, r, gap, seed=[seed, 0])
    _, sigma, vt = np.linalg.svd(locals_.rows, full_matrices=False)
    target = sigma[0] * gap ** (np.arange(d + 1) / 2.0)
    assert np.abs(sigma - target[:d]).max() <= 64 * EPS * sigma[0]
    # the subspace of the r largest is only as well defined as their gap to the next
    bound = 64 * EPS * sigma[0] / (target[r - 1] - target[r])
    assert metrics.subspace_distance(vt[:r].T, xstar.data) <= (bound if r < d else 64 * EPS)


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 2.0))
def test_stack_equals_slices_bit_for_bit(shape, seed, scale):
    rng = np.random.default_rng(seed)
    x = random_stack(rng, *shape)
    y = rng.standard_normal(x.shape)
    xi = tangent_stack(rng, x, scale)
    proj = manifold.project_to_tangent(x, y)
    ret = manifold.polar_retract(x, xi)
    for i in range(shape[0]):
        assert np.array_equal(proj[i], manifold.project_to_tangent(x[i], y[i]))
        assert np.array_equal(ret[i], manifold.polar_retract(x[i], xi[i]))


@settings(max_examples=60, deadline=None)
@given(
    shape=shapes(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-7, 1.0, 1e7]),
    strided=st.booleans(),
)
@example(shape=(1, 1, 1), seed=0, scale=1.0, strided=False)  # n = 1 and K = d r = 1
@example(shape=(1, 1, 1), seed=0, scale=1.0, strided=True)
def test_norm_kernel_equals_per_slice_norm_bit_for_bit(shape, seed, scale, strided):
    # the deviation norms behind the consensus errors and the region test; a numpy
    # whose np.linalg.norm stops summing like a (1, K) @ (K, 1) product fails here
    n, d, r = shape
    a = np.random.default_rng(seed).standard_normal((2 * n, d, r + 1)) * scale
    a = a[::2, :, :r] if strided else np.ascontiguousarray(a[:n, :, :r])  # a view, or a copy
    norms = frobenius_norms(a)
    assert norms.shape == (n,)
    assert np.array_equal(norms, [np.linalg.norm(s) for s in a])


@settings(max_examples=40, deadline=None)
@given(shape=shapes(max_d=40), seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([1e-3, 0.05, 1.0]))
def test_perturbed_swarm_equals_per_agent_tangents(shape, seed, noise):
    n, d, r = shape
    assume(d > 1)  # St(1, 1) = {-1, 1} has no nonzero tangent direction
    x0 = manifold.random_stiefel(d, r, np.random.default_rng(seed))
    ref_rng, rng = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
    # the per-agent construction: one validated random_tangent per agent, retracted alone
    expected = [manifold.polar_retract(x0.data, manifold.random_tangent(x0, ref_rng, noise).data) for _ in range(n)]
    s = manifold.perturbed_swarm(x0, n, noise, rng)
    assert np.array_equal(s.x, np.stack(expected))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 2.0))
def test_retraction_is_orthonormal(shape, seed, scale):
    n, d, r = shape
    rng = np.random.default_rng(seed)
    x = random_stack(rng, n, d, r)
    out = manifold.polar_retract(x, tangent_stack(rng, x, scale))
    err = np.abs(out.swapaxes(-1, -2) @ out - np.eye(r)).max()
    assert err <= 16 * EPS * (d + r)


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 2.0))
def test_retraction_factor_matches_three_pass_formula(shape, seed, scale):
    # polar_retract forms the r x r factor Q diag(w^-1/2) Q.T first and returns v @ Z;
    # the reference is the formula it replaced, two more passes over the (n, d, r) stack
    n, d, r = shape
    rng = np.random.default_rng(seed)
    x = random_stack(rng, n, d, r)
    xi = tangent_stack(rng, x, scale)
    out = manifold.polar_retract(x, xi)
    v = x + xi
    w, q = np.linalg.eigh(v.swapaxes(-1, -2) @ v)
    reference = ((v @ q) * w[..., None, :] ** -0.5) @ q.swapaxes(-1, -2)
    assert np.abs(out.swapaxes(-1, -2) @ out - np.eye(r)).max() <= 16 * EPS * (d + r)
    assert np.abs(out - reference).max() <= 4 * EPS * (d + r)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    r=st.integers(2, 8),
    extra=st.integers(1, 112),
    seed=st.integers(0, 2**32 - 1),
    decades=st.floats(-2.0, 2.0).filter(lambda e: abs(e) >= 1e-3),
)
@example(n=8, r=5, extra=25, seed=0, decades=1e-3)  # the benchmark's (8, 30, 5), just above
@example(n=8, r=5, extra=25, seed=0, decades=-1e-3)  # and just below
def test_retraction_guard_keeps_its_promise(n, r, extra, seed, decades):
    # a tangent step with singular values s_max >= s_2 >= ... and at least one zero, off the
    # span of x, has the Gram matrix I + xi.T xi with w_min / w_max = 1 / (1 + s_max^2),
    # set here to RETRACTION_CONDITIONING times 10^decades: above the floor the columns
    # come back within ORTHONORMALITY_TOL, below it the retraction raises
    d = r + extra
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    x, k = basis[..., :r], min(r, extra)
    ratio = manifold.RETRACTION_CONDITIONING * 10.0**decades
    s = np.sqrt(1.0 / ratio - 1.0) * np.concatenate([np.ones((n, 1)), rng.uniform(0.0, 1.0, (n, k - 1))], axis=1)
    if k == r:
        s[:, -1] = 0.0
    v, _ = np.linalg.qr(rng.standard_normal((n, r, r)))
    xi = (basis[..., r : r + k] * s[:, None, :]) @ v[..., :k].swapaxes(-1, -2)
    if decades > 0:
        out = manifold.polar_retract(x, xi)
        assert np.abs(out.swapaxes(-1, -2) @ out - np.eye(r)).max() <= manifold.ORTHONORMALITY_TOL
    else:
        with pytest.raises(NumericalError, match="^retraction Gram matrix lost positive definiteness"):
            manifold.polar_retract(x, xi)


@settings(max_examples=25, deadline=None)
@given(shape=shapes(max_d=40), seed=st.integers(0, 2**32 - 1))
def test_tracking_residual_stays_at_round_off(shape, seed):
    n = shape[0]
    locals_, w, s, beta = gradient_instance(*shape, seed)
    if n >= 3:
        w = network.metropolis_weights(network.ring_graph(n))
    x = s.x
    y, g = algorithms.drgta_init(x, locals_)
    for _ in range(4):
        x, y, g = algorithms.drgta_step(x, y, g, w, 1.0, beta, locals_)
        tr = algorithms.TrackerState(y, g)
        scale = 1.0 + np.linalg.norm(tr.average())
        assert algorithms.tracking_residual(tr, manifold.SwarmState(x), locals_) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1))
def test_projection_kernel_equals_old_expression_bit_for_bit(shape, seed):
    # halving the r x r symmetric part instead of the (n, d, r) point is exact
    rng = np.random.default_rng(seed)
    x = random_stack(rng, *shape)
    y = rng.standard_normal(x.shape)
    sym = x.swapaxes(-1, -2) @ y
    assert np.array_equal(manifold.project_to_tangent(x, y), y - 0.5 * x @ (sym + sym.swapaxes(-1, -2)))


@settings(max_examples=20, deadline=None)
@given(shape=shapes(max_d=30), seed=st.integers(0, 2**32 - 1))
def test_drgta_step_equals_per_agent_loop(shape, seed):
    # the per-agent round written out, one agent at a time: one projection of
    # alpha mixed - beta y_i, which equals alpha P(mixed) - beta P(y_i)
    locals_, w, s, beta = gradient_instance(*shape, seed)
    y, g = algorithms.drgta_init(s.x, locals_)
    alpha = 1.0
    x_next, y_next, g_next = algorithms.drgta_step(s.x, y, g, w, alpha, beta, locals_)
    mixed_x, mixed_y = network.mix(s.x, w), network.mix(y, w)
    for i, (x, o) in enumerate(zip(s.x, locals_)):
        g_old = manifold.project_to_tangent(x, o.euclidean_grad(x)[0])
        x_new = manifold.polar_retract(x, manifold.project_to_tangent(x, alpha * mixed_x[i] - beta * y[i]))
        g_new = manifold.project_to_tangent(x_new, o.euclidean_grad(x_new)[0])
        assert np.array_equal(g[i], g_old)
        assert np.array_equal(x_next[i], x_new)
        assert np.array_equal(g_next[i], g_new)
        assert np.array_equal(y_next[i], mixed_y[i] + (g_new - g_old))


@settings(max_examples=20, deadline=None)
@given(shape=shapes(max_d=30), seed=st.integers(0, 2**32 - 1))
def test_drsgd_step_equals_per_agent_loop(shape, seed):
    # one projection of alpha mixed - beta e_i, e_i the Euclidean gradient
    locals_, w, s, beta = gradient_instance(*shape, seed)
    alpha = 0.75
    egrads = locals_.euclidean_grad(s.x)
    out = algorithms.drsgd_step(s.x, w, alpha, beta, egrads)
    mixed = network.mix(s.x, w)
    for i, x in enumerate(s.x):
        expected = manifold.polar_retract(x, manifold.project_to_tangent(x, alpha * mixed[i] - beta * egrads[i]))
        assert np.array_equal(out[i], expected)


@settings(max_examples=40, deadline=None)
@given(shape=shapes(max_d=60), seed=st.integers(0, 2**32 - 1))
def test_snapshot_is_one_projection_of_the_mean_gradient(shape, seed):
    # a metrics row takes one (d, d) @ (d, r) product with sum_i G_i at xbar
    locals_, w, _, beta = gradient_instance(*shape, seed)
    n, d, r = shape
    s = manifold.SwarmState(np.repeat(random_stack(np.random.default_rng(seed), 1, d, r), n, axis=0))
    rec = algorithms.run("drdgd", s, w, alpha=1.0, locals_=locals_,
                 schedule=algorithms.StepsizeSchedule(beta), max_rounds=0).records[0]
    xbar = s.mean_point.data
    egrad = -(locals_.gram_sum @ xbar) / n
    assert rec.grad_norm_sq == float(np.linalg.norm(manifold.project_to_tangent(xbar, egrad))) ** 2
    assert rec.f_bar == float(0.5 * np.sum(xbar * egrad))


@settings(max_examples=40, deadline=None)
@given(shape=shapes(max_d=60), seed=st.integers(0, 2**32 - 1))
def test_metrics_match_per_objective_formulas_within_gate_bound(shape, seed):
    # the per-agent formulas, sum_i f_i / n and the projected mean of the -G_i x,
    # agree with the one-product metrics within the bound of
    # scripts/cli_digests.py --against: |a - b| <= 1e-12 S with S = |f|, and
    # ||grad f||^2 compared as its square root
    locals_, _, _, _ = gradient_instance(*shape, seed)
    n = shape[0]
    x = random_stack(np.random.default_rng(seed), 1, shape[1], shape[2])[0]
    egrad = locals_.mean_grad(x)
    f_old = float(sum(locals_.value(x)) / n)
    acc = np.zeros_like(x)
    for g in locals_.gram:
        acc += -g @ x
    gsq_old = float(np.linalg.norm(manifold.project_to_tangent(x, acc / n))) ** 2
    f_new = average_value(x, egrad)
    scale = max(abs(f_new), abs(f_old))
    assert abs(f_new - f_old) <= 1e-12 * scale
    assert abs(np.sqrt(metrics.stationarity_measure(x, egrad)) - np.sqrt(gsq_old)) <= 1e-12 * scale


@st.composite
def partitions(draw):
    """(M, n, d, r): M rows over n agents, M often not a multiple of n, r = 1 and
    r = d drawn on purpose."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 8 * n))
    d = draw(st.integers(1, 20))
    r = draw(st.one_of(st.just(1), st.just(d), st.integers(1, d)))
    return m, n, d, r


@settings(max_examples=60, deadline=None)
@given(part=partitions(), seed=st.integers(0, 2**32 - 1))
def test_stacked_problem_equals_one_agent_problems_bit_for_bit(part, seed):
    # agent i owns rows [start_i, start_i + m_i), the first M mod n blocks one row longer
    big, n, d, r = part
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((big, d))
    base, extra = divmod(big, n)
    counts = [base + (i < extra) for i in range(n)]
    starts = np.cumsum([0] + counts[:-1])
    agents = [problems.EigLocal(data[s : s + m]) for s, m in zip(starts, counts)]
    stacked = problems.EigLocal(data, n)
    assert stacked.counts.tolist() == counts and stacked.sample_count == max(counts)
    assert [o.sample_count for o in stacked] == counts
    x = random_stack(rng, n, d, r)
    point = x[0]
    # batches of differing lengths, each drawn within its own block
    batches = [rng.integers(0, m, size=int(rng.integers(1, m + 1))) for m in counts]
    egrads = stacked.euclidean_grad(x)
    at_point = stacked.euclidean_grad(point)
    sgrads = stacked.stochastic_egrad(x, batches)
    for i, o in enumerate(agents):
        assert np.array_equal(stacked.gram[i], o.gram[0])
        assert np.array_equal(egrads[i], o.euclidean_grad(x[i])[0])
        assert np.array_equal(at_point[i], o.euclidean_grad(point)[0])
        assert np.array_equal(sgrads[i], o.stochastic_egrad(x[i], [batches[i]])[0])
        # the per-agent formula of the unbatched code
        sub = data[starts[i] + batches[i]]
        scale = -(counts[i] / len(batches[i]))
        assert np.array_equal(sgrads[i], scale * (sub.T @ (sub @ x[i])))


def stepwise_egrad(locals_, x, batches):
    """The stochastic gradients as the step-by-step loop formed them: each group of
    agents with one batch length gathers its rows and takes one batched product."""
    x = np.broadcast_to(x, (locals_.n, *x.shape[-2:]))
    sizes = [len(b) for b in batches]
    grads = np.empty(x.shape)
    for size in set(sizes):
        group = [i for i, b in enumerate(sizes) if b == size]
        agents = slice(None) if len(group) == locals_.n else group
        a = locals_.rows[locals_.starts[agents, None] + np.array([batches[i] for i in group])]
        grads[agents] = -(locals_.counts[agents] / size)[:, None, None] * (a.swapaxes(1, 2) @ (a @ x[agents]))
    return grads


def batch_stream(m, batch, rng):
    """The batches of the step-by-step loop, one per call: a fresh shuffle per pass."""
    while True:
        perm = rng.permutation(m)
        for pos in range(0, m, batch):
            yield perm[pos : pos + batch]


@st.composite
def ragged_epochs(draw):
    """(M, n, d, r, batch, epochs): blocks of unequal length, batches that often do not
    divide m_i, and agents whose pass ends inside an epoch."""
    big, n, d, r = draw(partitions())
    return big, n, d, r, draw(st.integers(1, big // n + 2)), draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(case=ragged_epochs(), seed=st.integers(0, 2**32 - 1), strided=st.booleans())
@example(case=(41, 4, 6, 2, 5, 3), seed=0, strided=False)  # blocks 11, 10, 10, 10: sizes 1 and 5 mix
@example(case=(12, 3, 5, 5, 4, 2), seed=1, strided=True)  # uniform, r = d
@example(case=(3, 2, 4, 1, 2, 1), seed=0, strided=True)  # blocks 2, 1: one step, batches 2 and 1
def test_gathered_epochs_equal_step_by_step_bit_for_bit(case, seed, strided):
    big, n, d, r, batch, epochs = case
    rng = np.random.default_rng(seed)
    locals_ = problems.EigLocal(rng.standard_normal((big, d)), n)
    steps = steps_per_epoch(locals_, batch)
    counts = locals_.counts.tolist()
    new_rngs = [np.random.default_rng([seed, i]) for i in range(n)]
    old_rngs = [np.random.default_rng([seed, i]) for i in range(n)]
    new = [_epoch_batches(m, batch, steps, g) for m, g in zip(counts, new_rngs)]
    old = [batch_stream(m, batch, g) for m, g in zip(counts, old_rngs)]
    for _ in range(epochs):
        rows, sizes = zip(*map(next, new))
        plans = locals_.gather(rows, np.transpose(sizes))
        assert len(plans) == steps
        for step in plans:
            for agents, a, coef in step:
                assert a.flags.c_contiguous  # a strided operand would leave BLAS
            x = random_stack(rng, n, d, 2 * r if strided else r)
            x = x[:, :, ::2] if strided else x
            batches = [next(g) for g in old]
            want = stepwise_egrad(locals_, x, batches)
            assert np.array_equal(locals_.batch_egrad(x, step), want)
            assert np.array_equal(locals_.stochastic_egrad(x, batches), want)
    assert [g.bit_generator.state for g in new_rngs] == [g.bit_generator.state for g in old_rngs]


def reference_drsgd(locals_, s, wt, alpha, schedule, epochs, batch, seed):
    """The step-by-step drsgd loop: batches drawn and gathered one step at a time.
    Returns the swarm and the last beta after every epoch, the start first."""
    streams = [batch_stream(m, batch, np.random.default_rng([seed, 2, i]))
               for i, m in enumerate(locals_.counts.tolist())]
    out, x, k, beta = [(s, None)], s.x, 0, None
    for _ in range(epochs):
        for _ in range(steps_per_epoch(locals_, batch)):
            beta = schedule.beta(k)
            x = algorithms.drsgd_step(x, wt, alpha, beta, stepwise_egrad(locals_, x, [next(g) for g in streams]))
            k += 1
        out.append((manifold.SwarmState(x), beta))
    return out


@settings(max_examples=20, deadline=None)
@given(case=ragged_epochs(), seed=st.integers(0, 2**32 - 1))
@example(case=(41, 4, 6, 2, 5, 3), seed=0)  # blocks 11, 10, 10, 10 in batches of 5
def test_drsgd_run_equals_step_by_step_loop_bit_for_bit(case, seed):
    big, n, d, r, batch, epochs = case
    rng = np.random.default_rng(seed)
    locals_ = problems.EigLocal(rng.standard_normal((big, d)), n)
    s = manifold.SwarmState(random_stack(rng, n, d, r))
    wt = network.metropolis_weights(network.ring_graph(n)) if n > 1 else network.MixingMatrix(np.ones((1, 1)))
    schedule = algorithms.StepsizeSchedule(0.3 / locals_.sample_count, diminishing=True)
    result = algorithms.run("drsgd", s, wt, alpha=0.9, locals_=locals_, schedule=schedule,
                    max_rounds=epochs, batch_size=batch, seed=seed)
    want = reference_drsgd(locals_, s, wt, 0.9, schedule, epochs, batch, seed)
    assert len(result.records) == len(want) == epochs + 1
    for rec, (ref, beta) in zip(result.records, want):
        xbar = ref.mean_point.data
        egrad = locals_.mean_grad(xbar)
        assert (rec.consensus_err_sq, rec.linf_err, rec.beta_k) == (ref.consensus_error_sq, ref.linf_error, beta)
        assert (rec.grad_norm_sq, rec.f_bar) == (metrics.stationarity_measure(xbar, egrad), average_value(xbar, egrad))
    assert np.array_equal(result.final.x, want[-1][0].x)
