"""Property-based checks of the batched manifold kernels, of gradient tracking, of
the metrics computed from shared gradients and of the stacked problem's gradients.

Shapes are drawn over n in 1..6, d up to 120 and r in 1..d, with the edge
cases r = 1 and r = d drawn on purpose.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import stiefel_dec as sd
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
    return sd.project_to_tangent(x, rng.standard_normal(x.shape) * (scale / np.sqrt(x.shape[1])))


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 2.0))
def test_stack_equals_slices_bit_for_bit(shape, seed, scale):
    rng = np.random.default_rng(seed)
    x = random_stack(rng, *shape)
    y = rng.standard_normal(x.shape)
    xi = tangent_stack(rng, x, scale)
    proj = sd.project_to_tangent(x, y)
    ret = sd.polar_retract(x, xi)
    for i in range(shape[0]):
        assert np.array_equal(proj[i], sd.project_to_tangent(x[i], y[i]))
        assert np.array_equal(ret[i], sd.polar_retract(x[i], xi[i]))


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 2.0))
def test_retraction_is_orthonormal(shape, seed, scale):
    n, d, r = shape
    rng = np.random.default_rng(seed)
    x = random_stack(rng, n, d, r)
    out = sd.polar_retract(x, tangent_stack(rng, x, scale))
    err = np.abs(out.swapaxes(-1, -2) @ out - np.eye(r)).max()
    assert err <= 16 * EPS * (d + r)


@settings(max_examples=25, deadline=None)
@given(shape=shapes(max_d=40), seed=st.integers(0, 2**32 - 1))
def test_tracking_residual_stays_at_round_off(shape, seed):
    n, d, r = shape
    m = max(2, -(-d // n))  # n * m >= d rows for a full spectrum
    locals_, _ = sd.synthesize_eigengap_data(n, m, d, r, 0.8, seed=seed)
    if n >= 3:
        w = sd.metropolis_weights(sd.ring_graph(n))
    else:
        w = sd.MixingMatrix(np.full((n, n), 1.0 / n))
    s = sd.SwarmState(random_stack(np.random.default_rng(seed), n, d, r))
    tr = sd.drgta_init(s, locals_)
    for _ in range(4):
        s, tr = sd.drgta_step(s, tr, w, 1.0, 0.05 / m, locals_)
        scale = 1.0 + np.linalg.norm(tr.average())
        assert sd.tracking_residual(tr, s, locals_) <= 1e-10 * scale


@settings(max_examples=20, deadline=None)
@given(shape=shapes(max_d=30), seed=st.integers(0, 2**32 - 1))
def test_drgta_step_equals_per_agent_loop(shape, seed):
    # the per-agent round written out as in the paper, one agent at a time
    n, d, r = shape
    m = max(2, -(-d // n))
    locals_, _ = sd.synthesize_eigengap_data(n, m, d, r, 0.8, seed=seed)
    w = sd.MixingMatrix(np.full((n, n), 1.0 / n))
    s = sd.SwarmState(random_stack(np.random.default_rng(seed), n, d, r))
    tr = sd.drgta_init(s, locals_)
    alpha, beta = 1.0, 0.05 / m
    s_new, tr_new = sd.drgta_step(s, tr, w, alpha, beta, locals_)
    mixed_x, mixed_y = sd.mix(s, w), sd.mix(tr.y, w)
    for i, (x, o) in enumerate(zip(s.x, locals_)):
        g_old = sd.project_to_tangent(x, o.euclidean_grad(x)[0])
        v = sd.project_to_tangent(x, tr.y[i])
        x_new = sd.polar_retract(x, alpha * sd.project_to_tangent(x, mixed_x[i]) - beta * v)
        g_new = sd.project_to_tangent(x_new, o.euclidean_grad(x_new)[0])
        assert np.array_equal(s_new.x[i], x_new)
        assert np.array_equal(tr_new.y[i], mixed_y[i] + (g_new - g_old))


@settings(max_examples=40, deadline=None)
@given(shape=shapes(max_d=60), seed=st.integers(0, 2**32 - 1))
def test_metrics_from_shared_gradients_equal_per_objective_formulas(shape, seed):
    # one Euclidean gradient per agent gives f(xbar) and ||grad f(xbar)||^2 exactly
    # as evaluating each objective and the gradient expression (-G) @ x separately
    n, d, r = shape
    m = max(2, -(-d // n))
    locals_, _ = sd.synthesize_eigengap_data(n, m, d, r, 0.8, seed=seed)
    x = random_stack(np.random.default_rng(seed), 1, d, r)[0]
    egrads = locals_.euclidean_grad(x)
    assert average_value(x, egrads) == float(sum(locals_.value(x)) / n)
    acc = np.zeros_like(x)
    for g in locals_.gram:
        acc += -g @ x
    expected = float(np.linalg.norm(sd.project_to_tangent(x, acc / n))) ** 2
    assert sd.stationarity_measure(x, egrads) == expected


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
    agents = [sd.EigLocal(data[s : s + m]) for s, m in zip(starts, counts)]
    stacked = sd.EigLocal(data, n)
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
