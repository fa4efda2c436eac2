"""Property tests: the factored Jacobian, the finite Gram and the K-FAC
step against the dense loop oracles, over shapes, seeds and forced ReLU
ties.

A zeroed row r of w gives w_r . x_i = 0 for every input, a tie that the
network counts as active, so those units exercise the tie rule of
network.activation_pattern against the oracle's own.  derandomize=True
makes every run draw the same examples.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from natgrad import NetworkParams, finite_gram, jacobian, kfac_step, synth_sphere

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def instances(draw, max_extra_rows=6):
    """(params, dataset, rng): d in [2, 4], n in [d, d + max_extra_rows],
    m in [1, 12], some rows of w zeroed."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d, d + max_extra_rows))
    m = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    tied = draw(st.lists(st.integers(0, m - 1), max_size=m))
    rng = np.random.default_rng(seed)
    ds = synth_sphere(n, d, seed=seed)
    w = rng.standard_normal((m, d))
    w[tied] = 0.0
    a = rng.choice([-1.0, 1.0], size=m)
    return NetworkParams(w=w, a=a, nu=1.0, w0=w.copy()), ds, rng


@PROPERTY
@given(instances())
def test_jacobian_products_match_dense_oracle(instance):
    p, ds, rng = instance
    J = oracles.dense_jacobian_loops(p.w, p.a, ds.X)
    jv = jacobian(p, ds.X)
    rho = rng.standard_normal(ds.n)
    V = rng.standard_normal((p.m, p.d))
    np.testing.assert_allclose(jv.grad_matrix(rho).ravel(), J.T @ rho, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(jv.apply_weights(V), J @ V.ravel(), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(finite_gram(jv).M, J @ J.T, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(instances(max_extra_rows=3), st.sampled_from([0.1, 0.4, 1.0]))
def test_kfac_step_matches_kron_oracle(instance, eta):
    p, ds, _ = instance
    stepped = kfac_step(p, ds, eta=eta, damping=0.0)
    expected = oracles.kfac_step_kron(p.w, p.a, ds.X, ds.y, eta=eta)
    scale = max(float(np.linalg.norm(expected - p.w)), 1e-12)
    assert float(np.linalg.norm(stepped.w - expected)) / scale <= 1e-10
