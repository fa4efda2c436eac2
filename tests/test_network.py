"""ReLU network forward map and Jacobian factors."""
import tracemalloc

import numpy as np
import pytest

import oracles
from natgrad import network
from natgrad import (
    JacobianView,
    NetworkParams,
    activation_pattern,
    forward,
    init_network,
    jacobian,
    synth_sphere,
)


@pytest.fixture
def small_net():
    return init_network(m=12, d=5, nu=1.0, seed=0)


@pytest.fixture
def inputs():
    return synth_sphere(7, 5, seed=1).X


def rows(jv):
    """The Jacobian row by row, row i being J^T e_i from the view's grad_matrix."""
    return np.stack([jv.grad_matrix(e).ravel() for e in np.eye(jv.n)])


def test_init_deterministic_and_frozen():
    p = init_network(8, 3, nu=0.5, seed=4)
    q = init_network(8, 3, nu=0.5, seed=4)
    assert np.array_equal(p.w, q.w)
    assert np.array_equal(p.a, q.a)
    assert np.array_equal(p.w, p.w0)
    assert p.w is not p.w0  # snapshot, not alias
    assert p.seed == 4
    assert set(np.unique(p.a)) <= {-1.0, 1.0}


def test_init_scale_is_exact():
    base = init_network(16, 4, nu=1.0, seed=9)
    scaled = init_network(16, 4, nu=2.5, seed=9)
    assert np.allclose(scaled.w, 2.5 * base.w)
    assert np.array_equal(scaled.a, base.a)


@pytest.mark.parametrize("nu", [0.0, -1.0])
def test_init_rejects_non_positive_scale(nu):
    with pytest.raises(ValueError, match=f"nu must be positive, got {nu}"):
        init_network(8, 4, nu=nu, seed=0)


def test_params_validation():
    w = np.ones((3, 2))
    with pytest.raises(ValueError, match="\\+-1"):
        NetworkParams(w=w, a=np.array([1.0, 2.0, -1.0]), w0=w)
    with pytest.raises(ValueError, match="w0 shape"):
        NetworkParams(w=w, a=np.ones(3), w0=np.ones((2, 2)))
    with pytest.raises(ValueError, match="length"):
        NetworkParams(w=w, a=np.ones(4), w0=w)


def test_with_weights_preserves_frozen_state(small_net):
    moved = small_net.with_weights(small_net.w + 1.0)
    assert np.array_equal(moved.w0, small_net.w0)
    assert np.array_equal(moved.a, small_net.a)
    assert moved.seed == small_net.seed
    assert np.array_equal(moved.w, small_net.w + 1.0)


def test_forward_matches_loop_oracle(small_net, inputs):
    u, _ = forward(small_net, inputs)
    expected = oracles.relu_forward_loops(small_net.w, small_net.a, inputs)
    assert np.allclose(u, expected, atol=1e-14)


def test_forward_single_input(small_net, inputs):
    u, S = forward(small_net, inputs[0])
    assert u.shape == (1,) and S.shape == (1, small_net.m)
    assert u[0] == pytest.approx(forward(small_net, inputs)[0][0])


@pytest.mark.parametrize("width", [None, 16, 1])  # None: one block covers m
def test_unit_blocks_change_only_summation_order(monkeypatch, width):
    # forward, pattern_product and apply_weights split the units into
    # BLOCK_BYTES-sized blocks (16 and 1 round up to 64 units, ragged
    # 64 + 64 + 22); the pattern is the same bits at every width, and u,
    # M @ S and J vec(V) move by summation order only
    ds = synth_sphere(9, 5, seed=3)
    p = init_network(150, 5, nu=1.0, seed=2)
    rng = np.random.default_rng(4)
    M = rng.standard_normal((4, ds.n))
    V = rng.standard_normal(p.w.shape)
    Z = ds.X @ p.w.T
    u_whole = (np.maximum(Z, 0.0) @ p.a) / np.sqrt(p.m)
    S_whole = Z >= 0.0
    product_whole = M @ S_whole.astype(np.float64)
    applied_whole = np.einsum("ic,ic->i", ds.X, S_whole @ (V * (p.a / np.sqrt(p.m))[:, None]))
    if width is not None:
        monkeypatch.setattr(network, "BLOCK_BYTES", 8 * ds.n * width)
    u, S = forward(p, ds.X)
    view = JacobianView(ds.X, S, p.a)
    product = view.pattern_product(M)
    applied = view.apply_weights(V)
    assert S.dtype == np.bool_ and S.tobytes() == S_whole.tobytes()
    pairs = [(u, u_whole), (product, product_whole), (applied, applied_whole)]
    for got, whole in pairs:
        if width is None:
            assert got.tobytes() == whole.tobytes()
        else:
            assert np.abs(got - whole).max() <= 1e-13 * np.abs(whole).max()


@pytest.mark.parametrize(
    "n, m, width",
    [
        (16, 4096, 4096), (128, 32768, 1024), (1024, 4096, 128),  # the benchmark shapes
        (200, 1024, 640), (200, 4096, 640), (1000, 1024, 128),  # 655 and 131 round down
        (2049, 1024, 64), (20000, 10, 10),  # at least 64 units, at most m
    ],
)
def test_block_width_is_all_units_or_a_multiple_of_64(n, m, width):
    assert network._block_width(n, m) == width


def test_apply_weights_peak_memory_is_one_unit_block():
    # J vec(V) at n = 128, m = 32768 holds V scaled by unit (8 MiB) and one
    # 1 MiB float64 block of S; the whole pattern cast to float64 is 32 MiB
    X = synth_sphere(128, 32, seed=0).X
    p = init_network(32768, 32, nu=1.0, seed=1)
    view = jacobian(p, X)
    V = np.random.default_rng(2).standard_normal(p.w.shape)
    tracemalloc.start()
    try:
        view.apply_weights(V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_forward_rejects_wrong_dimension(small_net):
    with pytest.raises(ValueError, match="dimension"):
        forward(small_net, np.ones((3, 4)))


def test_activation_ties_count_as_active(inputs):
    w = np.zeros((3, 5))
    w[1] = 1.0  # rows 0 and 2 give z = 0 everywhere
    p = NetworkParams(w=w, a=np.ones(3), w0=w.copy())
    S = activation_pattern(p, inputs)
    assert S.shape == (len(inputs), 3) and S.dtype == bool
    assert np.array_equal(S[:, 0], np.ones(len(inputs)))
    assert np.array_equal(S[:, 2], np.ones(len(inputs)))


def test_jacobian_peak_memory_is_a_bool_pattern():
    # the view holds forward's bool pattern (16 MiB at n = 128, m = 131072)
    # and forward's one 1 MiB block; a float64 pattern alone is 128 MiB
    X = synth_sphere(128, 32, seed=0).X
    p = init_network(131072, 32, nu=1.0, seed=1)
    tracemalloc.start()
    try:
        jv = jacobian(p, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert jv.S.dtype == bool
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_jacobian_dense_matches_loop_oracle(small_net, inputs):
    J = rows(jacobian(small_net, inputs))
    expected = oracles.dense_jacobian_loops(small_net.w, small_net.a, inputs)
    assert np.max(np.abs(J - expected)) < 1e-15
    assert np.array_equal(J == 0.0, expected == 0.0)  # same sparsity pattern


def test_jacobian_matches_finite_differences():
    # margin away from every kink so the difference quotient is exact
    ds = synth_sphere(6, 4, seed=3)
    p = init_network(10, 4, nu=1.0, seed=5)
    z = ds.X @ p.w.T
    assert np.abs(z).min() > 1e-3
    J = rows(jacobian(p, ds.X))
    J_fd = oracles.fd_jacobian(lambda w: forward(p.with_weights(w), ds.X)[0], p.w)
    assert np.max(np.abs(J - J_fd)) < 1e-9


def test_jacobian_apply_weights_and_grad_matrix(small_net, inputs):
    jv = jacobian(small_net, inputs)
    J = oracles.dense_jacobian_loops(small_net.w, small_net.a, inputs)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((small_net.m, small_net.d))
    assert np.allclose(jv.apply_weights(V), J @ V.ravel())
    rho = rng.standard_normal(len(inputs))
    assert np.allclose(jv.grad_matrix(rho).ravel(), J.T @ rho)


def test_jacobian_view_shape_properties(small_net, inputs):
    jv = jacobian(small_net, inputs)
    assert (jv.n, jv.m, jv.d) == (7, 12, 5)
    assert jv.S.shape == (7, 12) and jv.scale.shape == (12,)
