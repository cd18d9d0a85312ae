import numpy as np
import pytest
from scipy.special import ndtri

from simcal.errors import ConfigurationError, ContractError
from simcal.features import (
    KernelConfig,
    NeuralFeatureMap,
    apply_nn,
    apply_rff,
    build_rff,
    exact_kernel,
    halton_points,
    init_neural_map,
)


def nn_feature_jacobian(nn: NeuralFeatureMap, x: np.ndarray) -> dict:
    """Gradients of every feature output w.r.t. every network weight at
    one input vector: {"w1": (s, h, d), "b1": (s, h), "w2": (s, s, h),
    "b2": (s, s)}. The oracle for the vector-Jacobian product that
    training uses, :meth:`NeuralFeatureMap.backprop`."""
    h = np.tanh(nn.w1 @ x + nn.b1)          # (h,)
    phi = np.tanh(nn.w2 @ h + nn.b2)        # (s,)
    dphi = 1.0 - phi * phi                  # (s,)
    dh = 1.0 - h * h                        # (h,)
    s, hd = nn.w2.shape

    j_b2 = np.diag(dphi)                                   # (s, s)
    j_w2 = np.zeros((s, s, hd))
    j_w2[np.arange(s), np.arange(s), :] = dphi[:, None] * h
    # dphi_i/dh_k = dphi_i * w2[i,k]; chain into layer 1
    back = dphi[:, None] * nn.w2                           # (s, h)
    j_b1 = back * dh                                       # (s, h)
    j_w1 = j_b1[:, :, None] * x[None, None, :]             # (s, h, d)
    return {"w1": j_w1, "b1": j_b1, "w2": j_w2, "b2": j_b2}


def test_kernel_config_validation():
    with pytest.raises(ConfigurationError):
        KernelConfig("rbf", 1.0, 7)  # odd
    with pytest.raises(ConfigurationError):
        KernelConfig("rbf", -1.0, 8)
    with pytest.raises(ConfigurationError):
        KernelConfig("cauchy", 1.0, 8)


def test_single_pair_rbf_frequency():
    sigma = 0.7
    m = build_rff(KernelConfig("rbf", sigma, 2), 1)
    first = halton_points(2, 1)[0]
    expected = ndtri(first[:1]) / sigma
    np.testing.assert_allclose(m.frequencies, [expected])
    assert -np.pi <= m.biases[0] <= np.pi


# The most ulps by which build_rff's frequencies may differ from the same
# map drawn through scipy's ndtri, per family. Measured over lengthscales
# 0.1-5.0 (nine values), every input dimension and 2-2000 features
# (32,115,285 frequencies): at most 8 ulps for rbf and 13 for matern52,
# whose chi-square column adds five squared normals.
RFF_ULPS = {"rbf": 8, "matern52": 13}


def _ndtri_rff(kernel: KernelConfig, input_dim: int):
    """build_rff's frequencies and biases with scipy's ndtri as the
    inverse normal CDF."""
    chi = 0 if kernel.family == "rbf" else 5
    pts = halton_points(input_dim + chi + 1, kernel.num_features // 2)
    z = ndtri(pts[:, :-1])
    freqs = z[:, :input_dim]
    if chi:
        zc = z[:, input_dim:]
        freqs = freqs / np.sqrt(np.sum(zc * zc, axis=1) / chi)[:, None]
    return freqs * (1.0 / kernel.lengthscale), 2.0 * np.pi * pts[:, -1] - np.pi


@pytest.mark.parametrize("family", ["rbf", "matern52"])
@pytest.mark.parametrize("input_dim", [1, 4, 12, 44])
@pytest.mark.parametrize("num_features", [2, 200, 2000])
def test_frequencies_within_ulps_of_ndtri(family, input_dim, num_features):
    kernel = KernelConfig(family, 1.3, num_features)
    m = build_rff(kernel, input_dim)
    freqs, biases = _ndtri_rff(kernel, input_dim)
    np.testing.assert_array_equal(m.biases, biases)
    assert m.frequencies.shape == freqs.shape
    assert np.all(np.abs(m.frequencies - freqs) <= RFF_ULPS[family] * np.spacing(np.abs(freqs)))


def test_build_rff_deterministic():
    cfg = KernelConfig("matern52", 1.3, 64)
    a, b = build_rff(cfg, 3), build_rff(cfg, 3)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.biases, b.biases)


def test_biases_in_range():
    m = build_rff(KernelConfig("rbf", 1.0, 500), 4)
    assert np.all(m.biases >= -np.pi) and np.all(m.biases <= np.pi)


def test_apply_rff_zero_projection():
    m = build_rff(KernelConfig("rbf", 1.0, 8), 2)
    # choose x so that wx + b = 0 is impossible in general; instead force it
    zeroed = type(m)(frequencies=m.frequencies, biases=np.zeros(4), kernel=m.kernel)
    phi = apply_rff(zeroed, np.zeros(2))
    norm = 1.0 / np.sqrt(4)
    np.testing.assert_allclose(phi[:4], norm)
    np.testing.assert_allclose(phi[4:], 0.0, atol=1e-15)


def test_apply_rff_unit_norm():
    m = build_rff(KernelConfig("matern52", 0.8, 100), 3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        phi = apply_rff(m, rng.normal(size=3))
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)


def test_apply_rff_dimension_mismatch():
    m = build_rff(KernelConfig("rbf", 1.0, 8), 2)
    with pytest.raises(ContractError):
        apply_rff(m, np.zeros(3))


@pytest.mark.parametrize("family", ["rbf", "matern52"])
def test_kernel_approximation_error(family):
    cfg = KernelConfig(family, 1.0, 1000)
    m = build_rff(cfg, 5)
    rng = np.random.default_rng(42)
    errs = []
    for _ in range(100):
        x, y = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
        est = float(apply_rff(m, x) @ apply_rff(m, y))
        errs.append(abs(est - exact_kernel(cfg, x, y)))
    assert np.mean(errs) <= 0.05


@pytest.mark.parametrize("family", ["rbf", "matern52"])
def test_error_shrinks_with_more_features(family):
    rng = np.random.default_rng(7)
    pairs = [(rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)) for _ in range(100)]

    def mae(s):
        cfg = KernelConfig(family, 1.0, s)
        m = build_rff(cfg, 5)
        return np.mean([
            abs(float(apply_rff(m, x) @ apply_rff(m, y)) - exact_kernel(cfg, x, y))
            for x, y in pairs
        ])

    assert mae(1000) < mae(250)


def test_nn_zero_weights_zero_output():
    nn = NeuralFeatureMap(np.zeros((4, 2)), np.zeros(4), np.zeros((6, 4)), np.zeros(6))
    np.testing.assert_allclose(apply_nn(nn, np.array([1.0, -2.0])), 0.0)


def test_nn_constant_output_layer():
    c = 0.3
    nn = NeuralFeatureMap(
        np.ones((4, 2)), np.zeros(4), np.zeros((6, 4)), np.full(6, c)
    )
    np.testing.assert_allclose(apply_nn(nn, np.array([0.5, 0.5])), np.tanh(c))


def test_nn_outputs_bounded():
    rng = np.random.default_rng(1)
    nn = init_neural_map(3, 8, 12, rng)
    out = apply_nn(nn, rng.normal(0, 5, (50, 3)))
    assert np.all(np.abs(out) < 1.0)


def test_nn_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    nn = init_neural_map(3, 5, 7, rng)
    x = rng.normal(size=3)
    jac = nn_feature_jacobian(nn, x)
    step = 1e-6
    max_rel = 0.0
    for key in ("w1", "b1", "w2", "b2"):
        arr = getattr(nn, key)
        flat = arr.ravel()
        jflat = jac[key].reshape(7, -1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = apply_nn(nn, x)
            flat[i] = orig - step
            down = apply_nn(nn, x)
            flat[i] = orig
            num = (up - down) / (2 * step)
            denom = np.maximum(np.abs(num), 1e-6)
            max_rel = max(max_rel, np.max(np.abs(num - jflat[:, i]) / denom))
    assert max_rel < 1e-4


def test_nn_backprop_is_jacobian_contraction():
    rng = np.random.default_rng(9)
    nn = init_neural_map(2, 4, 5, rng)
    x = rng.normal(size=2)
    d_phi = rng.normal(size=5)
    jac = nn_feature_jacobian(nn, x)
    grads = nn.backprop(x[None, :], d_phi[None, :], nn.activations(x[None, :]))
    for key in ("w1", "b1", "w2", "b2"):
        expected = np.tensordot(d_phi, jac[key], axes=1)
        np.testing.assert_allclose(grads[key], expected, atol=1e-12)
