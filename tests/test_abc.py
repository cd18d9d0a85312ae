import numpy as np
import pytest

from simcal.abc_rejection import BANDWIDTH_FLOOR, abc_log_prob, rejection_abc
from simcal.errors import ContractError
from simcal.priors import UniformBox


def identity_table(prior, count, seed):
    """``count`` prior draws whose statistics are the draws themselves."""
    thetas = prior.sample(np.random.default_rng(seed), count)
    return thetas, thetas


def test_infinite_epsilon_accepts_everything():
    prior = UniformBox([0.0, 0.0], [1.0, 2.0])
    res = rejection_abc(*identity_table(prior, 5000, seed=0), [0.5, 1.0], 1e9)
    assert len(res.accepted) / len(res.thetas) == 1.0
    # accepted set matches the proposal's first two moments within 5%
    np.testing.assert_allclose(res.accepted.mean(axis=0), [0.5, 1.0], rtol=0.05)
    np.testing.assert_allclose(res.accepted.var(axis=0),
                               [1 / 12, 4 / 12], rtol=0.05)


def test_zero_epsilon_accepts_nothing():
    prior = UniformBox([0.0], [1.0])
    with pytest.warns(RuntimeWarning):
        res = rejection_abc(*identity_table(prior, 200, seed=1), [0.5], 0.0)
    assert len(res.accepted) / len(res.thetas) == 0.0
    assert res.accepted.shape[0] == 0


def test_toy_acceptance_interval():
    # x = theta, proposal U[0,1], x_r = 0.5, eps = 0.1 -> accept [0.4, 0.6]
    prior = UniformBox([0.0], [1.0])
    res = rejection_abc(*identity_table(prior, 10000, seed=2), [0.5], 0.1)
    assert np.all(res.accepted > 0.4 - 1e-12)
    assert np.all(res.accepted < 0.6 + 1e-12)
    assert abs(len(res.accepted) / len(res.thetas) - 0.2) < 0.02


def test_determinism():
    prior = UniformBox([0.0], [1.0])
    a = rejection_abc(*identity_table(prior, 500, seed=3), [0.5], 0.3)
    b = rejection_abc(*identity_table(prior, 500, seed=3), [0.5], 0.3)
    np.testing.assert_array_equal(a.accepted, b.accepted)


def test_shrinking_epsilon_tightens_accepted_distances():
    prior = UniformBox([0.0], [1.0])
    mean_dists = []
    for eps in (0.4, 0.2, 0.1):
        res = rejection_abc(*identity_table(prior, 4000, seed=4), [0.5], eps)
        mean_dists.append(np.mean(np.abs(res.accepted - 0.5)))
    assert mean_dists[0] >= mean_dists[1] >= mean_dists[2]


# -- KDE log-prob -----------------------------------------------------------

def test_kde_point_mass_limit():
    tight = np.zeros((50, 1))
    lp_tight = abc_log_prob(tight, [0.0])
    spread = np.random.default_rng(0).normal(0, 0.5, (50, 1))
    lp_spread = abc_log_prob(spread, [0.0])
    assert lp_tight > 10.0
    assert lp_tight > lp_spread


def test_kde_consistency_standard_normal():
    rng = np.random.default_rng(1)
    samples = rng.normal(0, 1, (10000, 1))
    lp = abc_log_prob(samples, [0.0])
    assert abs(lp - (-0.9189385)) < 0.1


def test_kde_far_target():
    rng = np.random.default_rng(2)
    samples = rng.normal(0, 0.1, (500, 1))
    # ~10 bandwidths translates to a few sigma here; push much further
    assert abc_log_prob(samples, [50.0]) < -40.0


def _kde_oracle(samples, theta_star):
    """The KDE written out: log (1/n) sum_i prod_j N(t_j | s_ij, h_j^2),
    with Silverman bandwidths h floored at BANDWIDTH_FLOOR."""
    n, d = samples.shape
    h = np.maximum(samples.std(axis=0, ddof=1) * (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0)),
                   BANDWIDTH_FLOOR)
    z = (theta_star - samples) / h
    log_kernels = (-0.5 * np.sum(z * z, axis=1) - np.sum(np.log(h))
                   - 0.5 * d * np.log(2.0 * np.pi))
    mx = log_kernels.max()
    return mx + np.log(np.sum(np.exp(log_kernels - mx))) - np.log(n)


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("n", [10, 11, 200, 10000])
def test_kde_matches_oracle(n, d):
    rng = np.random.default_rng(100 * n + d)
    samples = rng.normal(0.0, rng.uniform(0.1, 2.0, d), (n, d))
    for theta_star in (np.zeros(d), rng.normal(0.0, 1.0, d), np.full(d, 3.0)):
        assert abc_log_prob(samples, theta_star) == pytest.approx(
            _kde_oracle(samples, theta_star), rel=1e-12)


def test_kde_point_mass_matches_oracle_at_bandwidth_floor():
    samples = np.full((20, 2), 0.5)
    for theta_star in ([0.5, 0.5], [0.5 + 1e-8, 0.5 - 2e-8]):
        assert abc_log_prob(samples, theta_star) == pytest.approx(
            _kde_oracle(samples, np.asarray(theta_star)), rel=1e-12)


def test_kde_requires_ten_samples():
    with pytest.raises(ContractError):
        abc_log_prob(np.zeros((9, 1)), [0.0])
