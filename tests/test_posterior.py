import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from simcal import posterior
from simcal.errors import (
    ComponentWiderThanProposalError,
    ConfigurationError,
    ContractError,
    DegeneratePosteriorError,
)
from simcal.mdn import GaussianMixture, log_density_batch
from simcal.posterior import (
    CHUNK_ROWS,
    MASS_FLOOR,
    NEG_INF,
    PosteriorEstimate,
    box_mass,
    box_mass_bound,
    divide_by_gaussian,
    log_prob_target,
    recover_posterior,
    sample,
    truncate,
)
from simcal.priors import UniformBox


def random_narrow_mixture(rng, k=3, d=2):
    w = rng.dirichlet(np.ones(k))
    means = rng.normal(0, 1, (k, d))
    covs = np.stack([np.diag(rng.uniform(0.05, 0.3, d)) for _ in range(k)])
    return GaussianMixture(w, means, covs)


# -- divide_by_gaussian -----------------------------------------------------

def test_division_1d_known_result():
    q = GaussianMixture([1.0], [[0.0]], [[1.0]])
    out = divide_by_gaussian(q, GaussianMixture([1.0], [[0.0]], [[[2.0]]]))
    np.testing.assert_allclose(out.covariances, [[[2.0]]])
    np.testing.assert_allclose(out.means, [[0.0]])
    # grid check of the pointwise ratio
    grid = np.linspace(-3, 3, 41)[:, None]
    ratio = (log_density_batch(out, grid)
             - (log_density_batch(q, grid)
                + 0.5 * grid[:, 0] ** 2 / 2.0 + 0.5 * np.log(2 * np.pi * 2.0)))
    assert np.ptp(ratio) < 1e-10


def test_division_by_very_wide_gaussian_is_identity():
    rng = np.random.default_rng(0)
    q = random_narrow_mixture(rng)
    wide = GaussianMixture([1.0], [np.zeros(2)], [np.eye(2) * 1e8])
    out = divide_by_gaussian(q, wide)
    np.testing.assert_allclose(out.weights, q.weights, rtol=1e-6)
    np.testing.assert_allclose(out.means, q.means, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(out.covariances, q.covariances, rtol=1e-6)


def test_division_ratio_constancy_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = random_narrow_mixture(rng)
        mu0 = rng.normal(0, 0.5, 2)
        cov0 = np.eye(2) * rng.uniform(2.0, 5.0)
        proposal = GaussianMixture([1.0], [mu0], [cov0])
        out = divide_by_gaussian(q, proposal)
        pts = rng.normal(0, 1, (50, 2))
        diff = pts - mu0
        log_prop = (-0.5 * np.sum(diff @ np.linalg.inv(cov0) * diff, axis=1)
                    - 0.5 * np.log((2 * np.pi) ** 2 * np.linalg.det(cov0)))
        ratio = log_density_batch(out, pts) + log_prop - log_density_batch(q, pts)
        assert np.ptp(ratio) < 1e-6 * max(1.0, abs(ratio.mean()))


def test_division_weights_stay_on_simplex():
    rng = np.random.default_rng(2)
    q = random_narrow_mixture(rng, k=4)
    out = divide_by_gaussian(q, GaussianMixture([1.0], [np.zeros(2)], [np.eye(2) * 3.0]))
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out.weights >= 0)


def test_division_component_wider_than_proposal_errors():
    q = GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [[0.5], [3.0]])
    with pytest.raises(ComponentWiderThanProposalError) as err:
        divide_by_gaussian(q, GaussianMixture([1.0], [[0.0]], [[[1.0]]]))
    assert err.value.component == 1


def test_division_requires_gaussian_proposal():
    q = GaussianMixture([1.0], [[0.0]], [[1.0]])
    two = GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [[4.0], [4.0]])
    with pytest.raises(ContractError, match="one-component"):
        divide_by_gaussian(q, two)


# -- truncate ---------------------------------------------------------------

def test_truncate_wide_box_high_acceptance():
    m = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[0.2], [0.2]])
    p = truncate(m, UniformBox([-10.0], [10.0]))  # > 10 sigma around modes
    draws = sample(p, 20000, seed=0)
    assert draws.shape == (20000, 1)
    # acceptance within the box is essentially total: the box holds as
    # many draws as a box ten times wider does
    wider = sample(truncate(m, UniformBox([-100.0], [100.0])), 20000, seed=0)
    frac_inside = np.mean((wider >= -10) & (wider <= 10))
    assert frac_inside > 0.999


def test_truncate_density_outside_box():
    m = GaussianMixture([1.0], [[0.0]], [[1.0]])
    p = truncate(m, UniformBox([-1.0], [1.0]))
    assert p.log_density_batch([[2.0]])[0] == NEG_INF
    assert (p.log_density_batch([[0.5]])[0]
            == pytest.approx(log_density_batch(m, [[0.5]])[0]))


def test_truncate_degenerate_mass_warns():
    m = GaussianMixture([1.0], [[100.0]], [[0.01]])
    with pytest.warns(RuntimeWarning):
        truncate(m, UniformBox([-1.0], [1.0]))


def test_truncate_records_exact_mass_in_provenance():
    rng = np.random.default_rng(7)
    m = random_narrow_mixture(rng)
    box = UniformBox([-1.0, -0.5], [0.5, 1.0])
    given = {"model": "m.json"}
    p = truncate(m, box, provenance=given)
    assert p.provenance == {"model": "m.json", "in_box_mass": box_mass(m, box)}
    assert given == {"model": "m.json"}  # the caller's mapping is not edited
    assert truncate(m, box).provenance == {"in_box_mass": box_mass(m, box)}


# -- box_mass ---------------------------------------------------------------

def _ndtr_mass(m, box):
    """sum_k alpha_k prod_j P(a <= N(mu, sd^2) <= b) from scipy's ndtr,
    taken on the tail side so that a box far from the mean keeps its digits."""
    sd = np.sqrt(np.diagonal(m.covariances, axis1=1, axis2=2))
    a = (box.low - m.means) / sd
    b = (box.high - m.means) / sd
    z = np.where(a > 0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    return float(m.weights @ np.prod(z, axis=1))


def test_box_mass_matches_ndtr():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = random_narrow_mixture(rng, k=4, d=3)
        low = rng.uniform(-2.0, 0.5, 3)
        box = UniformBox(low, low + rng.uniform(0.1, 2.0, 3))
        assert box_mass(m, box) == pytest.approx(_ndtr_mass(m, box), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("low,high", [(8.0, 9.0), (-9.0, -8.0), (20.0, 21.0)])
def test_box_mass_far_tail_keeps_relative_precision(low, high):
    m = GaussianMixture([0.25, 0.75], [[0.0], [0.0]], [[1.0], [1.0]])
    box = UniformBox([low], [high])
    exact = _ndtr_mass(m, box)
    assert 0.0 < exact < 1e-14
    assert box_mass(m, box) == pytest.approx(exact, rel=1e-12, abs=0)


def test_box_mass_is_none_for_full_covariances():
    m = GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.3], [0.3, 1.0]]])
    assert box_mass(m, UniformBox([-1.0, -1.0], [1.0, 1.0])) is None


def test_box_mass_bound_is_an_upper_bound():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = random_narrow_mixture(rng, k=4, d=3)
        low = rng.uniform(-2.0, 0.5, 3)
        box = UniformBox(low, low + rng.uniform(0.1, 2.0, 3))
        assert box_mass(m, box) <= box_mass_bound(m, box)
    m = random_narrow_mixture(rng, d=1)  # one axis: the bound is the mass
    box = UniformBox([-0.5], [0.7])
    assert box_mass_bound(m, box) == box_mass(m, box)

    # A correlated mixture: the bound is above the Monte Carlo mass.
    q = GaussianMixture([0.4, 0.6], [[-0.5, 0.2], [0.6, -0.3]],
                        [[0.2, 0.1], [0.15, 0.25]])
    m = divide_by_gaussian(q, GaussianMixture([1.0], [[0.1, -0.1]], [[[1.0, 0.7], [0.7, 1.0]]]))
    box = UniformBox([-0.5, -0.5], [0.5, 0.5])
    draws = sample(PosteriorEstimate(m, UniformBox([-20.0, -20.0], [20.0, 20.0])),
                   100_000, seed=14)
    assert np.mean(np.all((draws >= box.low) & (draws <= box.high), axis=1)) \
        < box_mass_bound(m, box)


def _far_correlated_posterior():
    """N((5, 5), 0.1 I) divided by a correlated proposal: a full
    covariance with almost no mass in [-1, 1]^2."""
    q = GaussianMixture([1.0], [[5.0, 5.0]], [[0.1, 0.1]])
    m = divide_by_gaussian(q, GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.5, 1.0]]]))
    assert m.covariances[0, 0, 1] != 0
    return m, UniformBox([-1.0, -1.0], [1.0, 1.0])


def test_truncate_warns_on_full_covariance_below_mass_floor(monkeypatch):
    m, box = _far_correlated_posterior()
    with pytest.warns(RuntimeWarning, match="degenerate"):
        p = truncate(m, box)
    assert p.provenance["in_box_mass"] is None
    assert p.provenance["in_box_mass_bound"] == box_mass_bound(m, box) < MASS_FLOOR

    def no_draws(*args, **kwargs):
        raise AssertionError("sample drew before checking the in-box mass bound")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(DegeneratePosteriorError, match="mass"):
        sample(p, 10, seed=0)


@pytest.mark.parametrize("low,high", [([0.1, np.nan], [2.0, 2.0]),
                                      ([0.1, 0.1], [2.0, np.inf]),
                                      ([-np.inf, 0.1], [2.0, 2.0])])
def test_box_with_non_finite_edge_is_refused(low, high):
    """A NaN edge would make the in-box mass NaN, which no mass floor
    catches; an infinite edge has no uniform density."""
    with pytest.raises(ConfigurationError, match="finite"):
        UniformBox(low, high)


def test_box_contains_its_edges_and_takes_a_point_or_rows():
    box = UniformBox([0.0, -1.0], [1.0, 1.0])
    rows = np.array([[0.0, -1.0], [1.0, 1.0], [0.5, 0.0], [1.0 + 1e-12, 0.0], [0.5, -1.5]])
    np.testing.assert_array_equal(box.contains(rows), [True, True, True, False, False])
    assert box.contains([0.0, 1.0]) and not box.contains([0.0, 2.0])
    assert box.contains(rows.reshape(5, 1, 2)).shape == (5, 1)


@pytest.mark.parametrize("thetas", [np.zeros((4, 3)), np.zeros(1), np.float64(0.0)])
def test_box_contains_refuses_a_width_mismatch(thetas):
    with pytest.raises(ContractError, match="expected 2 parameters"):
        UniformBox([0.0, 0.0], [1.0, 1.0]).contains(thetas)


def test_box_needs_one_dimensional_edges():
    with pytest.raises(ConfigurationError, match="1-D"):
        UniformBox(0.0, 1.0)


def test_posterior_support_must_be_a_box():
    m = GaussianMixture([1.0], [[0.0]], [[1.0]])
    with pytest.raises(ConfigurationError, match="uniform box"):
        PosteriorEstimate(m, GaussianMixture([1.0], [[0.0]], [[[1.0]]]))


# -- sample -----------------------------------------------------------------

def test_sample_near_delta():
    m = GaussianMixture([1.0], [[3.0, -2.0]], [[1e-12, 1e-12]])
    p = truncate(m, UniformBox([2.0, -3.0], [4.0, -1.0]))
    draws = sample(p, 100, seed=1)
    assert np.max(np.abs(draws - np.array([3.0, -2.0]))) < 1e-5


def test_sample_degenerate_categorical():
    m = GaussianMixture([1.0, 0.0], [[0.0], [50.0]], [[0.01], [0.01]])
    draws = sample(truncate(m, UniformBox([-60.0], [60.0])), 5000, seed=2)
    assert np.all(np.abs(draws) < 1.0)


def test_sample_component_occupancy():
    m = GaussianMixture([0.3, 0.7], [[-5.0], [5.0]], [[0.25], [0.25]])
    draws = sample(truncate(m, UniformBox([-10.0], [10.0])), 100000, seed=3)
    occ = np.mean(draws[:, 0] > 0)
    assert abs(occ - 0.7) < 0.01


def test_sample_deterministic_and_respects_box():
    m = GaussianMixture([1.0], [[0.0]], [[1.0]])
    p = truncate(m, UniformBox([-0.5], [0.5]))
    a = sample(p, 500, seed=5)
    b = sample(p, 500, seed=5)
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= -0.5) & (a <= 0.5))


def test_sample_degenerate_posterior_raises_before_any_draw(monkeypatch):
    m = GaussianMixture([1.0], [[100.0]], [[0.01]])
    p = PosteriorEstimate(m, UniformBox([-1.0], [1.0]))
    assert box_mass(m, p.support) < MASS_FLOOR

    def no_draws(*args, **kwargs):
        raise AssertionError("sample drew before checking the in-box mass")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(DegeneratePosteriorError, match="mass"):
        sample(p, 10, seed=0)


def test_sample_truncated_component_occupancy():
    # component 0 sits on the box edge, so half of it is cut: its share of
    # the draws is alpha_0 Z_0 / sum_k alpha_k Z_k = 0.5 * 0.5 / 0.75
    m = GaussianMixture([0.5, 0.5], [[0.0], [8.0]], [[1.0], [0.09]])
    box = UniformBox([0.0], [10.0])
    sd = np.sqrt(m.covariances[:, 0, 0])
    z = ndtr((10.0 - m.means[:, 0]) / sd) - ndtr((0.0 - m.means[:, 0]) / sd)
    share = m.weights[0] * z[0] / (m.weights @ z)
    n = 100_000
    draws = sample(truncate(m, box), n, seed=9)[:, 0]
    assert np.all((draws >= 0.0) & (draws <= 10.0))
    got = np.mean(draws < 5.0)
    assert abs(got - share) < 3 * np.sqrt(share * (1 - share) / n)


def test_sample_full_covariance_from_division():
    q = GaussianMixture([0.4, 0.6], [[-0.5, 0.2], [0.6, -0.3]],
                        [[0.2, 0.1], [0.15, 0.25]])
    proposal = GaussianMixture([1.0], [[0.1, -0.1]], [[[1.0, 0.7], [0.7, 1.0]]])
    m = divide_by_gaussian(q, proposal)
    assert np.all(np.abs(m.covariances[:, 0, 1]) > 1e-3)  # correlated components
    mean = m.weights @ m.means
    second = np.einsum("k,kij->ij", m.weights,
                       m.covariances + m.means[:, :, None] * m.means[:, None, :])
    cov = second - np.outer(mean, mean)

    # A box 8 sd around the mixture: moments are the untruncated ones.
    half = 8 * np.sqrt(np.diag(cov))
    wide = UniformBox(mean - half, mean + half)
    assert box_mass(m, wide) is None
    n = 200_000
    draws = sample(truncate(m, wide), n, seed=10)
    centered = draws - draws.mean(axis=0)
    products = centered[:, :, None] * centered[:, None, :]
    assert np.all(np.abs(draws.mean(axis=0) - mean)
                  < 3 * draws.std(axis=0) / np.sqrt(n))
    assert np.all(np.abs(products.mean(axis=0) - cov)
                  < 3 * products.std(axis=0) / np.sqrt(n))

    # A box that cuts the mixture: every draw lies in it.
    cut = UniformBox([-0.5, -0.5], [0.5, 0.5])
    draws = sample(truncate(m, cut), 20_000, seed=11)
    assert draws.shape == (20_000, 2)
    assert np.all((draws >= cut.low) & (draws <= cut.high))


@pytest.mark.parametrize("boxed", [True, False])
@pytest.mark.parametrize("count", [0, 1, CHUNK_ROWS[1] - 1, CHUNK_ROWS[1], CHUNK_ROWS[1] + 1])
def test_sample_chunk_edges(count, boxed):
    """``boxed``: a box that cuts the mixture; otherwise one that holds
    every draw."""
    m = GaussianMixture([0.3, 0.7], [[0.2, 1.0], [1.2, 0.5]], [[0.1, 0.2], [0.3, 0.05]])
    box = UniformBox([0.0, 0.0], [1.5, 1.5]) if boxed else UniformBox([-9.0, -9.0],
                                                                        [9.0, 9.0])
    p = truncate(m, box)
    draws = sample(p, count, seed=12)
    assert draws.shape == (count, 2) and draws.flags.c_contiguous
    assert np.all((draws >= box.low) & (draws <= box.high))
    np.testing.assert_array_equal(draws, sample(p, count, seed=12))


def test_sample_memory_is_output_plus_one_chunk():
    m = GaussianMixture([0.3, 0.7], [[0.2, 1.0], [1.2, 0.5]], [[0.1, 0.2], [0.3, 0.05]])
    p = truncate(m, UniformBox([0.0, 0.0], [1.5, 1.5]))
    tracemalloc.start()
    try:
        draws = sample(p, 1_000_000, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_bytes = 2 * CHUNK_ROWS[1] * 8
    assert peak - draws.nbytes < 6 * chunk_bytes  # a chunk and its temporaries


def _cut_mixture():
    """A 2-component 2-D mixture on a box that cuts it."""
    m = GaussianMixture([0.3, 0.7], [[0.2, 1.0], [1.2, 0.5]], [[0.1, 0.2], [0.3, 0.05]])
    return truncate(m, UniformBox([0.0, 0.0], [1.5, 1.5]))


class _CountingThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def test_sample_same_draws_for_any_thread_count(monkeypatch):
    """300,000 draws take several rounds of two chunks; a short switch
    interval makes the threads interleave as often as they can."""
    p = _cut_mixture()
    monkeypatch.setattr(threading, "Thread", _CountingThread)
    draws, started = [], []
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3, 32):
            monkeypatch.setattr(posterior, "_usable_cpus", lambda: cpus)
            _CountingThread.started = 0
            draws.append(sample(p, 300_000, seed=4))
            started.append(_CountingThread.started)
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    # one thread per round of two chunks beside the caller, whatever the CPU count
    assert started[0] == 0 and started[1] > 0 and started[1:] == [started[1]] * 3
    assert draws[0].shape == (300_000, 2)
    assert np.all((draws[0] >= p.support.low) & (draws[0] <= p.support.high))
    for other in draws[1:]:
        np.testing.assert_array_equal(draws[0], other)


def test_sample_of_one_chunk_keeps_the_serial_draws(monkeypatch):
    """A count that fits in one chunk draws from default_rng(seed) alone,
    on the calling thread: the bytes the serial sampler gave."""
    monkeypatch.setattr(posterior, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(threading, "Thread", _CountingThread)
    _CountingThread.started = 0
    draws = sample(_cut_mixture(), 10_000, seed=12)
    assert _CountingThread.started == 0
    assert hashlib.sha256(draws.tobytes()).hexdigest() == \
        "b4bc67ecea2b4b5fb837074c38096dbe977e50ec57d9426103f4d29ba3706de9"


@pytest.mark.parametrize("failing", [2, 3])  # filled by the calling thread, by another
def test_sample_leaves_no_thread_when_a_chunk_fails(monkeypatch, failing):
    monkeypatch.setattr(posterior, "_usable_cpus", lambda: 2)
    drawer = posterior._chunk_drawer

    def failing_drawer(*args):
        stream, draw, copy_out = drawer(*args)

        class Failing:
            def random(self, out):
                raise RuntimeError(f"chunk {failing} failed")

        return (lambda chunk: Failing() if chunk == failing else stream(chunk)), draw, copy_out

    monkeypatch.setattr(posterior, "_chunk_drawer", failing_drawer)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
        sample(_cut_mixture(), 300_000, seed=4)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 32])
def test_sample_memory_bound_holds_for_any_cpu_count(monkeypatch, cpus):
    """The bound of test_sample_memory_is_output_plus_one_chunk, with the
    CPU count the sampler reads set: a round holds two chunks however
    many CPUs there are."""
    monkeypatch.setattr(posterior, "_usable_cpus", lambda: cpus)
    p = _cut_mixture()
    tracemalloc.start()
    try:
        draws = sample(p, 1_000_000, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (1_000_000, 2) and draws.flags.c_contiguous
    chunk_bytes = 2 * CHUNK_ROWS[1] * 8
    assert peak - draws.nbytes < 6 * chunk_bytes


def _no_mass_correlated_posterior():
    """N(0, [[1, .9999], [.9999, 1]]) on [1, 2] x [-2, -1]: its mass bound
    0.136 passes the floor, but the box holds almost none of it."""
    m = GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.9999], [0.9999, 1.0]]])
    p = truncate(m, UniformBox([1.0, -2.0], [2.0, -1.0]))
    assert p.provenance["in_box_mass"] is None
    assert p.provenance["in_box_mass_bound"] == pytest.approx(0.136, abs=1e-3)
    return p


@pytest.mark.parametrize("count,cpus", [(10, 1), (10, 2), (1_000_000, 1), (1_000_000, 2),
                                        (1_000_000, 32)])
def test_sample_rejection_guard(monkeypatch, count, cpus):
    """One million consecutive rejections raise, after a first round of
    one chunk (10 draws) or of two (1,000,000), serially and with the
    chunks of a round drawn at once, and leave no thread behind."""
    monkeypatch.setattr(posterior, "_usable_cpus", lambda: cpus)
    p = _no_mass_correlated_posterior()
    before = threading.active_count()
    with pytest.raises(DegeneratePosteriorError, match="one million consecutive rejections"):
        sample(p, count, seed=0)
    assert threading.active_count() == before


def test_sample_labels_more_components_than_a_byte_counts(monkeypatch):
    """300 components, means spread over [0, 1]: labels past 255 take the
    intp count, and the top tenth of the components gets its share."""
    k = 300
    m = GaussianMixture(np.full(k, 1 / k), np.linspace(0.0, 1.0, k)[:, None],
                        np.full((k, 1, 1), 1e-4))
    p = truncate(m, UniformBox([-1.0], [2.0]))
    draws = []
    for cpus in (1, 2):
        monkeypatch.setattr(posterior, "_usable_cpus", lambda: cpus)
        draws.append(sample(p, 200_000, seed=3))
    np.testing.assert_array_equal(draws[0], draws[1])
    assert np.mean(draws[0][:, 0] > 0.9) == pytest.approx(0.1, abs=0.01)


def test_sample_count_zero():
    m = GaussianMixture([1.0], [[0.0]], [[1.0]])
    assert sample(truncate(m, UniformBox([-1.0], [1.0])), 0, seed=0).shape == (0, 1)


def test_sampling_density_consistency():
    # KDE of samples correlates with analytic density on a 1-D mixture
    m = GaussianMixture([0.4, 0.6], [[-1.5], [1.0]], [[0.3], [0.2]])
    draws = sample(truncate(m, UniformBox([-10.0], [10.0])), 100000, seed=6)[:, 0]
    grid = np.linspace(-4, 4, 200)
    h = 0.08
    kde = np.mean(
        np.exp(-0.5 * ((grid[:, None] - draws[None, :5000]) / h) ** 2), axis=1
    ) / (h * np.sqrt(2 * np.pi))
    analytic = np.exp(log_density_batch(m, grid[:, None]))
    r = np.corrcoef(kde, analytic)[0, 1]
    assert r > 0.99


# -- recover_posterior / log_prob_target ------------------------------------

class _FakeModel:
    def __init__(self, mixture):
        self.mixture = mixture

    def predict_mixture(self, x):
        return self.mixture


def test_recover_uniform_proposal_identity():
    rng = np.random.default_rng(4)
    m = random_narrow_mixture(rng)
    box = UniformBox([-5, -5], [5, 5])
    post = recover_posterior(_FakeModel(m), np.zeros(3), proposal=box)
    np.testing.assert_array_equal(post.mixture.weights, m.weights)
    np.testing.assert_array_equal(post.mixture.means, m.means)
    assert post.support is box


def test_recover_gaussian_proposal_divides():
    rng = np.random.default_rng(5)
    m = random_narrow_mixture(rng)
    proposal = PosteriorEstimate(GaussianMixture([1.0], [np.zeros(2)], [np.eye(2) * 1e8]),
                                 UniformBox([-50, -50], [50, 50]))
    post = recover_posterior(_FakeModel(m), np.zeros(3), proposal=proposal)
    # wide-proposal limit: division leaves means unchanged
    np.testing.assert_allclose(post.mixture.means, m.means, atol=1e-6)


def test_recover_rejects_unsupported_combination():
    m = GaussianMixture([1.0], [[0.0]], [[1.0]])
    g = GaussianMixture([1.0], [[0.0]], [[[1.0]]])  # a Gaussian with no box
    with pytest.raises(ConfigurationError):
        recover_posterior(_FakeModel(m), np.zeros(3), proposal=g)


def test_log_prob_target_values():
    m = GaussianMixture([1.0], [[0.0]], [[1.0]])
    p = truncate(m, UniformBox([-1.0], [1.0]))
    assert log_prob_target(p, [0.0]) == pytest.approx(-0.9189385, abs=1e-6)
    assert (log_prob_target(p, [0.5])
            == pytest.approx(log_density_batch(m, [[0.5]])[0]))
    with pytest.warns(RuntimeWarning):
        assert log_prob_target(p, [2.0]) == NEG_INF
    with pytest.raises(ContractError):  # a 2-D target against a 1-D mixture
        log_prob_target(p, [0.0, 0.0])
