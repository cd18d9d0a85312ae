import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcal import mdn
from simcal.errors import ConfigurationError, ContractError, TrainingDivergenceError
from simcal.features import (
    KernelConfig,
    NeuralFeatureMap,
    apply_nn,
    apply_rff,
    build_rff,
    init_neural_map,
)
from simcal.mdn import (
    GaussianMixture,
    MixtureHeadWeights,
    TrainerConfig,
    head_forward,
    log_density_batch,
    loss_and_gradient,
    melu,
    select_lengthscale,
    train,
)


def zero_head(k, d, s):
    rows = k + 2 * k * d
    return MixtureHeadWeights(np.zeros((rows, s)), np.zeros(rows), k)


def density_at(mixture, theta):
    """Mixture log-density at one theta, through a one-row batch."""
    return log_density_batch(mixture, np.reshape(theta, (1, -1)))[0]


def random_head(k, d, s, rng, scale=0.3):
    h = zero_head(k, d, s)
    for key in ("weight", "bias"):
        getattr(h, key)[...] = rng.normal(0, scale, getattr(h, key).shape)
    return h


# -- melu -------------------------------------------------------------------

def test_melu_values():
    assert melu(0.0) == pytest.approx(1.0)
    assert melu(2.0) == pytest.approx(3.0)
    assert melu(-20.0) == pytest.approx(np.exp(-20), abs=1e-15)


@given(st.floats(-30, 30))
def test_melu_positive_and_continuous(z):
    v = melu(z)
    assert v > 0
    assert abs(melu(1e-12) - melu(-1e-12)) < 1e-10


# -- head forward -----------------------------------------------------------

def test_head_forward_zero_weights():
    k, d, s = 3, 2, 8
    head = zero_head(k, d, s)
    m = head_forward(head, np.random.default_rng(0).normal(size=s))
    np.testing.assert_allclose(m.weights, 1.0 / k)
    np.testing.assert_allclose(m.means, 0.0)
    np.testing.assert_allclose(np.diagonal(m.covariances, axis1=1, axis2=2),
                               1.0 + mdn.VARIANCE_FLOOR)


def test_head_layout_matches_docstring():
    # Rows: K logits, then the K x d means component-major, then the K x d
    # pre-activation variances. Finite differences pass on any layout that
    # forward and backward share; this pins the documented one.
    k, d, s = 2, 3, 4
    logits = np.array([0.3, -1.1])
    means = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    pre_var = np.array([[0.5, -0.5, 1.5], [-2.0, 2.5, 0.25]])
    head = MixtureHeadWeights(np.zeros((k + 2 * k * d, s)),
                              np.concatenate([logits, means.ravel(), pre_var.ravel()]), k)
    m = head_forward(head, np.random.default_rng(0).normal(size=s))
    np.testing.assert_allclose(m.weights, np.exp(logits) / np.exp(logits).sum(),
                               rtol=1e-12)
    np.testing.assert_array_equal(m.means, means)
    expected = np.where(pre_var > 0, pre_var + 1.0, np.exp(pre_var)) + mdn.VARIANCE_FLOOR
    np.testing.assert_allclose(np.diagonal(m.covariances, axis1=1, axis2=2),
                               expected, rtol=1e-12)


def test_head_forward_singleton_softmax():
    rng = np.random.default_rng(1)
    head = random_head(1, 2, 8, rng)
    m = head_forward(head, rng.normal(size=8))
    np.testing.assert_allclose(m.weights, [1.0])


def test_head_forward_simplex_and_floor():
    rng = np.random.default_rng(2)
    head = random_head(4, 3, 10, rng, scale=2.0)
    for _ in range(20):
        m = head_forward(head, rng.normal(size=10))
        assert abs(m.weights.sum() - 1.0) < 1e-12
        assert np.all(m.weights >= 0)
        variances = np.diagonal(m.covariances, axis1=1, axis2=2)
        assert np.all(variances >= mdn.VARIANCE_FLOOR)


# -- log density ------------------------------------------------------------

def test_log_density_standard_normal_at_mode():
    m = GaussianMixture([1.0], [[0.0]], [[1.0]])
    assert density_at(m, [0.0]) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)


def test_log_density_identical_components():
    one = GaussianMixture([1.0], [[0.0]], [[1.0]])
    two = GaussianMixture([0.5, 0.5], [[0.0], [0.0]], [[1.0], [1.0]])
    assert density_at(two, [0.3]) == pytest.approx(density_at(one, [0.3]), abs=1e-14)


def test_log_density_matches_direct_sum_oracle():
    rng = np.random.default_rng(3)
    w = rng.dirichlet(np.ones(3))
    means = rng.normal(0, 2, (3, 2))
    covs = np.stack([np.diag(rng.uniform(0.1, 2.0, 2)) for _ in range(3)])
    m = GaussianMixture(w, means, covs)
    for _ in range(50):
        theta = rng.normal(0, 2, 2)
        direct = 0.0
        for j in range(3):
            diff = theta - means[j]
            det = np.linalg.det(covs[j])
            quad = diff @ np.linalg.inv(covs[j]) @ diff
            direct += w[j] * np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))
        assert density_at(m, theta) == pytest.approx(np.log(direct), abs=1e-10)


def test_log_density_component_permutation_invariant():
    rng = np.random.default_rng(4)
    w = rng.dirichlet(np.ones(4))
    means = rng.normal(0, 1, (4, 2))
    covs = np.stack([np.diag(rng.uniform(0.2, 1.0, 2)) for _ in range(4)])
    perm = rng.permutation(4)
    a = GaussianMixture(w, means, covs)
    b = GaussianMixture(w[perm], means[perm], covs[perm])
    theta = rng.normal(size=2)
    assert density_at(a, theta) == pytest.approx(density_at(b, theta), abs=1e-13)


def test_log_density_batch_rejects_wrong_dimension():
    m = GaussianMixture([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [0.5, 0.5]])
    for thetas in ([[0.5]], [[0.5, 0.5, 0.5]], np.zeros((3, 1))):
        with pytest.raises(ContractError):
            log_density_batch(m, thetas)


# -- loss and gradient ------------------------------------------------------

def test_stationary_point_single_pair():
    # K=1, mean bias at theta, zero weights: mean gradient vanishes
    d, s = 2, 6
    head = zero_head(1, d, s)
    theta = np.array([[0.7, -0.2]])
    means = slice(1, 1 + d)  # the mean rows follow the single logit
    head.bias[means] = theta[0]
    fmap = build_rff(KernelConfig("rbf", 1.0, s), 3)
    _, grads, _ = loss_and_gradient(head, fmap, np.array([[0.1, 0.2, 0.3]]), theta)
    np.testing.assert_allclose(grads["bias"][means], 0.0, atol=1e-14)
    np.testing.assert_allclose(grads["weight"][means], 0.0, atol=1e-14)


def test_duplicated_batch_unchanged():
    rng = np.random.default_rng(5)
    s = 10
    fmap = build_rff(KernelConfig("rbf", 1.0, s), 2)
    head = random_head(3, 2, s, rng)
    x = rng.normal(size=(8, 2))
    th = rng.normal(size=(8, 2))
    loss1, g1, _ = loss_and_gradient(head, fmap, x, th)
    loss2, g2, _ = loss_and_gradient(
        head, fmap, np.vstack([x, x]), np.vstack([th, th])
    )
    assert loss1 == pytest.approx(loss2, abs=1e-12)
    for k in g1:
        np.testing.assert_allclose(g1[k], g2[k], atol=1e-12)


def _finite_difference_check(fmap, rng, n_probe=25):
    d_in = fmap.input_dim
    x = rng.normal(size=(16, d_in))
    th = rng.normal(size=(16, 2))
    head = random_head(3, 2, fmap.num_features, rng)
    _, hg, fg = loss_and_gradient(head, fmap, x, th)
    step = 1e-5
    max_rel = 0.0

    def probe(arr, grad):
        nonlocal max_rel
        flat, g = arr.ravel(), grad.ravel()
        for i in rng.choice(flat.size, size=min(n_probe, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + step
            up, _, _ = loss_and_gradient(head, fmap, x, th)
            flat[i] = orig - step
            down, _, _ = loss_and_gradient(head, fmap, x, th)
            flat[i] = orig
            num = (up - down) / (2 * step)
            rel = abs(num - g[i]) / max(abs(num), abs(g[i]), 1e-8)
            max_rel = max(max_rel, rel)

    for k in hg:
        probe(getattr(head, k), hg[k])
    if fg is not None:
        for k in fg:
            probe(getattr(fmap, k), fg[k])
    return max_rel


def test_gradient_matches_finite_differences_rff():
    rng = np.random.default_rng(6)
    fmap = build_rff(KernelConfig("rbf", 1.0, 30), 3)
    assert _finite_difference_check(fmap, rng) < 1e-4


def test_gradient_matches_finite_differences_nn():
    rng = np.random.default_rng(7)
    fmap = init_neural_map(3, 6, 14, rng)
    assert _finite_difference_check(fmap, rng) < 1e-4


@pytest.mark.parametrize("kind", ["rff", "nn"])
def test_loss_values_match_log_density_oracle(kind, monkeypatch):
    # Finite differences cannot see a constant error in the loss (say a
    # dropped log 2 pi); the per-row GaussianMixture density can.
    rng = np.random.default_rng(12)
    if kind == "rff":
        fmap, phi = build_rff(KernelConfig("rbf", 0.8, 16), 3), apply_rff
    else:
        fmap, phi = init_neural_map(3, 5, 16, rng), apply_nn
    head = random_head(3, 2, 16, rng)
    x = rng.normal(size=(30, 3))
    th = rng.normal(size=(30, 2))
    oracle = np.mean([density_at(head_forward(head, phi(fmap, xi)), ti)
                      for xi, ti in zip(x, th)])

    assert -loss_and_gradient(head, fmap, x, th)[0] == pytest.approx(oracle, abs=1e-12)
    assert (np.mean(mdn._row_log_likelihoods(head, fmap, x, th))
            == pytest.approx(oracle, abs=1e-12))

    # CV total with every fold's fit replaced by ``head``: the folds
    # partition the rows, so it is the same mean.
    monkeypatch.setattr(mdn, "_train_stack",
                        lambda cfg, xs, ths, maps: [(head, f, None) for f in maps])
    folds = np.array_split(rng.permutation(30), 3)
    (rungs,) = mdn._halving_rungs([[fmap]], [x], th, folds, TrainerConfig(num_components=3))
    (total,) = rungs[-1][2]
    assert total / 30 == pytest.approx(oracle, abs=1e-12)


def test_empty_batch_rejected():
    fmap = build_rff(KernelConfig("rbf", 1.0, 8), 2)
    head = zero_head(2, 1, 8)
    with pytest.raises(ContractError):
        loss_and_gradient(head, fmap, np.empty((0, 2)), np.empty((0, 1)))


# -- training ---------------------------------------------------------------

def _synthetic_data(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 1))
    th = 2 * x + 0.1 * rng.normal(size=(n, 1))
    return x, th


def test_train_beats_unconditional_baseline():
    x, th = _synthetic_data()
    fmap = build_rff(KernelConfig("rbf", 0.3, 100), 1)
    cfg = TrainerConfig(num_components=2, epochs=200, seed=1)
    head, fmap, _ = train(cfg, x, th, fmap)
    hx, hth = _synthetic_data(500, seed=9)
    model_ld = np.mean(mdn._row_log_likelihoods(head, fmap, hx, hth))
    mu, sd = th.mean(), th.std()
    baseline = np.mean(
        -0.5 * np.log(2 * np.pi * sd ** 2) - (hth - mu) ** 2 / (2 * sd ** 2)
    )
    assert model_ld >= baseline


def test_train_deterministic():
    x, th = _synthetic_data(300)
    cfg = TrainerConfig(num_components=2, epochs=30, seed=11)
    r1 = train(cfg, x, th, build_rff(KernelConfig("rbf", 0.3, 40), 1))
    r2 = train(cfg, x, th, build_rff(KernelConfig("rbf", 0.3, 40), 1))
    for k in ("weight", "bias"):
        np.testing.assert_array_equal(getattr(r1[0], k), getattr(r2[0], k))


def test_train_shuffled_pairs_worse():
    x, th = _synthetic_data()
    cfg = TrainerConfig(num_components=2, epochs=150, seed=2)
    head, fmap, _ = train(cfg, x, th, build_rff(KernelConfig("rbf", 0.3, 100), 1))
    perm = np.random.default_rng(0).permutation(x.shape[0])
    head_s, fmap_s, _ = train(cfg, x[perm], th, build_rff(KernelConfig("rbf", 0.3, 100), 1))
    hx, hth = _synthetic_data(500, seed=10)
    assert (np.mean(mdn._row_log_likelihoods(head_s, fmap_s, hx, hth))
            <= np.mean(mdn._row_log_likelihoods(head, fmap, hx, hth)))


def test_train_rejects_too_few_samples():
    cfg = TrainerConfig(num_components=5)
    with pytest.raises(ConfigurationError):
        train(cfg, np.zeros((20, 1)), np.zeros((20, 1)),
              build_rff(KernelConfig("rbf", 1.0, 8), 1))


def test_validation_loss_trend():
    x, th = _synthetic_data(1000, seed=3)
    cfg = TrainerConfig(num_components=2, epochs=200, seed=3, patience=200)
    _, _, report = train(cfg, x, th, build_rff(KernelConfig("rbf", 0.3, 60), 1))
    n = len(report.val_loss)
    tenth = max(1, n // 10)
    assert np.median(report.val_loss[-tenth:]) <= np.median(report.val_loss[:tenth])


# -- lengthscale selection --------------------------------------------------

def test_select_lengthscale_singleton():
    x, th = _synthetic_data(200)
    cfg = TrainerConfig(num_components=2, epochs=10, seed=0)
    ((got, rungs),) = select_lengthscale([[build_rff(KernelConfig("rbf", 0.7, 20), 1)]], [x],
                                         th, cfg)
    assert got.kernel.lengthscale == 0.7 and rungs == []


def test_select_lengthscale_prefers_data_scale():
    x, th = _synthetic_data(900, seed=4)
    cfg = TrainerConfig(num_components=2, epochs=60, seed=4)
    sigma0 = 0.3
    ((got, _),) = select_lengthscale(
        [[build_rff(KernelConfig("rbf", s, 60), 1) for s in (sigma0 * 1e-3, sigma0, sigma0 * 1e3)]],
        [x], th, cfg,
    )
    assert got.kernel.lengthscale == sigma0


def test_select_lengthscale_tie_breaks_large():
    # identical scores forced by a single fold candidate list duplicate
    x, th = _synthetic_data(200)
    cfg = TrainerConfig(num_components=2, epochs=5, seed=0)
    ((got, _),) = select_lengthscale(
        [[build_rff(KernelConfig("rbf", s, 20), 1) for s in (0.5, 0.5)]], [x], th, cfg,
    )
    assert got.kernel.lengthscale == 0.5


def _forced_cv(monkeypatch, fold_scores):
    """Run select_lengthscale on candidates whose held-out
    log-likelihood sum on fold f is ``fold_scores[lengthscale][f]``, with
    no training. Returns (winner's lengthscale, rungs, stack sizes)."""
    sizes = []

    def stack(cfg, xs, ths, maps):
        sizes.append(len(maps))
        return [(None, m, None) for m in maps]

    def log_likelihoods(head, fmap, xs, ths):
        return np.array([fold_scores[fmap.kernel.lengthscale][len(sizes) - 1]])

    monkeypatch.setattr(mdn, "_train_stack", stack)
    monkeypatch.setattr(mdn, "_row_log_likelihoods", log_likelihoods)
    x, th = _synthetic_data(90)
    ((got, rungs),) = select_lengthscale([[build_rff(KernelConfig("rbf", s, 8), 1)
                                           for s in fold_scores]], [x], th, TrainerConfig())
    return got.kernel.lengthscale, rungs, sizes


@pytest.mark.parametrize("count,sizes", [(5, [5, 2, 2]), (3, [3, 2, 2]), (2, [2, 2, 2])])
def test_halving_stack_sizes(monkeypatch, count, sizes):
    scores = {float(s): [float(s), 0.0, 0.0] for s in range(1, count + 1)}
    _, rungs, got = _forced_cv(monkeypatch, scores)
    assert got == sizes
    assert [r["fold"] for r in rungs] == [0, 1, 2]
    assert [len(r["lengthscales"]) for r in rungs] == sizes


def test_halving_returns_best_survivor_not_flat_winner(monkeypatch):
    # 3.0 wins the flat grid (8 + 100 + 100) but ranks third on fold 0, so
    # it is pruned; of the survivors 1.0 and 2.0, 1.0 has the larger total.
    scores = {1.0: [10.0, 0.0, 0.0], 2.0: [9.0, 0.0, 0.0], 3.0: [8.0, 100.0, 100.0],
              4.0: [0.0, 0.0, 0.0], 5.0: [0.0, 0.0, 0.0]}
    flat = max(scores, key=lambda s: sum(scores[s]))
    got, rungs, _ = _forced_cv(monkeypatch, scores)
    assert flat == 3.0 and got == 1.0
    assert rungs[0] == {"fold": 0, "lengthscales": [1.0, 2.0, 3.0, 4.0, 5.0],
                        "totals": [10.0, 9.0, 8.0, 0.0, 0.0]}
    assert rungs[2] == {"fold": 2, "lengthscales": [1.0, 2.0], "totals": [10.0, 9.0]}


def test_halving_ties_keep_and_pick_the_larger_lengthscale(monkeypatch):
    # 0.5, 1.0 and 2.0 tie on fold 0 for two places: 1.0 and 2.0 go on,
    # tie again on every fold, and 2.0 wins.
    scores = {0.5: [1.0, 0.0, 0.0], 1.0: [1.0, 0.0, 0.0], 2.0: [1.0, 0.0, 0.0],
              4.0: [0.0, 0.0, 0.0], 8.0: [-1.0, 0.0, 0.0]}
    got, rungs, _ = _forced_cv(monkeypatch, scores)
    assert rungs[1]["lengthscales"] == rungs[2]["lengthscales"] == [1.0, 2.0]
    assert got == 2.0


# -- lockstep training ------------------------------------------------------

def _two_param_data(n=240, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 2))
    th = np.c_[2 * x[:, 0], x[:, 1] ** 2] + 0.1 * rng.normal(size=(n, 2))
    return x, th


def _reference_train(cfg, x, th, fmap):
    """One RFF head trained alone by a plain loop with separate arrays,
    scoring validation with ``loss_and_gradient``: what every head of a
    lockstep stack must equal bitwise. Returns ((weight, bias),
    (train_loss, val_loss, best_epoch))."""
    rng = np.random.default_rng(cfg.seed)
    n_val = max(1, int(round(cfg.validation_fraction * len(x))))
    perm = rng.permutation(len(x))
    val, tr = perm[:n_val], perm[n_val:]
    head = mdn.init_head(cfg.num_components, th.shape[1], fmap.num_features,
                         rng, theta_samples=th[tr])
    feats, feats_val = apply_rff(fmap, x[tr]), apply_rff(fmap, x[val])
    adams = {k: mdn._Adam(getattr(head, k).shape, cfg.learning_rate)
             for k in ("weight", "bias")}
    train_loss, val_loss, best = [], [], (np.inf, None, 0)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(tr))
        ep_loss = 0.0
        for start in range(0, len(tr), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads, _ = loss_and_gradient(head, fmap, None, th[tr][idx],
                                               feats=feats[idx])
            for k, g in grads.items():
                adams[k].step(getattr(head, k), g)
            ep_loss += loss * len(idx)
        train_loss.append(ep_loss / len(tr))
        val_loss.append(loss_and_gradient(head, fmap, None, th[val], feats=feats_val)[0])
        if val_loss[-1] < best[0] - 1e-12:
            best = (val_loss[-1], (head.weight.copy(), head.bias.copy()), epoch)
        elif epoch - best[2] >= cfg.patience:
            break
    return best[1], (train_loss, val_loss, best[2])


CANDIDATES = [0.05, 0.2, 0.5, 1.0, 3.0]


def _candidate_map(sigma):
    return build_rff(KernelConfig("rbf", sigma, 24), 2)


@pytest.mark.parametrize("lr,patience", [(0.02, 3), (0.05, 2)])
def test_lockstep_fits_and_cv_equal_separate_fits(lr, patience):
    x, th = _two_param_data()
    cfg = TrainerConfig(num_components=2, learning_rate=lr, batch_size=40,
                        epochs=80, patience=patience, seed=3)
    maps = [_candidate_map(s) for s in CANDIDATES]

    stops = set()
    for fmap, stacked in zip(maps, mdn._train_stack(cfg, [x] * len(maps), th, maps)):
        (weight, bias), ref_report = _reference_train(cfg, x, th, fmap)
        for head, got_map, report in (stacked, train(cfg, x, th, fmap)):
            np.testing.assert_array_equal(head.weight, weight)
            np.testing.assert_array_equal(head.bias, bias)
            assert got_map is fmap
            assert (report.train_loss, report.val_loss, report.best_epoch) == ref_report
        stops.add(len(report.val_loss))
    assert len(stops) > 1 and max(stops) < cfg.epochs  # heads leave at different epochs

    # The flat candidates x folds grid, one head at a time: every rung's
    # running totals must equal its running sums bitwise.
    folds = np.array_split(np.random.default_rng(cfg.seed).permutation(len(x)), 3)
    flat = {}
    for fmap in maps:
        total, running = 0.0, []
        for f, te in enumerate(folds):
            tr = np.concatenate([g for j, g in enumerate(folds) if j != f])
            (weight, bias), _ = _reference_train(cfg, x[tr], th[tr], fmap)
            head = MixtureHeadWeights(weight, bias, cfg.num_components)
            total += float(np.sum(mdn._row_log_likelihoods(head, fmap, x[te], th[te])))
            running.append(total)
        flat[fmap.kernel.lengthscale] = running
    ((got, rungs),) = select_lengthscale([maps], [x], th, cfg)
    assert rungs[0]["lengthscales"] == CANDIDATES
    for rung in rungs:
        assert rung["totals"] == [flat[s][rung["fold"]] for s in rung["lengthscales"]]
    # On this data the flat grid's winner survives to the last rung, so the
    # pick is the flat grid's: the best full 3-fold total, ties toward the
    # larger lengthscale.
    best = max(CANDIDATES, key=lambda s: (flat[s][-1], s))
    assert best in rungs[-1]["lengthscales"]
    assert got.kernel.lengthscale == best


def test_heads_with_their_own_rows_equal_separate_fits():
    # Two heads of one map on x and on a fixed permutation of x (the
    # shuffled-pairs control): each must equal its own fit bitwise.
    x, th = _two_param_data()
    xs = [x, x[np.random.default_rng(5).permutation(len(x))]]
    cfg = TrainerConfig(num_components=2, learning_rate=0.02, batch_size=40,
                        epochs=80, patience=4, seed=3)
    fmap = _candidate_map(0.5)
    fits = mdn._train_stack(cfg, xs, th, [fmap, fmap])
    for xv, (head, got_map, report) in zip(xs, fits):
        alone, _, ref = train(cfg, xv, th, fmap)
        assert _bits(head.weight) == _bits(alone.weight)
        assert _bits(head.bias) == _bits(alone.bias)
        assert got_map is fmap
        assert (report.train_loss, report.val_loss, report.best_epoch) == (
            ref.train_loss, ref.val_loss, ref.best_epoch)
    assert len(fits[0][2].val_loss) != len(fits[1][2].val_loss)  # stop at different epochs

    # Lengthscale CV of both inputs in lockstep picks and scores as each alone.
    cfg = TrainerConfig(num_components=2, learning_rate=0.02, batch_size=40,
                        epochs=15, patience=4, seed=3)
    groups = [[_candidate_map(s) for s in CANDIDATES] for _ in xs]
    picks = select_lengthscale(groups, xs, th, cfg)
    for g, (maps, xv) in enumerate(zip(groups, xs)):
        ((alone, rungs),) = select_lengthscale([maps], [xv], th, cfg)
        assert picks[g][0] is alone and picks[g][1] == rungs
    assert [len(r["lengthscales"]) for r in picks[0][1]] == [5, 2, 2]


def test_stopped_head_leaves_the_stack(monkeypatch):
    x, th = _two_param_data()
    cfg = TrainerConfig(num_components=2, learning_rate=0.02, batch_size=40,
                        epochs=80, patience=3, seed=3)
    snapshots, step = [], mdn._Adam.step

    def spy(self, params, grads):
        assert self.m.shape == self.v.shape == grads.shape == params.shape
        step(self, params, grads)
        snapshots.append(params.copy())

    monkeypatch.setattr(mdn._Adam, "step", spy)
    maps = [_candidate_map(s) for s in CANDIDATES]
    fits = mdn._train_stack(cfg, [x] * len(maps), th, maps)
    epochs = [len(report.val_loss) for _, _, report in fits]
    per_epoch = -(-(len(x) - 24) // cfg.batch_size)  # 24 validation rows
    assert len(set(epochs)) > 1  # heads stop at different epochs

    def live(t):  # the heads still in the stack at Adam step t
        return [c for c, e in enumerate(epochs) if e > t // per_epoch]

    # The loop ends when the last head stops, and each step carries
    # only the heads that have not stopped.
    assert len(snapshots) == max(epochs) * per_epoch < cfg.epochs * per_epoch
    assert [p.shape[0] for p in snapshots] == [len(live(t)) for t in range(len(snapshots))]
    # A head is its row at the last step of its best epoch.
    for c, (head, _, report) in enumerate(fits):
        t = (report.best_epoch + 1) * per_epoch - 1
        row = live(t).index(c)
        weight, bias = mdn._stack_views(snapshots[t][row:row + 1],
                                        [head.weight.shape, head.bias.shape])
        assert _bits(weight[0]) == _bits(head.weight) and _bits(bias[0]) == _bits(head.bias)


def test_nn_validation_loss_equals_loss_at_best_epoch():
    x, th = _two_param_data()
    cfg = TrainerConfig(num_components=2, learning_rate=0.02, batch_size=40,
                        epochs=30, patience=3, seed=3)
    fmap = init_neural_map(2, 6, 24, np.random.default_rng(1))
    head, trained, report = train(cfg, x, th, fmap)
    val = np.random.default_rng(cfg.seed).permutation(len(x))[:24]
    assert report.best_epoch < len(report.val_loss) - 1
    assert (report.val_loss[report.best_epoch]
            == loss_and_gradient(head, trained, x[val], th[val])[0])


def test_diverging_candidate_raises():
    x, th = _two_param_data()
    cfg = TrainerConfig(num_components=2, epochs=5, seed=3)

    def build(sigma):
        fmap = _candidate_map(sigma)
        if sigma == 1.0:
            fmap.frequencies[0, 0] = np.inf  # NaN features, non-finite head
        return fmap

    with pytest.raises(TrainingDivergenceError), np.errstate(invalid="ignore"):
        select_lengthscale([[build(s) for s in (0.5, 1.0, 3.0)]], [x], th, cfg)


# -- bitwise oracle for the component-major kernel --------------------------
#
# The row-major head kernel that trained every shipped model, frozen as it
# was: outputs (..., n, K + 2Kd), reductions over a trailing K or d axis.
# The component-major kernel must give the same bits (K, d < 8).

def _ref_split(k, d, out):
    lead = out.shape[:-1]
    return (out[..., :k], out[..., k:k + k * d].reshape(lead + (k, d)),
            out[..., k + k * d:].reshape(lead + (k, d)))


def _ref_forward_batch(head, feats):
    k, d = head.num_components, head.theta_dim
    logits, mu, z = _ref_split(
        k, d, feats @ head.weight.swapaxes(-1, -2) + head.bias[..., None, :])
    mx = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - mx)
    alpha = e / e.sum(axis=-1, keepdims=True)
    return alpha, mu, melu(z) + mdn.VARIANCE_FLOOR, z


def _ref_logsumexp_rows(m):
    mx = m.max(axis=-1, keepdims=True)
    return mx[..., 0] + np.log(np.sum(np.exp(m - mx), axis=-1))


def _ref_log_joint(theta, alpha, mu, var):
    diff = theta[:, None, :] - mu
    logn = -0.5 * np.sum(np.log(2.0 * np.pi * var) + diff * diff / var, axis=-1)
    return logn + np.log(alpha + 1e-300)


def _ref_loss_and_gradient(head, fmap, x, theta, feats):
    k, d, n = head.num_components, head.theta_dim, theta.shape[0]
    alpha, mu, var, z = _ref_forward_batch(head, feats)
    m = _ref_log_joint(theta, alpha, mu, var)
    logq = _ref_logsumexp_rows(m)
    loss = -np.mean(logq, axis=-1)
    gamma = np.exp(m - logq[..., None])
    d_out = np.empty(m.shape[:-1] + head.bias.shape[-1:])
    d_logits, d_mu, d_z = _ref_split(k, d, d_out)
    d_logits[...] = -(gamma - alpha) / n
    diff = theta[:, None, :] - mu
    d_mu[...] = -(gamma[..., None] * diff / var) / n
    d_var = -(gamma[..., None] * 0.5 * (diff * diff / (var * var) - 1.0 / var)) / n
    d_z[...] = d_var * mdn.melu_grad(z)
    grads = {"weight": d_out.swapaxes(-1, -2) @ feats, "bias": d_out.sum(axis=-2)}
    if not isinstance(fmap, NeuralFeatureMap):
        return loss, grads, None
    h = np.tanh(x @ fmap.w1.T + fmap.b1)
    g2 = (d_out @ head.weight).reshape(feats.shape) * (1.0 - feats * feats)
    g1 = (g2 @ fmap.w2) * (1.0 - h * h)
    return loss, grads, {"w2": g2.T @ h, "b2": g2.sum(axis=0),
                         "w1": g1.T @ x, "b1": g1.sum(axis=0)}


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _oracle_case(k, d, n, c, rng, s=32):
    head = random_head(k, d, s, rng, scale=0.4)
    if c > 1:
        head = MixtureHeadWeights(
            head.weight + rng.normal(0, 0.1, (c,) + head.weight.shape),
            head.bias + rng.normal(0, 0.5, (c,) + head.bias.shape), k)
    x = rng.normal(size=(n, 3))
    th = rng.normal(size=(n, d))
    maps = [build_rff(KernelConfig("rbf", ls, s), 3) for ls in np.geomspace(0.3, 3.0, c)]
    feats = np.stack([apply_rff(m, x) for m in maps]) if c > 1 else apply_rff(maps[0], x)
    return head, maps[0], x, th, feats


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_component_major_kernel_equals_row_major_bitwise(k, d):
    rng = np.random.default_rng(10 * k + d)
    for c in (1, 5):
        for n in (17, 100):
            head, fmap, x, th, feats = _oracle_case(k, d, n, c, rng)
            loss, grads, _ = loss_and_gradient(head, fmap, x, th, feats=feats)
            ref_loss, ref_grads, _ = _ref_loss_and_gradient(head, fmap, x, th, feats)
            assert _bits(loss) == _bits(ref_loss), (c, n)
            for key in ("weight", "bias"):
                assert _bits(grads[key]) == _bits(ref_grads[key]), (c, n, key)
            if c == 1:
                expected = _ref_logsumexp_rows(
                    _ref_log_joint(th, *_ref_forward_batch(head, feats)[:3]))
                assert (_bits(mdn._row_log_likelihoods(head, fmap, x, th))
                        == _bits(expected)), n

        # A tanh map, with its gradients through the forward activations.
        nn = init_neural_map(3, 7, 32, rng)
        head, _, x, th, _ = _oracle_case(k, d, 100, 1, rng)
        got = loss_and_gradient(head, nn, x, th)
        ref = _ref_loss_and_gradient(head, nn, x, th, apply_nn(nn, x))
        assert _bits(got[0]) == _bits(ref[0])
        for part in (1, 2):
            for key in ref[part]:
                assert _bits(got[part][key]) == _bits(ref[part][key]), key


def _ref_log_density_batch(mixture, thetas):
    k, d = mixture.means.shape
    comp = np.empty((thetas.shape[0], k))
    for j in range(k):
        chol = np.linalg.cholesky(mixture.covariances[j])
        y = np.linalg.solve(chol, (thetas - mixture.means[j]).T).T
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        comp[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + logdet + np.sum(y * y, axis=1))
    return _ref_logsumexp_rows(comp + np.log(mixture.weights + 1e-300))


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_log_density_batch_equals_row_major_bitwise(k, d):
    rng = np.random.default_rng(100 + 10 * k + d)
    a = rng.normal(size=(k, d, d))
    covs = a @ a.swapaxes(1, 2) + 0.1 * np.eye(d)
    mixture = GaussianMixture(rng.dirichlet(np.ones(k)), rng.normal(0, 2, (k, d)), covs)
    thetas = rng.normal(0, 3, (257, d))
    assert (_bits(mdn.log_density_batch(mixture, thetas))
            == _bits(_ref_log_density_batch(mixture, thetas)))


def test_adam_in_place_step_equals_textbook_bitwise():
    rng = np.random.default_rng(8)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    params = rng.normal(size=(4, 37))
    adam = mdn._Adam(params.shape, lr)
    ref, m, v = params.copy(), np.zeros(params.shape), np.zeros(params.shape)
    for t in range(1, 51):
        g = rng.normal(size=params.shape) * 10.0 ** rng.integers(-6, 3, params.shape)
        adam.step(params, g)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat, vhat = m / (1 - b1 ** t), v / (1 - b2 ** t)
        ref = ref - lr * mhat / (np.sqrt(vhat) + eps)
        assert _bits(params) == _bits(ref), t
        assert _bits(adam.m) == _bits(m) and _bits(adam.v) == _bits(v), t
