"""Conditional Gaussian-mixture density model on top of a feature map.

The head maps a feature vector to mixture weights (softmax), component
means (linear) and diagonal variances (mELU + floor). Training maximizes
mean log-likelihood of (parameter, statistic) pairs with fully analytic
gradients; RFF frequencies stay frozen while a neural feature map is
trained jointly through its Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, TrainingDivergenceError
from .features import (
    NeuralFeatureMap,
    RFFMap,
    apply_nn,
    apply_rff,
    nn_backprop,
)

LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GaussianMixture:
    """Finite Gaussian mixture with full (or diagonal-as-full) covariances.

    weights: (K,) on the simplex; means: (K, d); covariances: (K, d, d)
    symmetric positive definite.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.covariances = np.asarray(self.covariances, dtype=float)
        if self.covariances.ndim == 2:  # stack of diagonals
            self.covariances = np.stack([np.diag(v) for v in self.covariances])
        k, d = self.means.shape
        if self.weights.shape != (k,) or self.covariances.shape != (k, d, d):
            raise ContractError("inconsistent mixture shapes")

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def log_density(mixture: GaussianMixture, theta: np.ndarray) -> float:
    """log sum_k alpha_k N(theta | mu_k, Sigma_k), via log-sum-exp."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != mixture.dim:
        raise ContractError("theta dimension does not match mixture")
    return float(log_density_batch(mixture, theta[None, :])[0])


def log_density_batch(mixture: GaussianMixture, thetas: np.ndarray) -> np.ndarray:
    """Vectorized mixture log-density over rows of ``thetas`` (n, d)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    k, d = mixture.means.shape
    comp = np.empty((thetas.shape[0], k))
    for j in range(k):
        chol = np.linalg.cholesky(mixture.covariances[j])
        diff = thetas - mixture.means[j]
        y = np.linalg.solve(chol, diff.T).T
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        comp[:, j] = -0.5 * (d * LOG_2PI + logdet + np.sum(y * y, axis=1))
    return _logsumexp_rows(comp + np.log(mixture.weights + 1e-300))


def _logsumexp_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise max-shifted log-sum-exp of an (n, K) array of log terms,
    e.g. log alpha_k + log N_k per row of a mixture."""
    mx = m.max(axis=1, keepdims=True)
    return mx[:, 0] + np.log(np.sum(np.exp(m - mx), axis=1))


VARIANCE_FLOOR = 1e-6


def melu(z):
    """Modified ELU used for positive variance outputs:
    e^z for z <= 0, z + 1 for z > 0."""
    z = np.asarray(z, dtype=float)
    out = np.where(z > 0, z + 1.0, np.expm1(np.minimum(z, 0.0)) + 1.0)
    return out if out.ndim else float(out)


def melu_grad(z):
    z = np.asarray(z, dtype=float)
    return np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))


@dataclass
class MixtureHeadWeights:
    """Trainable head for K components over d parameters: one affine map
    ``feats @ weight.T + bias`` from s features to K + 2Kd outputs.

    Output rows are laid out as K mixture logits, then the K x d means
    (component-major), then the K x d pre-activation variances; a
    variance is ``melu(z) + VARIANCE_FLOOR``.
    """

    weight: np.ndarray  # (K + 2Kd, s)
    bias: np.ndarray    # (K + 2Kd,)
    num_components: int

    def __post_init__(self):
        k, rows = self.num_components, self.weight.shape[:1]
        if (self.weight.ndim != 2 or self.bias.shape != rows or k < 1
                or rows[0] < 3 * k or (rows[0] - k) % (2 * k)):
            raise ContractError(f"head rows {rows} are not K + 2Kd for K = {k}")

    @property
    def theta_dim(self) -> int:
        return (self.bias.shape[0] - self.num_components) // (2 * self.num_components)

    @property
    def feature_dim(self) -> int:
        return self.weight.shape[1]


def _split(head: MixtureHeadWeights, out: np.ndarray):
    """Views of the logits (n, K), means (n, K, d) and pre-activation
    variances (n, K, d) in an (n, K + 2Kd) array of head outputs."""
    n, k, d = out.shape[0], head.num_components, head.theta_dim
    return (out[:, :k], out[:, k:k + k * d].reshape(n, k, d),
            out[:, k + k * d:].reshape(n, k, d))


def _forward_batch(head: MixtureHeadWeights, feats: np.ndarray):
    """Batched head evaluation. Returns (alpha (n,K), mu (n,K,d),
    var (n,K,d), z_sigma (n,K,d))."""
    logits, mu, z = _split(head, feats @ head.weight.T + head.bias)
    mx = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - mx)
    alpha = e / e.sum(axis=1, keepdims=True)
    var = melu(z) + VARIANCE_FLOOR
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(mu))
            and np.all(np.isfinite(var))):
        raise TrainingDivergenceError("non-finite activations in mixture head")
    return alpha, mu, var, z


def head_forward(head: MixtureHeadWeights, feats: np.ndarray) -> GaussianMixture:
    """Evaluate the head at a single feature vector."""
    feats = np.asarray(feats, dtype=float).reshape(-1)
    if feats.shape[0] != head.feature_dim:
        raise ContractError("feature length does not match head")
    alpha, mu, var, _ = _forward_batch(head, feats[None, :])
    return GaussianMixture(alpha[0], mu[0], var[0])


def _log_joint(theta, alpha, mu, var):
    """log alpha_k + log N(theta | mu_k, diag var_k) per row, (n, K)."""
    diff = theta[:, None, :] - mu
    logn = -0.5 * np.sum(np.log(2.0 * np.pi * var) + diff * diff / var, axis=2)
    return logn + np.log(alpha + 1e-300)


def _row_log_likelihoods(head, feature_map, x, theta) -> np.ndarray:
    """Mixture log-likelihood log q(theta_i | x_i) of each row."""
    feats = _apply_map(feature_map, np.atleast_2d(x))
    alpha, mu, var, _ = _forward_batch(head, feats)
    return _logsumexp_rows(_log_joint(np.atleast_2d(theta), alpha, mu, var))


def loss_and_gradient(
    head: MixtureHeadWeights,
    feature_map,
    x_batch: np.ndarray,
    theta_batch: np.ndarray,
    feats: np.ndarray | None = None,
):
    """Mean negative log-likelihood and its analytic gradients.

    Returns (loss, head_grads: dict, feature_grads: dict | None). Feature
    gradients are produced only for a :class:`NeuralFeatureMap`; RFF maps
    are frozen. ``feats`` may be passed to reuse precomputed features.
    """
    theta = np.atleast_2d(np.asarray(theta_batch, dtype=float))
    n = theta.shape[0]
    if n == 0:
        raise ContractError("batch must be non-empty")
    if feats is None:
        feats = _apply_map(feature_map, x_batch)
    alpha, mu, var, z = _forward_batch(head, feats)

    m = _log_joint(theta, alpha, mu, var)
    logq = _logsumexp_rows(m)
    loss = -float(np.mean(logq))
    if not np.isfinite(loss):
        bad = int(np.argmin(np.isfinite(logq)))
        raise TrainingDivergenceError(f"non-finite loss at batch index {bad}")

    gamma = np.exp(m - logq[:, None])

    d_out = np.empty((n, head.bias.shape[0]))
    d_logits, d_mu, d_z = _split(head, d_out)
    d_logits[...] = -(gamma - alpha) / n
    diff = theta[:, None, :] - mu
    d_mu[...] = -(gamma[:, :, None] * diff / var) / n
    d_var = -(gamma[:, :, None] * 0.5 * (diff * diff / (var * var) - 1.0 / var)) / n
    d_z[...] = d_var * melu_grad(z)
    head_grads = {"weight": d_out.T @ feats, "bias": d_out.sum(axis=0)}

    feature_grads = None
    if isinstance(feature_map, NeuralFeatureMap):
        feature_grads = nn_backprop(feature_map, x_batch, d_out @ head.weight)
    return loss, head_grads, feature_grads


def _apply_map(feature_map, x):
    if isinstance(feature_map, NeuralFeatureMap):
        return np.atleast_2d(apply_nn(feature_map, x))
    if isinstance(feature_map, RFFMap):
        return np.atleast_2d(apply_rff(feature_map, x))
    raise ConfigurationError(f"unsupported feature map {type(feature_map).__name__}")


@dataclass(frozen=True)
class TrainerConfig:
    """MDN training hyperparameters (conventional defaults, recorded in
    every training report)."""

    num_components: int = 5
    learning_rate: float = 1e-3
    batch_size: int = 100
    epochs: int = 500
    validation_fraction: float = 0.1
    patience: int = 50
    seed: int = 0


@dataclass
class TrainingReport:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = 0
    config: TrainerConfig | None = None


class _Adam:
    """Adaptive-moment minibatch optimizer updating a flat parameter
    vector in place."""

    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grads
        self.v = self.b2 * self.v + (1 - self.b2) * grads * grads
        mhat = self.m / (1 - self.b1 ** self.t)
        vhat = self.v / (1 - self.b2 ** self.t)
        params -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


_HEAD_KEYS = ("weight", "bias")
_NN_KEYS = ("w1", "b1", "w2", "b2")


def _flat_views(arrays):
    """Copy ``arrays`` into one flat vector; return it with a view into
    it shaped like each array.

    Each view starts on a multiple of 8 elements: the head's loss ran
    about 20% slower on views that were not 16-byte aligned. The padding
    between views stays zero.
    """
    sizes = [-(-a.size // 8) * 8 for a in arrays]
    flat = np.zeros(sum(sizes))
    views, start = [], 0
    for a, size in zip(arrays, sizes):
        view = flat[start:start + a.size].reshape(a.shape)
        view[...] = a
        views.append(view)
        start += size
    return flat, views


def init_head(
    num_components: int,
    theta_dim: int,
    feature_dim: int,
    rng: np.random.Generator,
    theta_samples: np.ndarray | None = None,
) -> MixtureHeadWeights:
    """Head init: small random weights, mean biases spread over the
    training parameters' quantiles so components do not collapse."""
    k, d, s = num_components, theta_dim, feature_dim
    rows = k + 2 * k * d
    head = MixtureHeadWeights(np.empty((rows, s)), np.zeros(rows), k)
    if theta_samples is not None:
        _, b_mu, b_z = _split(head, head.bias[None, :])
        ts = np.atleast_2d(theta_samples)
        qs = (np.arange(k) + 1.0) / (k + 1.0)
        for j in range(d):
            vals = np.quantile(ts[:, j], qs)
            b_mu[0, :, j] = rng.permutation(vals)
            spread = max(np.std(ts[:, j]) / max(k, 2), 1e-3)
            b_z[0, :, j] = _melu_inverse(spread * spread)
    head.weight[...] = rng.normal(0, 1.0 / np.sqrt(s), (rows, s))
    return head


def _melu_inverse(target: float) -> float:
    """z with melu(z) = target, for target > 0."""
    if target > 1.0:
        return target - 1.0
    t = max(target, 1e-9)
    # log((t - 1) + 1), not log(t): the two differ in the last bit, and
    # this form is the one every trained model was initialized with.
    return float(np.log((t - 1.0) + 1.0))


def train(
    config: TrainerConfig,
    x_train: np.ndarray,
    theta_train: np.ndarray,
    feature_map,
):
    """Fit the mixture head (and a neural feature map, if given) by
    minibatch Adam with early stopping on a held-out split.

    Returns (head, feature_map, report); the feature map is returned
    unchanged for RFF, and as a trained copy for the neural family.
    Every trainable array is a view into one flat vector that Adam
    updates in place.
    """
    x = np.atleast_2d(np.asarray(x_train, dtype=float))
    theta = np.atleast_2d(np.asarray(theta_train, dtype=float))
    n = x.shape[0]
    if n < 10 * config.num_components:
        raise ConfigurationError(
            f"need at least {10 * config.num_components} pairs for "
            f"{config.num_components} components, got {n}"
        )
    rng = np.random.default_rng(config.seed)

    n_val = max(1, int(round(config.validation_fraction * n)))
    perm = rng.permutation(n)
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    x_tr, th_tr = x[tr_idx], theta[tr_idx]
    x_val, th_val = x[val_idx], theta[val_idx]

    train_nn = isinstance(feature_map, NeuralFeatureMap)
    head = init_head(
        config.num_components, theta.shape[1],
        feature_map.num_features, rng, theta_samples=th_tr,
    )

    nn_keys = _NN_KEYS if train_nn else ()
    arrays = ([getattr(head, k) for k in _HEAD_KEYS]
              + [getattr(feature_map, k) for k in nn_keys])
    params, views = _flat_views(arrays)
    grads, grad_views = _flat_views(arrays)
    for k, v in zip(_HEAD_KEYS, views):
        setattr(head, k, v)
    if train_nn:
        feature_map = NeuralFeatureMap(*views[len(_HEAD_KEYS):])
    adam = _Adam(params.size, config.learning_rate)

    # RFF features are frozen, so precompute them once.
    feats_tr = None if train_nn else _apply_map(feature_map, x_tr)
    feats_val = None if train_nn else _apply_map(feature_map, x_val)

    def eval_loss(xs, ths, feats):
        if feats is None:
            feats = _apply_map(feature_map, xs)
        loss, _, _ = loss_and_gradient(head, feature_map, xs, ths, feats=feats)
        return loss

    report = TrainingReport(config=config)
    best = (np.inf, params.copy(), 0)
    n_tr = x_tr.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n_tr)
        ep_loss = 0.0
        for start in range(0, n_tr, config.batch_size):
            idx = order[start:start + config.batch_size]
            feats_b = None if feats_tr is None else feats_tr[idx]
            loss, hg, fg = loss_and_gradient(
                head, feature_map, x_tr[idx], th_tr[idx], feats=feats_b
            )
            parts = [hg[k] for k in _HEAD_KEYS] + [fg[k] for k in nn_keys]
            for view, g in zip(grad_views, parts):
                view[...] = g
            adam.step(params, grads)
            ep_loss += loss * len(idx)
        report.train_loss.append(ep_loss / n_tr)
        vl = eval_loss(x_val, th_val, feats_val)
        report.val_loss.append(vl)
        if vl < best[0] - 1e-12:
            best = (vl, params.copy(), epoch)
        elif epoch - best[2] >= config.patience:
            break
    params[...] = best[1]
    report.best_epoch = best[2]
    return head, feature_map, report


def select_lengthscale(
    candidates,
    x_train: np.ndarray,
    theta_train: np.ndarray,
    build_map,
    config: TrainerConfig,
    folds: int = 3,
):
    """k-fold cross-validated lengthscale choice.

    ``build_map(sigma)`` constructs the feature map for a candidate; it
    is built once and shared by that candidate's folds (``train`` does
    not modify it). Returns the candidate maximizing mean held-out
    log-density; exact ties break toward the larger lengthscale.
    """
    cands = list(candidates)
    if not cands:
        raise ConfigurationError("need at least one lengthscale candidate")
    if len(cands) == 1:
        return cands[0]
    x = np.atleast_2d(np.asarray(x_train, dtype=float))
    theta = np.atleast_2d(np.asarray(theta_train, dtype=float))
    n = x.shape[0]
    idx = np.random.default_rng(config.seed).permutation(n)
    fold_ids = np.array_split(idx, folds)

    scores = [_cv_score(build_map(sigma), x, theta, fold_ids, config)
              for sigma in cands]
    best_score = max(scores)
    best = max(c for c, sc in zip(cands, scores) if sc == best_score)
    return best


def _cv_score(feature_map, x, theta, fold_ids, config) -> float:
    """Mean held-out log-likelihood, each fold scored by a head trained
    on the other folds."""
    total = 0.0
    for f, te in enumerate(fold_ids):
        tr = np.concatenate([g for j, g in enumerate(fold_ids) if j != f])
        head, trained, _ = train(config, x[tr], theta[tr], feature_map)
        total += float(np.sum(
            _row_log_likelihoods(head, trained, x[te], theta[te])))
    return total / x.shape[0]


def held_out_log_density(head, feature_map, x, theta) -> float:
    """Mean conditional log-density of (theta, x) pairs under the model."""
    return float(np.mean(_row_log_likelihoods(head, feature_map, x, theta)))
