"""Conditional Gaussian-mixture density model on top of a feature map.

The head maps a feature vector to mixture weights (softmax), component
means (linear) and diagonal variances (mELU + floor). Training maximizes
mean log-likelihood of (parameter, statistic) pairs with fully analytic
gradients; RFF frequencies stay frozen while a neural feature map is
trained jointly through its Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, ContractError, TrainingDivergenceError
# Not called here: the benchmark's tracer (perfbench/spans.py) wraps
# these names on this module.
from .features import apply_nn, apply_rff  # noqa: F401

LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GaussianMixture:
    """Finite Gaussian mixture with full (or diagonal-as-full) covariances.

    weights: (K,) on the simplex; means: (K, d); covariances: (K, d, d)
    symmetric positive definite, or (K, d) diagonals. ``chol`` holds the
    lower Cholesky factors of the covariances, (K, d, d), computed once
    by the positive-definiteness check.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.covariances = np.asarray(self.covariances, dtype=float)
        k, d = self.means.shape
        if self.covariances.ndim == 2:  # stack of diagonals
            self.covariances = self.covariances[:, :, None] * np.eye(d)
        if self.weights.shape != (k,) or self.covariances.shape != (k, d, d):
            raise ContractError("inconsistent mixture shapes")
        # The weights are >= 0 and sum to 1 within sqrt(float eps);
        # `posterior.sample` divides their cumulative sum by its total.
        if not (np.all(self.weights >= 0)
                and abs(self.weights.sum() - 1) <= np.sqrt(np.finfo(float).eps)
                and np.isfinite(self.means).all() and np.isfinite(self.covariances).all()):
            raise ContractError(f"mixture weights {self.weights.tolist()} must be >= 0 "
                                "and sum to 1, and means and covariances be finite")
        try:
            self.chol = np.linalg.cholesky(self.covariances)
        except np.linalg.LinAlgError:
            raise ContractError("mixture covariances must be positive definite") from None

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def log_density_batch(mixture: GaussianMixture, thetas: np.ndarray) -> np.ndarray:
    """log sum_k alpha_k N(theta | mu_k, Sigma_k) at each row of
    ``thetas`` (n, d), via log-sum-exp, every component at once from the
    mixture's Cholesky factors."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    d = mixture.dim
    if thetas.shape[1] != d:
        raise ContractError("theta dimension does not match mixture")
    chol = mixture.chol
    diff = (thetas - mixture.means[:, None, :]).swapaxes(1, 2)  # (K, d, n)
    y = np.linalg.solve(chol, diff)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    comp = -0.5 * ((d * LOG_2PI + logdet)[:, None] + np.sum(y * y, axis=1))
    return _logsumexp(comp + np.log(mixture.weights + 1e-300)[:, None])


def _logsumexp(m: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp over the component axis of an (..., K, n)
    array of log terms, e.g. log alpha_k + log N_k for each of n rows.

    The K terms are summed in order. numpy sums a contiguous last axis
    the same way only below 8 values (pairwise from 8 on), so a
    row-major (n, K) layout gives the same bits only for K < 8.
    """
    mx = m.max(axis=-2, keepdims=True)
    return mx[..., 0, :] + np.log(np.sum(np.exp(m - mx), axis=-2))


VARIANCE_FLOOR = 1e-6


def melu(z):
    """Modified ELU used for positive variance outputs:
    e^z for z <= 0, z + 1 for z > 0."""
    z = np.asarray(z, dtype=float)
    return np.where(z > 0, z + 1.0, np.expm1(np.minimum(z, 0.0)) + 1.0)


def melu_grad(z):
    z = np.asarray(z, dtype=float)
    return np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))


@dataclass
class MixtureHeadWeights:
    """Trainable head for K components over d parameters: one affine map
    ``feats @ weight.T + bias`` from s features to K + 2Kd outputs.

    Output rows are laid out as K mixture logits, then the K x d means
    (component-major), then the K x d pre-activation variances; a
    variance is ``melu(z) + VARIANCE_FLOOR``. In training, a leading
    axis stacks C heads that are evaluated together.
    """

    weight: np.ndarray  # (K + 2Kd, s), or (C, K + 2Kd, s) stacked
    bias: np.ndarray    # (K + 2Kd,), or (C, K + 2Kd) stacked
    num_components: int

    def __post_init__(self):
        k, rows = self.num_components, self.bias.shape[-1:]
        if (self.bias.ndim not in (1, 2) or self.weight.shape[:-1] != self.bias.shape
                or not isinstance(k, int) or k < 1 or rows[0] < 3 * k
                or (rows[0] - k) % (2 * k)):
            raise ContractError(f"head rows {rows} are not K + 2Kd for K = {k}")

    @property
    def theta_dim(self) -> int:
        return (self.bias.shape[-1] - self.num_components) // (2 * self.num_components)

    @property
    def feature_dim(self) -> int:
        return self.weight.shape[-1]


def _split(head: MixtureHeadWeights, out: np.ndarray):
    """Views of the logits (..., K, n), means (..., K, d, n) and
    pre-activation variances (..., K, d, n) in an (..., K + 2Kd, n)
    array of head outputs, one column per batch row."""
    lead, n = out.shape[:-2], out.shape[-1]
    k, d = head.num_components, head.theta_dim
    return (out[..., :k, :], out[..., k:k + k * d, :].reshape(lead + (k, d, n)),
            out[..., k + k * d:, :].reshape(lead + (k, d, n)))


def _forward_batch(head: MixtureHeadWeights, feats: np.ndarray):
    """Batched head evaluation of feats (n, s), or (C, n, s) for a stack
    of C heads, component-major: returns (alpha (..., K, n),
    mu (..., K, d, n), var (..., K, d, n), z_sigma (..., K, d, n)).

    The GEMM runs row-major; its output is transposed once, fused with
    the bias add, so that each reduction over K or d adds whole
    contiguous rows of n values instead of striding along a short last
    axis."""
    out = feats @ head.weight.swapaxes(-1, -2)
    cols = out.swapaxes(-1, -2)
    logits, mu, z = _split(head, np.add(cols, head.bias[..., :, None],
                                        out=np.empty(cols.shape)))
    mx = logits.max(axis=-2, keepdims=True)
    e = np.exp(logits - mx)
    alpha = e / e.sum(axis=-2, keepdims=True)
    var = melu(z) + VARIANCE_FLOOR
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(mu))
            and np.all(np.isfinite(var))):
        raise TrainingDivergenceError("non-finite activations in mixture head")
    return alpha, mu, var, z


def head_forward(head: MixtureHeadWeights, feats: np.ndarray) -> GaussianMixture:
    """Evaluate the head at a single feature vector."""
    feats = np.asarray(feats, dtype=float).reshape(-1)
    if head.bias.ndim != 1 or feats.shape[0] != head.feature_dim:
        raise ContractError("feature length does not match head")
    alpha, mu, var, _ = _forward_batch(head, feats[None, :])
    return GaussianMixture(alpha[:, 0], mu[..., 0], var[..., 0])


def _log_joint(theta, alpha, mu, var):
    """log alpha_k + log N(theta | mu_k, diag var_k) per row, (..., K, n),
    and the residuals theta - mu_k, (..., K, d, n)."""
    diff = theta.T - mu
    logn = -0.5 * np.sum(np.log(2.0 * np.pi * var) + diff * diff / var, axis=-2)
    return logn + np.log(alpha + 1e-300), diff


def _row_log_likelihoods(head, feature_map, x, theta) -> np.ndarray:
    """Mixture log-likelihood log q(theta_i | x_i) of each row."""
    feats = feature_map.apply(np.atleast_2d(x))
    alpha, mu, var, _ = _forward_batch(head, feats)
    return _logsumexp(_log_joint(np.atleast_2d(theta), alpha, mu, var)[0])


def _batch_nll(head: MixtureHeadWeights, feats: np.ndarray, theta: np.ndarray):
    """Forward pass only: the mean negative log-likelihood of a batch
    (one per stacked head) and the terms its gradient reuses."""
    alpha, mu, var, z = _forward_batch(head, feats)
    m, diff = _log_joint(theta, alpha, mu, var)
    logq = _logsumexp(m)
    loss = -np.mean(logq, axis=-1)
    if not np.all(np.isfinite(loss)):
        bad = int(np.argmin(np.isfinite(logq).reshape(-1))) % logq.shape[-1]
        raise TrainingDivergenceError(f"non-finite loss at batch index {bad}")
    return loss, (alpha, diff, var, z, m, logq)


def loss_and_gradient(
    head: MixtureHeadWeights,
    feature_map,
    x_batch: np.ndarray,
    theta_batch: np.ndarray,
    feats: np.ndarray | None = None,
):
    """Mean negative log-likelihood and its analytic gradients.

    Returns (loss, head_grads: dict, feature_grads: dict | None). Feature
    gradients, keyed by ``feature_map.trainable``, are produced only for
    a trainable map; ``feats`` may be passed to reuse precomputed
    features of a frozen one. A stack of C heads with feats (C, n, s)
    gives C losses and gradients with a leading C axis.
    """
    theta = np.atleast_2d(np.asarray(theta_batch, dtype=float))
    n = theta.shape[0]
    if n == 0:
        raise ContractError("batch must be non-empty")
    hidden = None
    if feature_map.trainable:
        hidden, feats = feature_map.activations(x_batch)
    elif feats is None:
        feats = np.atleast_2d(feature_map.apply(x_batch))
    loss, (alpha, diff, var, z, m, logq) = _batch_nll(head, feats, theta)

    gamma = np.exp(m - logq[..., None, :])

    # Row-major, as the backward GEMM reads it; written component-major.
    d_out = np.empty(logq.shape + head.bias.shape[-1:])
    d_logits, d_mu, d_z = _split(head, d_out.swapaxes(-1, -2))
    d_logits[...] = -(gamma - alpha) / n
    gamma = gamma[..., None, :]
    d_mu[...] = -(gamma * diff / var) / n
    d_var = -(gamma * 0.5 * (diff * diff / (var * var) - 1.0 / var)) / n
    d_z[...] = d_var * melu_grad(z)
    head_grads = {"weight": d_out.swapaxes(-1, -2) @ feats,
                  "bias": d_out.sum(axis=-2)}

    feature_grads = None
    if hidden is not None:
        feature_grads = feature_map.backprop(x_batch,
                                             (d_out @ head.weight).reshape(feats.shape),
                                             (hidden, feats))
    return (loss if loss.ndim else float(loss)), head_grads, feature_grads


@dataclass(frozen=True)
class TrainerConfig:
    """MDN training hyperparameters (conventional defaults)."""

    num_components: int = 5
    learning_rate: float = 1e-3
    batch_size: int = 100
    epochs: int = 500
    validation_fraction: ClassVar[float] = 0.1
    patience: int = 50
    seed: int = 0


@dataclass
class TrainingReport:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = 0


class _Adam:
    """Adaptive-moment minibatch optimizer updating a parameter array in
    place, through preallocated scratch arrays of the same shape."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shape, lr):
        self.lr = lr
        self.m, self.v = np.zeros(shape), np.zeros(shape)
        self._scratch = np.empty(shape), np.empty(shape)
        self.t = 0

    def step(self, params, grads):
        """params -= lr m^ / (sqrt(v^) + eps), each operation in the
        order of the textbook expression, so the bits are the same."""
        self.t += 1
        m, v, (a, b) = self.m, self.v, self._scratch
        m *= self.b1
        m += np.multiply(grads, 1 - self.b1, out=a)
        v *= self.b2
        np.multiply(grads, 1 - self.b2, out=a)
        v += np.multiply(a, grads, out=a)
        np.divide(m, 1 - self.b1 ** self.t, out=a)
        a *= self.lr
        np.divide(v, 1 - self.b2 ** self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        params -= np.divide(a, b, out=a)

    def keep(self, rows):
        """Keep only ``rows`` (a boolean mask) of the moments and scratch."""
        self.m, self.v = self.m[rows], self.v[rows]
        self._scratch = np.empty(self.m.shape), np.empty(self.m.shape)


_HEAD_KEYS = ("weight", "bias")


def _padded(shape) -> int:
    return -(-math.prod(shape) // 8) * 8


def _stack_views(stack, shapes):
    """One (C, *shape) view per shape into the rows of a (C, P)
    parameter stack, P being the sum of ``_padded(shape)``.

    Each view starts on a multiple of 8 elements: the head's loss ran
    about 20% slower on views that were not 16-byte aligned. The padding
    between views stays zero.
    """
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(stack[:, start:start + size].reshape(stack.shape[:1] + shape))
        start += _padded(shape)
    return views


def init_head(
    num_components: int,
    theta_dim: int,
    feature_dim: int,
    rng: np.random.Generator,
    theta_samples: np.ndarray,
) -> MixtureHeadWeights:
    """Head init: small random weights, mean biases spread over the
    training parameters' quantiles so components do not collapse."""
    k, d, s = num_components, theta_dim, feature_dim
    rows = k + 2 * k * d
    head = MixtureHeadWeights(np.empty((rows, s)), np.zeros(rows), k)
    _, b_mu, b_z = _split(head, head.bias[:, None])
    ts = np.atleast_2d(theta_samples)
    qs = (np.arange(k) + 1.0) / (k + 1.0)
    for j in range(d):
        vals = np.quantile(ts[:, j], qs)
        b_mu[:, j, 0] = rng.permutation(vals)
        spread = max(np.std(ts[:, j]) / max(k, 2), 1e-3)
        b_z[:, j, 0] = _melu_inverse(spread * spread)
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
    """Fit the mixture head (and the feature map, if trainable) by
    minibatch Adam with early stopping on a held-out split.

    Returns (head, feature_map, report); a frozen feature map is returned
    unchanged, a trainable one as a trained copy.
    """
    (fit,) = _train_stack(config, [x_train], theta_train, [feature_map])
    return fit


def _train_stack(config: TrainerConfig, xs, theta_train, feature_maps):
    """Train one head per feature map in lockstep, head c on the input
    rows ``xs[c]``; returns a (head, feature_map, report) triple per map,
    as ``train`` would.

    The heads share the theta rows, the row count, the seed and the
    feature count, so every draw (validation split, head init, epoch
    order) is the same for all of them and one Generator serves the
    whole stack. Every trainable array is a view into one (C, P)
    parameter stack that a single Adam updates in place. A head whose
    patience runs out leaves the stack: its best row is kept for its
    result, and its rows of the parameters, gradients, Adam state and
    features are dropped, so the loop ends when the last head stops. A
    trainable map is trained jointly with its head, so it trains alone.
    """
    xs = [np.atleast_2d(np.asarray(x, dtype=float)) for x in xs]
    theta = np.atleast_2d(np.asarray(theta_train, dtype=float))
    n = theta.shape[0]
    if n < 10 * config.num_components:
        raise ConfigurationError(
            f"need at least {10 * config.num_components} pairs for "
            f"{config.num_components} components, got {n}"
        )
    map_keys = feature_maps[0].trainable
    s = feature_maps[0].num_features
    if ((map_keys and len(feature_maps) > 1) or len(xs) != len(feature_maps)
            or any(x.shape[0] != n for x in xs)
            or any(m.num_features != s for m in feature_maps)):
        raise ContractError("only frozen maps of one feature count, each with "
                            "its own rows of one row count, train in lockstep")
    rng = np.random.default_rng(config.seed)

    n_val = max(1, int(round(config.validation_fraction * n)))
    perm = rng.permutation(n)
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    th_tr, th_val = theta[tr_idx], theta[val_idx]

    init = init_head(config.num_components, theta.shape[1], s, rng,
                     theta_samples=th_tr)
    arrays = ([getattr(init, k) for k in _HEAD_KEYS]
              + [getattr(feature_maps[0], k) for k in map_keys])
    shapes = [a.shape for a in arrays]
    params = np.zeros((len(feature_maps), sum(map(_padded, shapes))))
    for view, a in zip(_stack_views(params, shapes), arrays):
        view[...] = a
    grads = np.zeros_like(params)
    adam = _Adam(params.shape, config.learning_rate)

    weight, bias, *fviews = _stack_views(params, shapes)
    head = MixtureHeadWeights(weight, bias, config.num_components)
    grad_views = _stack_views(grads, shapes)
    # A trainable map trains as views into row 0, on the rows of xs[0].
    fmap = feature_maps[0].with_params([v[0] for v in fviews])
    x_tr, x_val = xs[0][tr_idx], xs[0][val_idx]
    # Frozen features are computed once, each head's from its own rows.
    feats_tr = feats_val = None
    if not map_keys:
        feats_tr = np.stack([m.apply(x[tr_idx]) for m, x in zip(feature_maps, xs)])
        feats_val = np.stack([m.apply(x[val_idx]) for m, x in zip(feature_maps, xs)])

    reports = [TrainingReport() for _ in feature_maps]
    # Per map; ``live`` holds the map of each row still in the stack.
    best, best_loss = params.copy(), np.full(len(feature_maps), np.inf)
    best_epoch = np.zeros(len(feature_maps), dtype=int)
    live = np.arange(len(feature_maps))

    n_tr = x_tr.shape[0]
    for epoch in range(config.epochs):
        # One gather per epoch; minibatches are contiguous slices of it.
        order = rng.permutation(n_tr)
        x_ep, th_ep = x_tr[order], th_tr[order]
        feats_ep = None if feats_tr is None else feats_tr[:, order]
        ep_loss = np.zeros(len(live))
        for start in range(0, n_tr, config.batch_size):
            batch = slice(start, start + config.batch_size)
            th_b = th_ep[batch]
            loss, hg, fg = loss_and_gradient(
                head, fmap, x_ep[batch], th_b,
                feats=None if feats_ep is None else feats_ep[:, batch],
            )
            parts = [hg[k] for k in _HEAD_KEYS] + [fg[k] for k in map_keys]
            for view, g in zip(grad_views, parts):
                view[...] = g
            adam.step(params, grads)
            ep_loss += loss * len(th_b)
        vl, _ = _batch_nll(head, fmap.apply(x_val) if map_keys else feats_val, th_val)
        for c, tl, v in zip(live, ep_loss, vl):
            reports[c].train_loss.append(float(tl / n_tr))
            reports[c].val_loss.append(float(v))
        improved = vl < best_loss[live] - 1e-12
        best[live[improved]], best_loss[live[improved]] = params[improved], vl[improved]
        best_epoch[live[improved]] = epoch
        stopped = ~improved & (epoch - best_epoch[live] >= config.patience)
        if stopped.any():
            keep = ~stopped
            live, params, grads = live[keep], params[keep], grads[keep]
            if not live.size:
                break
            # Only a frozen stack has more than one head.
            adam.keep(keep)
            feats_tr, feats_val = feats_tr[keep], feats_val[keep]
            head = MixtureHeadWeights(*_stack_views(params, shapes), config.num_components)
            grad_views = _stack_views(grads, shapes)

    results = []
    for c, report in enumerate(reports):
        report.best_epoch = int(best_epoch[c])
        weight, bias, *fv = (v[0] for v in _stack_views(best[c:c + 1].copy(), shapes))
        results.append((MixtureHeadWeights(weight, bias, config.num_components),
                        feature_maps[c].with_params(fv), report))
    return results


CV_FOLDS = 3


def select_lengthscale(groups, xs, theta_train: np.ndarray, config: TrainerConfig):
    """Lengthscale choice by successive halving over CV_FOLDS folds, for
    one or more candidate groups in lockstep.

    Group g is a list of candidate RFF maps for the input rows ``xs[g]``;
    every group shares ``theta_train``. The rungs of
    :func:`_halving_rungs` score each group's candidates fold by fold and
    keep its better half after each fold but the last. Returns one
    (map, rungs) per group: the survivor with the highest held-out
    log-likelihood total, exact ties breaking toward the larger
    lengthscale, and one record per rung of the fold, the candidates'
    lengthscales and their running totals. A group of a single candidate
    gets it back without CV and with no rungs.

    A head's fit does not depend on the other heads of its stack, so a
    survivor's total is bitwise its total under its group's flat
    candidates x folds grid, whatever the other groups hold. The pick is
    the flat grid's whenever its winner ranks in the top two on fold 0.
    It differs in one way: a candidate pruned after fold 0 never trains
    on the later folds, so its divergence there raises nothing, while a
    divergence on fold 0 still raises TrainingDivergenceError, for every
    group of the stack it trains in.
    """
    if not all(groups):
        raise ConfigurationError("need at least one lengthscale candidate")
    picks = [(maps[0], []) for maps in groups]
    cv = [g for g, maps in enumerate(groups) if len(maps) > 1]
    if not cv:
        return picks
    theta = np.atleast_2d(np.asarray(theta_train, dtype=float))
    idx = np.random.default_rng(config.seed).permutation(theta.shape[0])
    scored = _halving_rungs([groups[g] for g in cv],
                            [np.atleast_2d(np.asarray(xs[g], dtype=float)) for g in cv],
                            theta, np.array_split(idx, CV_FOLDS), config)
    for g, rungs in zip(cv, scored):
        _, maps, totals = rungs[-1]
        picks[g] = (max(zip(totals, maps), key=_rank)[1],
                    [{"fold": f, "lengthscales": [m.kernel.lengthscale for m in ms],
                      "totals": ts} for f, ms, ts in rungs])
    return picks


def _rank(scored) -> tuple:
    """Order of a (total, map) pair in pruning and in the final pick:
    higher held-out total first, exact ties toward the larger lengthscale."""
    total, fmap = scored
    return total, fmap.kernel.lengthscale


def _prune(maps, totals):
    """The best max(2, len(maps) // 2) of the maps by total, ties toward
    the larger lengthscale, with their totals, in candidate order."""
    if len(maps) <= 2:  # nothing to prune
        return maps, totals
    ranked = sorted(range(len(maps)), reverse=True,
                    key=lambda c: _rank((totals[c], maps[c])))
    keep = sorted(ranked[:max(2, len(maps) // 2)])
    return [maps[c] for c in keep], [totals[c] for c in keep]


def _halving_rungs(groups, xs, theta, fold_ids, config) -> list:
    """Successive halving with fold f as rung f. Each rung trains the
    surviving maps of every group in one lockstep stack on the other
    folds, group g on its rows ``xs[g]``, and adds each survivor's
    held-out log-likelihood sum on fold f to its running total; after
    every rung but the last, each group keeps its best
    max(2, survivors // 2) by total. Returns, per group, one
    (fold, maps, totals) triple per rung, maps in candidate order."""
    alive = [(list(maps), [0.0] * len(maps)) for maps in groups]
    rungs = [[] for _ in groups]
    for f, te in enumerate(fold_ids):
        if f:
            alive = [_prune(maps, totals) for maps, totals in alive]
        tr = np.concatenate([g for j, g in enumerate(fold_ids) if j != f])
        x_tr = [x[tr] for x in xs]
        fits = iter(_train_stack(config, [x for x, (maps, _) in zip(x_tr, alive) for _ in maps],
                                 theta[tr], [m for maps, _ in alive for m in maps]))
        # zip takes a total first, so each group takes only its own fits.
        alive = [(maps, [total + float(np.sum(_row_log_likelihoods(head, fmap, x[te], theta[te])))
                         for total, (head, fmap, _) in zip(totals, fits)])
                 for x, (maps, totals) in zip(xs, alive)]
        for rung, (maps, totals) in zip(rungs, alive):
            rung.append((f, maps, totals))
    return rungs
