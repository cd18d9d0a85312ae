"""Posterior recovery from the trained conditional density.

With a uniform proposal equal to the prior the head output at the real
observation already is the (unnormalized) posterior; with a Gaussian
proposal the mixture is divided analytically by the proposal Gaussian.
The result is truncated to the prior box and exposed for density
evaluation and ancestral sampling (domain-randomization draws).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComponentWiderThanProposalError,
    ConfigurationError,
    ContractError,
    DegeneratePosteriorError,
)
from .mdn import GaussianMixture, log_density_batch
from .priors import GAUSSIAN, UNIFORM_BOX, PriorSpec

NEG_INF = float("-inf")
MASS_CHECK_SAMPLES = 10000  # draws behind truncate's in-box mass estimate


@dataclass
class PosteriorEstimate:
    """Gaussian mixture, optionally truncated to a box support.

    Densities of truncated posteriors are reported unnormalized (exact up
    to the box constant); sampling is exact via rejection.
    """

    mixture: GaussianMixture
    support: PriorSpec | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.support is not None and self.support.kind != UNIFORM_BOX:
            raise ConfigurationError("support must be a uniform box")
        if self.support is not None and self.support.dim != self.mixture.dim:
            raise ContractError("box dimension does not match mixture")
        if not isinstance(self.provenance, dict):
            raise ContractError("provenance must be a mapping")

    def log_density_batch(self, thetas) -> np.ndarray:
        out = log_density_batch(self.mixture, thetas)
        if self.support is not None:
            inside = _inside(self.support, np.atleast_2d(np.asarray(thetas, float)))
            out = np.where(inside, out, NEG_INF)
        return out


def _inside(box: PriorSpec, t: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``t`` (n, d) that lie in the closed ``box``."""
    return np.all((t >= box.low) & (t <= box.high), axis=1)


def divide_by_gaussian(q: GaussianMixture, proposal: PriorSpec) -> GaussianMixture:
    """Analytic mixture / Gaussian division.

    Every component must be strictly narrower than the proposal, i.e.
    Sigma_k^-1 - Sigma_0^-1 positive definite; otherwise the ratio has no
    normalizable Gaussian form and we raise naming the component.
    Log-weights are combined in log space to dodge determinant overflow.
    """
    if proposal.kind != GAUSSIAN:
        raise ConfigurationError("divide_by_gaussian needs a Gaussian proposal")
    mu0, cov0 = proposal.mean, proposal.cov
    prec0 = np.linalg.inv(cov0)
    k, d = q.means.shape
    new_means = np.empty_like(q.means)
    new_covs = np.empty_like(q.covariances)
    log_unnorm = np.empty(k)
    logdet0 = _logdet(cov0)
    for j in range(k):
        prec_k = np.linalg.inv(q.covariances[j])
        prec_new = prec_k - prec0
        try:
            np.linalg.cholesky(prec_new)
        except np.linalg.LinAlgError:
            raise ComponentWiderThanProposalError(j)
        cov_new = np.linalg.inv(prec_new)
        cov_new = 0.5 * (cov_new + cov_new.T)
        mu_new = cov_new @ (prec_k @ q.means[j] - prec0 @ mu0)
        lam = (
            _logdet(q.covariances[j]) - logdet0 - _logdet(cov_new)
            + q.means[j] @ prec_k @ q.means[j]
            - mu0 @ prec0 @ mu0
            - mu_new @ prec_new @ mu_new
        )
        new_means[j] = mu_new
        new_covs[j] = cov_new
        log_unnorm[j] = np.log(q.weights[j] + 1e-300) - 0.5 * lam
    mx = log_unnorm.max()
    w = np.exp(log_unnorm - mx)
    return GaussianMixture(w / w.sum(), new_means, new_covs)


def _logdet(mat: np.ndarray) -> float:
    chol = np.linalg.cholesky(mat)
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def truncate(
    mixture: GaussianMixture,
    box: PriorSpec,
    provenance: dict | None = None,
) -> PosteriorEstimate:
    """Restrict a mixture to a box support.

    Emits a degenerate-posterior warning when the estimated mixture mass
    inside the box falls below 1e-6.
    """
    est = PosteriorEstimate(mixture=mixture, support=box,
                            provenance=provenance or {})
    draws = _sample_mixture(mixture, MASS_CHECK_SAMPLES, np.random.default_rng(0))
    frac = _inside(box, draws).mean()
    if frac < 1e-6:
        warnings.warn(
            f"mixture mass inside support box ~{frac:.1e}; posterior is degenerate",
            RuntimeWarning,
        )
    return est


def recover_posterior(
    model,
    x_r: np.ndarray,
    prior: PriorSpec,
    proposal: PriorSpec,
    provenance: dict | None = None,
) -> PosteriorEstimate:
    """Turn the conditional density at the real observation into the
    posterior estimate, correcting for the proposal prior.

    ``model`` must expose ``predict_mixture(x) -> GaussianMixture`` in
    parameter units (see :class:`simcal.harness.FittedModel`).
    """
    mixture = model.predict_mixture(np.asarray(x_r, dtype=float))
    prov = dict(provenance or {})
    prov.setdefault("x_r", np.asarray(x_r, float).tolist())

    if prior.kind != UNIFORM_BOX:
        raise ConfigurationError(f"the prior must be a uniform box, got {prior.kind!r}")
    if proposal.kind == GAUSSIAN:
        mixture = divide_by_gaussian(mixture, proposal)
    return truncate(mixture, prior, provenance=prov)


def _sample_mixture(
    mixture: GaussianMixture, count: int, rng: np.random.Generator
) -> np.ndarray:
    comps = rng.choice(mixture.num_components, size=count, p=mixture.weights)
    out = np.empty((count, mixture.dim))
    for j in range(mixture.num_components):
        mask = comps == j
        n = int(mask.sum())
        if n == 0:
            continue
        chol = np.linalg.cholesky(mixture.covariances[j])
        out[mask] = mixture.means[j] + rng.standard_normal((n, mixture.dim)) @ chol.T
    return out


def sample(p: PosteriorEstimate, count: int, seed: int) -> np.ndarray:
    """Ancestral sampling (categorical over weights, then the chosen
    Gaussian) with rejection against the support box; deterministic for a
    given seed."""
    for name, value in (("count", count), ("seed", seed)):
        if value < 0:
            raise ContractError(f"{name} must be >= 0, got {value}")
    rng = np.random.default_rng(seed)
    out = np.empty((count, p.mixture.dim))
    filled = 0
    consecutive_rejects = 0
    while filled < count:
        batch = max(count - filled, 256)
        draws = _sample_mixture(p.mixture, batch, rng)
        accepted = draws if p.support is None else draws[_inside(p.support, draws)]
        if accepted.shape[0] == 0:
            consecutive_rejects += batch
            if consecutive_rejects >= 1_000_000:
                raise DegeneratePosteriorError(
                    "one million consecutive rejections against the support box"
                )
            continue
        consecutive_rejects = 0
        take = min(accepted.shape[0], count - filled)
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out


def log_prob_target(p: PosteriorEstimate, theta_star: np.ndarray) -> float:
    """Untruncated mixture log-density at the target parameter; -inf with
    a warning when the target sits outside the support box."""
    theta = np.asarray(theta_star, dtype=float).reshape(1, -1)
    if p.support is not None and not _inside(p.support, theta)[0]:
        warnings.warn("target parameter lies outside the posterior support",
                      RuntimeWarning)
        return NEG_INF
    return float(log_density_batch(p.mixture, theta)[0])
