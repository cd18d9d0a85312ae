"""Posterior recovery from the trained conditional density.

With a uniform proposal equal to the prior the head output at the real
observation already is the (unnormalized) posterior; with a Gaussian
proposal the mixture is divided analytically by the proposal Gaussian.
The result is truncated to the prior box and exposed for density
evaluation and ancestral sampling (domain-randomization draws).
"""

from __future__ import annotations

import math
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
from .priors import GaussianPrior, UniformBox

NEG_INF = float("-inf")
MASS_FLOOR = 1e-6  # in-box mass below which a truncated posterior is degenerate
CHUNK_ROWS = (256, 65_536)  # the fewest and most draws of one sampling chunk


@dataclass
class PosteriorEstimate:
    """Gaussian mixture truncated to a box support: a posterior, or a truncated proposal.

    Densities are reported unnormalized: the mixture density inside the
    box and -inf outside it, not divided by the in-box mass that
    :func:`truncate` records in the provenance as ``in_box_mass``.
    :func:`sample` draws exactly from the truncated distribution, by
    rejection against the box.
    """

    mixture: GaussianMixture
    support: UniformBox
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.support, UniformBox):
            raise ConfigurationError("support must be a uniform box")
        if self.support.dim != self.mixture.dim:
            raise ContractError("box dimension does not match mixture")
        if not isinstance(self.provenance, dict):
            raise ContractError("provenance must be a mapping")

    def log_density_batch(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        out = log_density_batch(self.mixture, thetas)
        return np.where(self.support.contains(thetas), out, NEG_INF)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return sample(self, count, seed=int(rng.integers(2 ** 63)))


def divide_by_gaussian(q: GaussianMixture, proposal: GaussianPrior) -> GaussianMixture:
    """Analytic mixture / Gaussian division.

    Every component must be strictly narrower than the proposal, i.e.
    Sigma_k^-1 - Sigma_0^-1 positive definite; otherwise the ratio has no
    normalizable Gaussian form and we raise naming the component.
    Log-weights are combined in log space to dodge determinant overflow;
    the log-determinants come from the Cholesky factors of Sigma_k,
    Sigma_0 and Sigma_k^-1 - Sigma_0^-1.
    """
    if not isinstance(proposal, GaussianPrior):
        raise ConfigurationError("divide_by_gaussian needs a Gaussian proposal")
    mu0 = proposal.mean
    prec0 = np.linalg.inv(proposal.cov)
    # log diag of the factors of Sigma_k and Sigma_0; log det = 2 sum log diag
    log_diag = np.log(np.diagonal(q.chol, axis1=1, axis2=2)) - np.log(np.diag(proposal.chol))
    k = q.num_components
    new_means = np.empty_like(q.means)
    new_covs = np.empty_like(q.covariances)
    log_unnorm = np.empty(k)
    for j, prec_k in enumerate(np.linalg.inv(q.covariances)):
        prec_new = prec_k - prec0
        try:
            chol_new = np.linalg.cholesky(prec_new)
        except np.linalg.LinAlgError:
            raise ComponentWiderThanProposalError(j)
        cov_new = np.linalg.inv(prec_new)
        cov_new = 0.5 * (cov_new + cov_new.T)
        mu_new = cov_new @ (prec_k @ q.means[j] - prec0 @ mu0)
        # log det Sigma_new = -log det (Sigma_k^-1 - Sigma_0^-1)
        lam = (
            2.0 * np.sum(log_diag[j] + np.log(np.diag(chol_new)))
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


def box_mass(mixture: GaussianMixture, box: UniformBox) -> float | None:
    """Exact mixture mass inside ``box``: sum_k alpha_k prod_j P_kj, P_kj
    being the mass of the box's interval along axis j under marginal j of
    component k.

    Defined for diagonal covariances; returns None when any covariance
    has a nonzero off-diagonal entry.
    """
    var = np.diagonal(mixture.covariances, axis1=1, axis2=2)
    if not np.array_equal(mixture.covariances, var[:, :, None] * np.eye(mixture.dim)):
        return None
    return math.fsum(w * math.prod(p) for w, p in _marginal_masses(mixture, box))


def box_mass_bound(mixture: GaussianMixture, box: UniformBox) -> float:
    """An upper bound on the mixture mass inside ``box`` for any
    covariance: sum_k alpha_k min_j P_kj, since the box lies inside each
    of its axis slabs."""
    return math.fsum(w * min(p) for w, p in _marginal_masses(mixture, box))


def _marginal_masses(mixture: GaussianMixture, box: UniformBox):
    """(alpha_k, [P_k1 ... P_kd]) per component: P_kj = Phi(b_kj) -
    Phi(a_kj), with a_kj, b_kj the box edges along axis j standardized by
    component k's mean and marginal standard deviation."""
    sd = np.sqrt(np.diagonal(mixture.covariances, axis1=1, axis2=2))
    lows = ((box.low - mixture.means) / sd).tolist()
    highs = ((box.high - mixture.means) / sd).tolist()
    return [(w, list(map(_normal_interval, lo, hi)))
            for w, lo, hi in zip(mixture.weights.tolist(), lows, highs)]


def _normal_interval(a: float, b: float) -> float:
    """Phi(b) - Phi(a) for a < b, with Phi(x) = erfc(-x / sqrt 2) / 2. An
    interval above zero is mirrored below it, so that upper tails keep
    their precision."""
    if a > 0:
        a, b = -b, -a
    return 0.5 * (math.erfc(-b / math.sqrt(2)) - math.erfc(-a / math.sqrt(2)))


def truncate(
    mixture: GaussianMixture,
    box: UniformBox,
    provenance: dict | None = None,
) -> PosteriorEstimate:
    """Restrict a mixture to a box support.

    Records the exact in-box mass of :func:`box_mass` (None for full
    covariances) in the provenance as ``in_box_mass``; for full
    covariances it also records :func:`box_mass_bound` as
    ``in_box_mass_bound``. Warns that the posterior is degenerate when the
    mass, or the bound, is below ``MASS_FLOOR``.
    """
    est = PosteriorEstimate(mixture=mixture, support=box,
                            provenance=dict(provenance or {}))
    mass = box_mass(mixture, box)
    est.provenance["in_box_mass"] = mass
    if mass is None:
        mass = est.provenance["in_box_mass_bound"] = box_mass_bound(mixture, box)
    if mass < MASS_FLOOR:
        warnings.warn(
            f"mixture mass inside support box is at most {mass:.1e}; posterior is degenerate",
            RuntimeWarning,
        )
    return est


def recover_posterior(
    model,
    x_r: np.ndarray,
    prior: UniformBox,
    proposal: UniformBox | GaussianPrior,
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

    if not isinstance(prior, UniformBox):
        raise ConfigurationError(f"the prior must be a uniform box, got {type(prior).__name__}")
    if isinstance(proposal, GaussianPrior):
        mixture = divide_by_gaussian(mixture, proposal)
    return truncate(mixture, prior, provenance=prov)


def sample(p: PosteriorEstimate, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` rows (count, d) from the posterior, truncated to its
    support box; deterministic for a given seed.

    Ancestral sampling with rejection, in chunks of d x m draws: one
    uniform per column picks the component (zero-weight components are
    never picked), the column of standard normals goes through that
    component's mean and Cholesky factor, and the columns inside the box
    are kept. A chunk holds need / mass * 1.02 columns, clamped to
    ``CHUNK_ROWS``, with the exact in-box mass of :func:`box_mass`, or for
    full covariances the acceptance seen so far. Memory is the output
    plus one chunk.

    Raises DegeneratePosteriorError before any draw when the in-box mass,
    or for full covariances its bound :func:`box_mass_bound`, is below
    ``MASS_FLOOR``. A full covariance whose bound passes but whose mass
    does not raises after one million consecutive rejected draws.
    """
    for name, value in (("count", count), ("seed", seed)):
        if value < 0:
            raise ContractError(f"{name} must be >= 0, got {value}")
    mixture, box = p.mixture, p.support
    mass = box_mass(mixture, box)
    upper = box_mass_bound(mixture, box) if mass is None else mass
    if upper < MASS_FLOOR:
        raise DegeneratePosteriorError(
            f"mixture mass inside support box is at most {upper:.1e}, below {MASS_FLOOR:g}")
    d = mixture.dim
    cum = np.cumsum(mixture.weights)
    cum = cum[:-1] / cum[-1]  # component k holds u in [cum[k-1], cum[k])
    means = mixture.means.T.copy()
    chol = mixture.chol
    scales = chol[:, range(d), range(d)].T.copy()
    factors = [[(i, chol[:, j, i].copy()) for i in range(j) if chol[:, j, i].any()]
               for j in range(d)]
    rng = np.random.default_rng(seed)
    out = np.empty((count, d))
    filled = drawn = accepted = rejected_run = 0
    while filled < count:
        need = count - filled
        rate = mass if mass is not None else (accepted / drawn if drawn else 1.0)
        m = (min(max(math.ceil(need / rate * 1.02), CHUNK_ROWS[0]), CHUNK_ROWS[1])
             if rate else CHUNK_ROWS[1])
        u = rng.random(m)
        labels = np.zeros(m, np.intp)
        for c in cum:
            labels += u >= c
        z = rng.standard_normal((d, m))
        keep = np.ones(m, bool)
        for j in range(d - 1, -1, -1):  # row j reads rows i <= j, still raw
            row = z[j]
            row *= np.take(scales[j], labels)
            for i, f in factors[j]:
                row += np.take(f, labels) * z[i]
            row += np.take(means[j], labels)
            keep &= row >= box.low[j]
            keep &= row <= box.high[j]
        kept = np.compress(keep, z, axis=1)
        n = min(kept.shape[1], need)
        out[filled:filled + n] = kept[:, :n].T
        filled += n
        drawn += m
        accepted += kept.shape[1]
        if mass is None:
            rejected_run = 0 if kept.shape[1] else rejected_run + m
            if rejected_run >= 1_000_000:
                raise DegeneratePosteriorError(
                    "one million consecutive rejections against the support box")
    return out


def log_prob_target(p: PosteriorEstimate, theta_star: np.ndarray) -> float:
    """Mixture log-density at the target parameter, not divided by the
    in-box mass; -inf with a warning when the target sits outside the
    support box."""
    theta = np.asarray(theta_star, dtype=float).reshape(1, -1)
    lp = float(p.log_density_batch(theta)[0])
    if not p.support.contains(theta)[0]:
        warnings.warn("target parameter lies outside the posterior support",
                      RuntimeWarning)
    return lp
