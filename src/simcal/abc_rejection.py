"""Rejection-ABC baseline over standardized summary statistics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .mdn import GaussianMixture, log_density_batch
from .posterior import PosteriorEstimate
from .priors import UniformBox


@dataclass(frozen=True)
class AbcConfig:
    """epsilon is a Euclidean radius in standardized-statistic space."""

    epsilon: float
    max_simulations: int

    def __post_init__(self):
        if not self.epsilon >= 0:  # also True for NaN
            raise ConfigurationError("epsilon must be >= 0")
        if self.max_simulations < 1:
            raise ConfigurationError("max_simulations must be >= 1")


@dataclass
class AbcResult:
    accepted: np.ndarray        # (n_acc, d_theta)
    acceptance_rate: float
    distances: np.ndarray       # all simulated distances, for diagnostics
    thetas: np.ndarray          # all proposal draws, aligned with distances


def rejection_abc(
    simulate_stats,
    proposal: UniformBox | PosteriorEstimate,
    x_r: np.ndarray,
    cfg: AbcConfig,
    seed,
) -> AbcResult:
    """Draw parameters from the proposal, simulate, accept within the
    epsilon-sphere around the real observation.

    ``simulate_stats(thetas (n, d), seeds (n,)) -> (n, stat_dim)``
    standardized statistics simulates every draw in one batched call; it
    must run the same simulator/statistics pipeline used for the density
    model, so distances are comparable. ``seed`` seeds ``default_rng``.
    """
    x_r = np.asarray(x_r, dtype=float).reshape(-1)
    rng = np.random.default_rng(seed)
    thetas = proposal.sample(rng, cfg.max_simulations)
    seeds = rng.integers(2 ** 31, size=cfg.max_simulations)
    x = np.asarray(simulate_stats(thetas, seeds), dtype=float)
    distances = np.linalg.norm(x - x_r, axis=1)
    mask = distances < cfg.epsilon
    accepted = thetas[mask]
    rate = float(mask.mean())
    if accepted.shape[0] == 0:
        warnings.warn(
            "rejection ABC accepted no samples; the posterior estimate is empty",
            RuntimeWarning,
        )
    return AbcResult(accepted=accepted, acceptance_rate=rate,
                     distances=distances, thetas=thetas)


def epsilon_for_acceptance(distances, target_rate: float = 0.02) -> float:
    """Distance quantile yielding approximately the target acceptance
    rate; used to set epsilon per benchmark."""
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        raise ContractError("need at least one distance")
    return float(np.quantile(d, target_rate))


BANDWIDTH_FLOOR = 1e-8


def abc_log_prob(accepted: np.ndarray, theta_star: np.ndarray) -> float:
    """Gaussian kernel-density estimate over the accepted set, evaluated
    in log at the target: the density of the equal-weight mixture with
    one component N(sample, diag h^2) per accepted sample.

    Bandwidths h follow the deviation-based (Silverman) rule per
    dimension, floored so a point-mass set still yields a finite density.
    """
    samples = np.atleast_2d(np.asarray(accepted, dtype=float))
    n, d = samples.shape
    if n < 10:
        raise ContractError(f"KDE needs at least 10 accepted samples, got {n}")
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1)
    if theta_star.shape[0] != d:
        raise ContractError("target dimension does not match accepted samples")
    std = samples.std(axis=0, ddof=1)
    h = np.maximum(std * (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0)),
                   BANDWIDTH_FLOOR)
    kde = GaussianMixture(np.full(n, 1.0 / n), samples, np.tile(h * h, (n, 1)))
    return float(log_density_batch(kde, theta_star)[0])
