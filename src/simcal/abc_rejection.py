"""Rejection-ABC baseline over standardized summary statistics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .mdn import GaussianMixture, log_density_batch


@dataclass
class AbcResult:
    accepted: np.ndarray        # (n_acc, d_theta)
    thetas: np.ndarray          # the whole table's parameters


def rejection_abc(thetas: np.ndarray, x: np.ndarray, x_r: np.ndarray,
                  epsilon: float) -> AbcResult:
    """Rejection on a reference table (Pritchard et al., 1999): accept the
    rows of ``thetas`` whose statistics ``x`` lie inside the closed
    ``epsilon``-sphere (a Euclidean radius in standardized-statistic
    space) around the real observation."""
    thetas = np.asarray(thetas, dtype=float)
    x_r = np.asarray(x_r, dtype=float).reshape(-1)
    distances = np.linalg.norm(np.asarray(x, dtype=float) - x_r, axis=1)
    accepted = thetas[distances <= epsilon]
    if accepted.shape[0] == 0:
        warnings.warn(
            "rejection ABC accepted no samples; the posterior estimate is empty",
            RuntimeWarning,
        )
    return AbcResult(accepted=accepted, thetas=thetas)


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
