"""The uniform box over simulator parameters: the prior, a posterior's
support and a model's limits. A Gaussian proposal is a one-component
``mdn.GaussianMixture`` truncated to the prior box."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError


@dataclass(frozen=True)
class UniformBox:
    """The uniform distribution on the closed box [low, high], per dimension."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if (low.ndim != 1 or low.shape != high.shape
                or not np.all(np.isfinite(low) & np.isfinite(high)) or np.any(low >= high)):
            raise ConfigurationError("uniform box requires 1-D low and high with finite "
                                     "low < high per dimension")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def dim(self) -> int:
        return self.low.shape[0]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=(count, self.dim))

    def contains(self, thetas) -> np.ndarray:
        """Mask of the rows of ``thetas`` (..., d) that lie in the box."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.shape[-1:] != (self.dim,):
            raise ContractError(f"expected {self.dim} parameters per row, got {thetas.shape}")
        return np.all((thetas >= self.low) & (thetas <= self.high), axis=-1)
