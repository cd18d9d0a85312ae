"""Feature maps from summary statistics to feature space.

Two families: quasi-Monte-Carlo random Fourier features approximating a
shift-invariant kernel (RBF or Matern 5/2), and a small two-layer tanh
network whose weights are trained jointly with the mixture head.

Both maps offer one protocol, and no caller asks which map it holds:
``apply(x)`` for one vector or a batch; ``trainable``, the names of the
arrays training updates (none for the frozen RFF map);
``with_params(arrays)``, the map over such arrays; and ``to_doc()`` /
``from_doc(doc)``, the model file's "feature" entry. A trainable map
also has ``activations`` and ``backprop``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError

KERNEL_FAMILIES = ("rbf", "matern52")

# First 50 primes; one Halton base per dimension.
_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211,
    223, 227, 229,
)

MAX_DIMENSION = len(_PRIMES)


# In-house, not scipy.stats.qmc.Halton (same points): no simcal command imports scipy.
def halton_points(dimension: int, count: int) -> np.ndarray:
    """``count`` consecutive Halton points starting at index 1, shape
    (count, dimension). Index 0 (the all-zeros point) is skipped so the
    points survive inverse-CDF transforms."""
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ConfigurationError(
            f"dimension must be in [1, {MAX_DIMENSION}], got {dimension}"
        )
    if count < 1:
        raise ContractError(f"count must be >= 1, got {count}")
    out = np.zeros((count, dimension))
    for j, base in enumerate(_PRIMES[:dimension]):
        # van der Corput digit reversal of every index at once
        rest, scale = np.arange(1, count + 1), 1.0 / base
        while rest.any():
            rest, digit = np.divmod(rest, base)
            out[:, j] += digit * scale
            scale /= base
    return out


@dataclass(frozen=True)
class KernelConfig:
    """Shift-invariant kernel choice for the RFF map.

    ``lengthscale`` is one positive number shared by every input
    dimension; ``num_features`` is the total (even) feature count, split
    into cos/sin halves.
    """

    family: str = "rbf"
    lengthscale: float = 1.0
    num_features: int = 200

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ConfigurationError(f"unknown kernel family {self.family!r}")
        if self.num_features < 2 or self.num_features % 2 != 0:
            raise ConfigurationError("num_features must be a positive even integer")
        if not self.lengthscale > 0:  # also False for NaN
            raise ConfigurationError("lengthscale must be strictly positive")


def _batch(x, dim: int) -> np.ndarray:
    """A vector (dim,) or batch (n, dim) as an (n, dim) float array."""
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    if xb.shape[1] != dim:
        raise ContractError(f"input dimension {xb.shape[1]} != map dimension {dim}")
    return xb


@dataclass(frozen=True)
class RFFMap:
    """Frozen random-Fourier projection.

    frequencies: (s/2, d); biases: (s/2,) in [-pi, pi]. The 1/sqrt(s/2)
    normalizer makes ||phi(x)|| = 1 exactly.
    """

    frequencies: np.ndarray
    biases: np.ndarray
    kernel: KernelConfig

    @property
    def input_dim(self) -> int:
        return self.frequencies.shape[1]

    @property
    def num_features(self) -> int:
        return 2 * self.frequencies.shape[0]

    trainable = ()  # frozen

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Feature vector [cos(wx+b), sin(wx+b)] / sqrt(s/2).

        Accepts a single vector (d,) or a batch (n, d); returns (s,) or (n, s).
        """
        proj = _batch(x, self.input_dim) @ self.frequencies.T + self.biases
        norm = 1.0 / np.sqrt(self.frequencies.shape[0])
        feats = norm * np.concatenate([np.cos(proj), np.sin(proj)], axis=1)
        return feats[0] if np.ndim(x) == 1 else feats

    def with_params(self, arrays) -> RFFMap:
        return self

    def to_doc(self) -> dict:
        """The model file's "feature" entry: the kernel, from which
        :meth:`from_doc` redraws the same frequencies."""
        return {"type": "rff", "family": self.kernel.family,
                "lengthscale": self.kernel.lengthscale,
                "num_features": self.kernel.num_features, "input_dim": self.input_dim}

    @staticmethod
    def from_doc(doc: dict) -> RFFMap:
        return build_rff(KernelConfig(doc["family"], doc["lengthscale"],
                                      doc["num_features"]), doc["input_dim"])


def build_rff(kernel: KernelConfig, input_dim: int) -> RFFMap:
    """Draw RFF frequencies/biases deterministically from the Halton
    sequence.

    RBF with lengthscale sigma uses omega ~ N(0, sigma^-2 I), matching
    the exact kernel exp(-r^2 / (2 sigma^2)). Matern 5/2 uses the
    Student-t(5) spectral law at scale 1/sigma: a Gaussian draw divided
    by sqrt(chi2 / 5), the chi-square taken as the sum of five squared
    Gaussians from five reserved Halton columns (much better QMC moment
    convergence for the heavy tail than a single inverse-CDF column).
    The final Halton column maps affinely to the bias in [-pi, pi].
    A Gaussian draw is a Halton coordinate through the standard library's
    inverse normal CDF (Wichura's AS241), within a few ulps of scipy's
    ``ndtri``.
    """
    # Imported here, not at module level: only RFF maps need it, so
    # `import simcal.cli` loads nothing more.
    from statistics import NormalDist

    if input_dim < 1:
        raise ContractError("input_dim must be >= 1")
    n_freq = kernel.num_features // 2
    chi_columns = 0 if kernel.family == "rbf" else 5
    pts = halton_points(input_dim + chi_columns + 1, n_freq)
    u = pts[:, :-1]
    z = np.fromiter(map(NormalDist().inv_cdf, u.ravel().tolist()), float, u.size).reshape(u.shape)
    freqs = z[:, :input_dim]
    if chi_columns:
        zc = z[:, input_dim:]
        chi2 = np.sum(zc * zc, axis=1)
        freqs = freqs / np.sqrt(chi2 / chi_columns)[:, None]
    freqs = freqs * (1.0 / kernel.lengthscale)
    biases = 2.0 * np.pi * pts[:, -1] - np.pi
    return RFFMap(frequencies=freqs, biases=biases, kernel=kernel)


def exact_kernel(kernel: KernelConfig, x: np.ndarray, y: np.ndarray) -> float:
    """Closed-form kernel value, the oracle the RFF estimate is tested
    against."""
    r = np.linalg.norm((np.asarray(x) - np.asarray(y)) * (1.0 / kernel.lengthscale))
    if kernel.family == "rbf":
        return float(np.exp(-0.5 * r * r))
    a = np.sqrt(5.0) * r
    return float((1.0 + a + a * a / 3.0) * np.exp(-a))


@dataclass
class NeuralFeatureMap:
    """Two-layer tanh network phi(x) = tanh(W2 tanh(W1 x + b1) + b2).

    Outputs are bounded in (-1, 1) componentwise. Weights are plain
    arrays, so the trainer can hold them as views into its flat
    parameter vector.
    """

    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (s, h)
    b2: np.ndarray  # (s,)

    def __post_init__(self):
        if (self.w1.ndim != 2 or self.b1.shape != self.w1.shape[:1]
                or self.b2.ndim != 1 or self.w2.shape != self.b2.shape + self.b1.shape):
            raise ContractError(
                f"tanh map shapes w1 {self.w1.shape}, b1 {self.b1.shape}, "
                f"w2 {self.w2.shape}, b2 {self.b2.shape} do not fit together")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def num_features(self) -> int:
        return self.w2.shape[0]

    trainable = ("w1", "b1", "w2", "b2")

    def activations(self, x: np.ndarray):
        """Hidden and output activations (h (n, hidden), phi (n, s)) of a
        batch (n, d); :meth:`backprop` takes both back."""
        h = np.tanh(_batch(x, self.input_dim) @ self.w1.T + self.b1)
        return h, np.tanh(h @ self.w2.T + self.b2)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; single vector (d,) or batch (n, d)."""
        out = self.activations(x)[1]
        return out[0] if np.ndim(x) == 1 else out

    def backprop(self, x_batch: np.ndarray, d_phi: np.ndarray, activations) -> dict:
        """Vector-Jacobian product: given dL/dphi per batch row and the
        forward pass's ``activations(x_batch)``, return summed gradients
        w.r.t. the network weights."""
        xb = np.atleast_2d(np.asarray(x_batch, dtype=float))
        h, phi = activations
        g2 = d_phi * (1.0 - phi * phi)          # (n, s)
        g1 = (g2 @ self.w2) * (1.0 - h * h)     # (n, h)
        return {
            "w2": g2.T @ h,
            "b2": g2.sum(axis=0),
            "w1": g1.T @ xb,
            "b1": g1.sum(axis=0),
        }

    def with_params(self, arrays) -> NeuralFeatureMap:
        """The map over ``trainable`` arrays, e.g. the trainer's views."""
        return NeuralFeatureMap(*arrays)

    def to_doc(self) -> dict:
        return {"type": "nn", **{k: getattr(self, k).tolist() for k in self.trainable}}

    @staticmethod
    def from_doc(doc: dict) -> NeuralFeatureMap:
        return NeuralFeatureMap(*(np.array(doc[k], dtype=float)
                                  for k in NeuralFeatureMap.trainable))


def init_neural_map(
    input_dim: int, hidden_dim: int, num_features: int, rng: np.random.Generator
) -> NeuralFeatureMap:
    """Random tanh-network init with 1/sqrt(fan_in) weight scale."""
    w1 = rng.normal(0.0, 1.0 / np.sqrt(input_dim), (hidden_dim, input_dim))
    b1 = np.zeros(hidden_dim)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), (num_features, hidden_dim))
    b2 = np.zeros(num_features)
    return NeuralFeatureMap(w1, b1, w2, b2)


# A model file's "feature" type -> the map that reads it.
FEATURE_MAPS = {"rff": RFFMap, "nn": NeuralFeatureMap}

# The maps' ``apply`` under their function names.
apply_rff = RFFMap.apply
apply_nn = NeuralFeatureMap.apply
