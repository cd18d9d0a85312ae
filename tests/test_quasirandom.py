"""Quasi-random (Halton) points and the RFF frequencies built from them."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simcal
from simcal.errors import ConfigurationError
from simcal.features import KernelConfig, build_rff, halton_points


def brute_force_radical_inverse(index, base):
    # independent oracle: string digit reversal
    digits = []
    i = index
    while i:
        digits.append(i % base)
        i //= base
    return sum(d * base ** -(k + 1) for k, d in enumerate(digits))


def first_primes(count):
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 50), st.integers(1, 200))
def test_halton_matches_digit_reversal_oracle(dimension, count):
    pts = halton_points(dimension, count)
    expected = [[brute_force_radical_inverse(i, p) for p in first_primes(dimension)]
                for i in range(1, count + 1)]
    np.testing.assert_allclose(pts, expected, rtol=0, atol=1e-12)
    assert np.all((pts > 0.0) & (pts < 1.0))


def test_halton_base2_first_points():
    np.testing.assert_allclose(halton_points(1, 3).ravel(), [0.5, 0.25, 0.75])


def test_halton_2d_first_point():
    np.testing.assert_allclose(halton_points(2, 1), [[0.5, 1.0 / 3.0]])


def test_halton_base2_dyadic_rationals():
    # first 2^m - 1 points, sorted, are exactly k/2^m for k = 1..2^m-1
    m = 6
    pts = np.sort(halton_points(1, 2 ** m - 1).ravel())
    np.testing.assert_allclose(pts, np.arange(1, 2 ** m) / 2 ** m)


def test_halton_dimension_limits():
    with pytest.raises(ConfigurationError):
        halton_points(51, 4)
    with pytest.raises(ConfigurationError):
        halton_points(0, 4)


def _star_discrepancy_grid(points, grid=32):
    """Brute-force star discrepancy proxy on a grid of anchored boxes."""
    pts = np.atleast_2d(points)
    n = pts.shape[0]
    worst = 0.0
    us = np.arange(1, grid + 1) / grid
    for u in us:
        for v in us:
            inside = np.mean((pts[:, 0] < u) & (pts[:, 1] < v))
            worst = max(worst, abs(inside - u * v))
    return worst


def test_halton_beats_random_discrepancy():
    halton = halton_points(2, 64)
    d_halton = _star_discrepancy_grid(halton)
    rng = np.random.default_rng(0)
    d_random = np.mean(
        [_star_discrepancy_grid(rng.uniform(size=(64, 2))) for _ in range(20)]
    )
    assert d_halton < d_random


def _frequencies(family, sigma, num_features):
    """1-D RFF frequencies rescaled to unit lengthscale."""
    m = build_rff(KernelConfig(family, sigma, num_features), 1)
    return (m.frequencies * sigma).ravel()


def test_rbf_frequency_variance():
    for s in (0.5, 1.0, 3.0):
        w = _frequencies("rbf", s, 8192)
        assert abs(w.var() - 1.0) < 0.05


def test_rbf_frequency_kolmogorov_smirnov():
    from scipy.special import erf

    g = np.sort(_frequencies("rbf", 0.7, 8192))
    cdf = 0.5 * (1 + erf(g / np.sqrt(2)))
    emp = np.arange(1, g.size + 1) / g.size
    ks = max(np.max(np.abs(cdf - emp)), np.max(np.abs(cdf - (emp - 1 / g.size))))
    assert ks < 0.02


def test_student_t_kurtosis_matches_analytic():
    # Matern 5/2 spectral law is t(5): kurtosis = 3 (nu-2) / (nu-4) = 9
    t = _frequencies("matern52", 1.3, 16384)
    m2, m4 = np.mean(t ** 2), np.mean(t ** 4)
    kurt = m4 / m2 ** 2
    assert abs(kurt - 9.0) / 9.0 < 0.15


def _run_python(code, cwd=None):
    src = str(Path(simcal.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True)


def test_cli_import_does_not_load_scipy():
    # importing scipy costs more start-up time than the rest of the CLI
    proc = _run_python("import sys, simcal.cli; "
                       "sys.exit(int(any(m.split('.')[0] == 'scipy' for m in sys.modules)))")
    assert proc.returncode == 0, proc.stderr.decode()


CHAIN = """\
import sys
from simcal.cli import main

for name in ("nn", "rff"):
    with open(name + ".yaml", "w") as f:
        f.write("benchmark: pendulum\\nnum_train: 40\\nnum_features: 20\\n"
                "num_components: 2\\nepochs: 3\\nlengthscale_candidates: [1.0]\\n"
                "real_rollouts: 2\\nrepeats: 1\\nseed: 3\\nfeature_type: " + name + "\\n")
    for argv in (["generate"], ["train", "--dataset", name + "/dataset.csv"],
                 ["infer", "--model", name + "/model.json"]):
        assert main(argv + ["--config", name + ".yaml", "--out", name]) == 0
    assert main(["sample", "--posterior", name + "/posterior.json", "--count", "100",
                 "--out", name]) == 0
assert main(["evaluate", "--config", "rff.yaml", "--out", "eval"]) == 0
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
"""


def test_cli_commands_never_load_scipy(tmp_path):
    """generate, nn and rff train and infer, sample and an evaluate that
    builds RFF maps all run without importing scipy."""
    proc = _run_python(CHAIN, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
