"""One iteration of a workload through simcal's public CLI, and the
checks on what it wrote.

Every CLI call runs in this process through ``simcal.cli.main``; its
console output is captured so that the benchmark's own report stays
the last thing printed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from simcal import cli, harness
from simcal.posterior import log_prob_target

from configs import ALL_METHODS, CHAIN, CHAIN_SAMPLE_COUNT, WORKLOADS
from spans import ROOT


@dataclass
class Iteration:
    wall_s: float = 0.0
    log_probs: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)

    def outputs(self):
        """What must repeat exactly at the same seed."""
        return self.log_probs, self.hashes


def _call(it: Iteration, tracer, stage: str, argv: list) -> bool:
    it.attempted += 1
    sid = tracer.begin(f"cli.{stage}") if tracer else None
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if tracer:
        tracer.end(sid)
    if code != 0:
        it.failures.append(f"simcal {stage} exited {code}")
    return code == 0


def in_box(draws: np.ndarray, config) -> bool:
    return bool(np.all((draws >= np.asarray(config.prior_low))
                       & (draws <= np.asarray(config.prior_high))))


def _read_samples(path: Path) -> np.ndarray:
    rows = path.read_text().strip().split("\n")[1:]
    return np.array([[float(v) for v in row.split(",")] for row in rows])


def run_iteration(workload: str, config_path: Path, work: Path,
                  tracer=None) -> Iteration:
    """Run the workload once in an emptied ``work`` directory, then check
    its outputs. Only the CLI calls are inside ``wall_s``."""
    kind, method, _ = WORKLOADS[workload]
    config = harness.load_config(config_path)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg, out = str(config_path), str(work)
    it = Iteration()

    root = tracer.begin(ROOT) if tracer else None
    t0 = time.perf_counter()
    if kind == CHAIN:
        # Each stage needs the previous stage's artifact.
        (_call(it, tracer, "generate", ["generate", "--config", cfg, "--out", out])
         and _call(it, tracer, "train", ["train", "--config", cfg, "--out", out,
                                         "--dataset", str(work / "dataset.csv")])
         and _call(it, tracer, "infer", ["infer", "--config", cfg, "--out", out,
                                         "--model", str(work / "model.json")])
         and _call(it, tracer, "sample", ["sample", "--out", out,
                                          "--posterior", str(work / "posterior.json"),
                                          "--count", str(CHAIN_SAMPLE_COUNT),
                                          "--seed", str(config.seed)]))
    else:
        _call(it, tracer, "evaluate", ["evaluate", "--config", cfg, "--out", out])
    it.wall_s = time.perf_counter() - t0
    if tracer:
        tracer.end(root)

    for path in sorted(work.iterdir()):
        data = path.read_bytes()
        it.hashes[path.name] = hashlib.sha256(data).hexdigest()
        it.artifact_bytes += len(data)
    if it.failures:
        return it

    if kind == CHAIN:
        post = harness.load_posterior(work / "posterior.json")
        it.log_probs[method] = log_prob_target(post, np.asarray(config.theta_star))
        samples = _read_samples(work / "samples.csv")
        if samples.shape != (CHAIN_SAMPLE_COUNT, len(config.theta_star)):
            it.failures.append(f"samples.csv has shape {samples.shape}")
        elif not in_box(samples, config):
            it.failures.append("a sample lies outside the prior box")
    else:
        with open(work / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            it.log_probs[row["method"]] = float(row["mean"])
            if row["failed"] != "0":
                it.failures.append(f"evaluate marked {row['method']} failed")
        if sorted(it.log_probs) != sorted(ALL_METHODS):
            it.failures.append(f"evaluate reported methods {sorted(it.log_probs)}")
    for name, value in it.log_probs.items():
        if not math.isfinite(value):
            it.failures.append(f"log_prob.{name} is {value}")
    return it


@contextlib.contextmanager
def capture_posteriors():
    """Keep each posterior ``harness.infer_posterior`` returns. Used once,
    outside the timed iterations, to get the in-memory posterior that
    ``simcal evaluate`` does not write out."""
    kept = []
    original = harness.infer_posterior

    def keep(*args, **kwargs):
        kept.append(original(*args, **kwargs))
        return kept[-1]

    harness.infer_posterior = keep
    try:
        yield kept
    finally:
        harness.infer_posterior = original
