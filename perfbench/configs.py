"""The benchmark's three workloads and the configs it writes for them.

Each workload's config is generated from the workload seed; the program
sees only that file. The configs mirror the shipped ones under
``configs/`` at a smaller size, so that one run holds several
iterations. Two settings differ from the shipped defaults on purpose:

- ``patience`` equals ``epochs``, so every fit runs its full epoch
  count. The work per iteration is then fixed by the config rather than
  by where early stopping happens to land for a seed, and run-to-run
  spread reflects the code, not the seed.
- the sizes (``num_train``, ``epochs``, ``cv_epochs``) are scaled down
  together, keeping each workload's balance of simulation and training.

This module imports nothing from simcal, so the set-up probe can time
the import of simcal on its own.
"""

from __future__ import annotations

import json

CHAIN = "chain"          # simcal generate -> train -> infer -> sample
EVALUATE = "evaluate"    # simcal evaluate

ALL_METHODS = ["mdn_rff", "mdn_nn", "rejection_abc", "control_shuffled"]

# name -> (kind, the method whose posterior the workload produces, config)
WORKLOADS = {
    # Training dominates (5 lengthscale candidates x 3-fold CV on RFF
    # features); episodes are ragged because the cart-pole terminates
    # early; a 2-D posterior on a 128^2 grid; the only workload that
    # writes and reads every artifact kind.
    "cartpole_calibrate": (CHAIN, "mdn_rff", {
        "benchmark": "cartpole",
        "controller_kind": "bang_bang_energy",
        "feature_type": "rff",
        "num_train": 250,
        "epochs": 120,
        "cv_epochs": 40,
        "patience": 120,
        "real_rollouts": 10,
    }),
    # Simulation-heavy: fixed-length rollouts that never terminate early;
    # the only workload that runs rejection ABC; trains rff, nn and the
    # shuffled control in memory, with no artifacts but the metrics table.
    "pendulum_evaluate": (EVALUATE, "mdn_rff", {
        "benchmark": "pendulum",
        "num_train": 250,
        "epochs": 120,
        "cv_epochs": 40,
        "patience": 120,
        "repeats": 1,
        "real_rollouts": 10,
        "methods": ALL_METHODS,
    }),
    # Neural features: bypasses Halton/RFF and lengthscale CV entirely, so
    # an RFF or CV optimisation must show no change here; RK4 steps (four
    # derivative calls) with per-step controller RNG; a 4-D posterior, no
    # grid.
    "lotka_volterra_nn": (CHAIN, "mdn_nn", {
        "benchmark": "lotka_volterra",
        "feature_type": "nn",
        "num_train": 250,
        "epochs": 120,
        "patience": 120,
        "real_rollouts": 10,
    }),
}

CHAIN_SAMPLE_COUNT = 10_000


def config_text(workload: str, seed: int) -> str:
    """The config file for ``workload`` at ``seed``. JSON is valid YAML,
    so the program's YAML loader reads it as is."""
    _, _, fields = WORKLOADS[workload]
    return json.dumps({**fields, "seed": seed}, indent=1, sort_keys=True) + "\n"
