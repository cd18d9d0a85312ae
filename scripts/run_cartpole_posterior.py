#!/usr/bin/env python3
"""Fit the cart-pole joint posterior over (length, masspole) and dump
the 128x128 density grid plus domain-randomization samples.

Equivalent to running the CLI stages generate -> train -> infer -> sample
with configs/cartpole_posterior.yaml.
"""

import argparse
from pathlib import Path

import numpy as np

from simcal.harness import (
    density_grid,
    generate_dataset,
    infer_posterior,
    load_config,
    save_dataset,
    save_grid,
    save_model,
    save_posterior,
    save_samples,
    synth_real_observation,
    train_model,
)
from simcal.posterior import log_prob_target, sample


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/cartpole_posterior.yaml")
    ap.add_argument("--out", default="out/cartpole")
    ap.add_argument("--samples", type=int, default=10000)
    args = ap.parse_args()

    config = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print("generating dataset ...", flush=True)
    dataset = generate_dataset(config)
    save_dataset(dataset, out / "dataset.csv")

    print("training ...", flush=True)
    model, report = train_model(config, dataset, config.feature_type)
    save_model(model, out / "model.json")
    print(f"best epoch {report.best_epoch}, "
          f"lengthscale {model.selected_lengthscale}")

    x_r = synth_real_observation(config, dataset.schema)
    post = infer_posterior(config, model, x_r, model_ref="model.json")
    save_posterior(post, out / "posterior.json", model.config_hash)

    grid, logdens = density_grid(post, config.prior)
    save_grid(grid, logdens, out / "density_grid.csv")
    top = grid[int(np.argmax(logdens))]
    theta_star = np.asarray(config.theta_star)
    print(f"log p(theta*) = {log_prob_target(post, theta_star):.3f}")
    print(f"density peak at {top}, true parameters {theta_star}")

    draws = sample(post, args.samples, seed=config.seed)
    save_samples(draws, model.param_names, out / "samples.csv",
                 model.config_hash)
    print(f"wrote {args.samples} randomization samples to {out/'samples.csv'}")


if __name__ == "__main__":
    main()
