"""Command-line entry point.

Subcommands: generate, train, infer, evaluate, sample. Exit codes:
0 success, 2 configuration errors, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness
from .errors import ConfigurationError, ContractError, NumericError
from .posterior import log_prob_target
from .posterior import sample as sample_posterior

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_common(sub):
    sub.add_argument("--config", required=True, help="experiment config (YAML)")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config's base seed")
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simcal",
        description="Likelihood-free posterior estimation over simulator "
                    "parameters, with domain-randomization sampling.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="simulate a training dataset")
    _add_common(p)

    p = subs.add_parser("train", help="fit the conditional density model")
    _add_common(p)
    p.add_argument("--dataset", required=True)

    p = subs.add_parser("infer", help="recover the posterior at the real observation")
    _add_common(p)
    p.add_argument("--model", required=True)

    p = subs.add_parser("evaluate", help="run the repeat protocol and emit the metrics table")
    _add_common(p)

    p = subs.add_parser("sample", help="draw domain-randomization samples from a posterior")
    p.add_argument("--posterior", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    return parser


def _load_config(args) -> harness.ExperimentConfig:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "generate":
        config = _load_config(args)
        dataset = harness.generate_dataset(config)
        path = out / "dataset.csv"
        harness.save_dataset(dataset, path)
        print(f"wrote {path} ({dataset.thetas.shape[0]} rows)")

    elif args.command == "train":
        config = _load_config(args)
        dataset = harness.load_dataset(args.dataset)
        if dataset.config_hash != harness.config_hash(config):
            raise ConfigurationError(
                "dataset was generated under a different config"
            )
        model, report = harness.train_model(config, dataset, config.feature_type)
        harness.save_model(model, out / "model.json")
        losses = "\n".join(
            f"{e},{float(tr)!r},{float(vl)!r}" for e, (tr, vl)
            in enumerate(zip(report.train_loss, report.val_loss))
        )
        (out / "training_log.csv").write_text("epoch,train_loss,val_loss\n"
                                              + losses + "\n")
        print(f"wrote {out / 'model.json'} (best epoch {report.best_epoch})")

    elif args.command == "infer":
        config = _load_config(args)
        model = harness.load_model(args.model)
        if model.config_hash != harness.config_hash(config):
            raise ConfigurationError("model was trained under a different config")
        x_r = harness.synth_real_observation(config, model.schema)
        post = harness.infer_posterior(config, model, x_r,
                                       model_ref=Path(args.model).name)
        harness.save_posterior(post, out / "posterior.json", model.config_hash)
        theta_star = np.asarray(config.theta_star)
        print(f"wrote {out / 'posterior.json'}; log p(theta*) = "
              f"{log_prob_target(post, theta_star):.3f} at theta* = {theta_star.tolist()}")
        grid = harness.density_grid(post)
        if grid is not None:
            harness.save_grid(*grid, out / "density_grid.csv")
            print(f"wrote {out / 'density_grid.csv'}; density peak at "
                  f"{grid[0][int(np.argmax(grid[1]))].tolist()}")

    elif args.command == "evaluate":
        config = _load_config(args)
        rows = harness.evaluate(config, progress=lambda msg: print(msg, flush=True))
        harness.save_metrics(rows, out / "metrics.csv", out / "metrics.txt")
        print((out / "metrics.txt").read_text())

    elif args.command == "sample":
        post = harness.load_posterior(args.posterior)
        draws = sample_posterior(post, args.count, seed=args.seed)
        names = [f"theta_{i}" for i in range(post.mixture.dim)]
        harness.save_samples(draws, names, out / "samples.csv",
                             post.provenance.get("config_hash", ""))
        print(f"wrote {out / 'samples.csv'} ({args.count} rows)")

    sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(argv)
    except BrokenPipeError as exc:  # aim stdout at devnull: the flush at exit must not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigurationError, ContractError, FileExistsError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
