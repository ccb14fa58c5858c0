"""Command-line entry point for reproducible imputation experiments.

Subcommands: ``synth`` (generate a dataset), ``train``, ``eval`` (also
writes the latent projections of the config's own mask cell), ``ablate``,
``impute`` (fill a CSV's missing cells).
Commands that take ``--config`` echo the fully resolved configuration into
the output directory so every artifact records how it was produced.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autodiff import TapeError
from .config import SYNTH_CELL_BYTES, ConfigError, RunConfig, check_fits_in_memory
from .data import (
    CsvFormatError,
    Window,
    apply_mask,
    atomic_write,
    load_csv,
    normalize_window,
    write_csv,
    write_rows,
)
from .evaluation import (
    EvalEntry,
    EvaluationError,
    alignment_score,
    average_entry,
    evaluate,
    held_out_windows,
    latent_means,
    run_ablation,
    write_ablation_csv,
    write_latents,
    write_sweep_csv,
)
from .model import CheckpointError, ImputationModel, NumericError, load_checkpoint
from .rng import STREAM_EVAL_MASK, derive
from .training import TrainingError, fit


class UsageError(Exception):
    """Bad flags or bad configuration; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on usage problems; route them to exit code 1
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ibimpute", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    config_parent = _Parser(add_help=False)
    config_parent.add_argument("--config", required=True, help="run config file")
    config_parent.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    config_parent.add_argument(
        "--quiet", action="store_true", help="suppress progress lines on stderr"
    )

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--vars", type=int, required=True, help="number of variables")
    p.add_argument("--steps", type=int, required=True, help="number of timesteps")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", parents=[config_parent], help="train a model")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[config_parent], help="score a checkpoint, project latents")
    p.add_argument("--checkpoint", help="defaults to <output_dir>/checkpoint.bin")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", parents=[config_parent], help="four-way ablation")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("impute", help="fill missing cells of a CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="CSV with empty cells to fill")
    p.add_argument("--output", required=True, help="completed CSV path")
    p.set_defaults(func=_cmd_impute)

    return parser


def _load_run_config(args) -> RunConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {args.config}: {exc}") from None
    try:
        return RunConfig.from_sources(text, args.override, source=args.config)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    with atomic_write(out / "config_resolved.txt") as fh:
        fh.write(cfg.resolved_text())
    return out


def _load_model(path: str) -> ImputationModel:
    """The checkpoint's model; one without a normalizer cannot score or impute."""
    model = load_checkpoint(path)
    if model.normalizer is None:
        raise CheckpointError(f"checkpoint {path} carries no normalizer")
    return model


def _cmd_synth(args) -> None:
    if args.vars < 1:
        raise UsageError("--vars must be >= 1")
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    if not 0.0 <= args.noise_std < math.inf:
        raise UsageError("--noise-std must be a finite number >= 0")
    check_fits_in_memory("--vars and --steps", "synthetic series",
                         SYNTH_CELL_BYTES * args.vars * args.steps)
    from .data import make_synthetic

    ds = make_synthetic(args.vars, args.steps, args.seed, args.noise_std)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(str(out), ds)
    meta = (
        f"generator = synthetic\nvars = {args.vars}\nsteps = {args.steps}\n"
        f"seed = {args.seed}\nnoise_std = {args.noise_std!r}\n"
    )
    with atomic_write(str(out) + ".meta") as fh:
        fh.write(meta)
    print(f"wrote {out} ({args.steps} rows, {args.vars} variables)")


def _cmd_train(args) -> None:
    cfg = _load_run_config(args)
    dataset = cfg.load_dataset()
    model_cfg = cfg.model_config(dataset.n_vars)
    out = _out_dir(cfg)
    result = fit(
        dataset,
        model_cfg,
        cfg.train_config(),
        checkpoint_path=str(out / "checkpoint.bin"),
        progress=not args.quiet,
        log_path=str(out / "training_log.csv"),
    )
    print(f"best_epoch = {result.best_epoch}")
    print(f"best_val_mae = {result.best_val_mae!r}")


def _cmd_eval(args) -> None:
    cfg = _load_run_config(args)
    dataset = cfg.load_dataset()
    path = args.checkpoint or str(Path(cfg["output_dir"]) / "checkpoint.bin")
    model = _load_model(path)
    expected = cfg.model_config(dataset.n_vars)
    if model.config != expected:
        raise CheckpointError(
            f"checkpoint {path} was trained with {model.config}, "
            f"but the run config implies {expected}"
        )
    windows = held_out_windows(dataset, model.config, cfg.train_config())
    out = _out_dir(cfg)
    eval_spec = cfg.mask_spec(seed=derive(cfg["eval.seed"], STREAM_EVAL_MASK))
    normed = [normalize_window(w, model.normalizer) for w in windows]
    # the unmasked view does not depend on the mask: encode it once for all cells
    full_mu = latent_means(model, normed, full=True)
    rows: list[EvalEntry] = []
    align_rows: list[tuple[str, float, float]] = []
    cell_mu = None  # the latent means of the config's own mask cell, for latents.csv
    for pattern in cfg["eval.patterns"]:
        per_rate = []
        for rate in cfg["eval.rates"]:
            spec = replace(eval_spec, pattern=pattern, rate=rate)
            masked = [apply_mask(w, spec) for w in normed]
            mu = latent_means(model, masked)
            per_rate.append(evaluate(model, masked, spec, cfg["eval.normalized"], mu))
            align_rows.append((pattern, rate, alignment_score(model, masked, mu, full_mu)))
            if spec == eval_spec:
                cell_mu = mu
        rows.extend(per_rate)
        rows.append(average_entry(pattern, per_rate))
    write_sweep_csv(str(out / "report.csv"), rows)
    with atomic_write(out / "alignment.csv") as fh:
        fh.write("pattern,rate,alignment\n")
        for pattern, rate, align in align_rows:
            fh.write(f"{pattern},{rate!r},{align!r}\n")
    try:  # a config whose latents cannot be written still scores
        if cell_mu is None:
            raise EvaluationError(
                f"mask.pattern={eval_spec.pattern} mask.rate={eval_spec.rate!r} "
                "is not a cell of eval.patterns x eval.rates"
            )
        write_latents(str(out / "latents.csv"), cell_mu, full_mu)
    except EvaluationError as exc:
        print(f"eval: wrote no latents.csv: {exc}", file=sys.stderr)
    for e in rows:
        print(f"{e.pattern} rate={e.rate_label} mae={e.mae!r} mse={e.mse!r}")


def _cmd_ablate(args) -> None:
    cfg = _load_run_config(args)
    train_cfg = cfg.train_config()
    if train_cfg.weights.loc <= 0.0:
        raise UsageError("ablation needs train.weights.loc > 0")
    dataset = cfg.load_dataset()
    model_cfg = cfg.model_config(dataset.n_vars)
    out = _out_dir(cfg)
    entries = run_ablation(
        dataset,
        model_cfg,
        train_cfg,
        rates=cfg["eval.rates"],
        eval_seed=cfg["eval.seed"],
        normalized=cfg["eval.normalized"],
        progress=not args.quiet,
    )
    write_ablation_csv(str(out / "ablation.csv"), entries)
    for i, rate in enumerate(cfg["eval.rates"]):
        ranked = sorted(entries, key=lambda name: entries[name][i].mae)
        parts = " ".join(f"{name}={entries[name][i].mae!r}" for name in ranked)
        print(f"rate {rate!r}: {parts}")


def _cmd_impute(args) -> None:
    model = _load_model(args.checkpoint)
    raw_rows: list[list[str]] = []
    ds = load_csv(args.input, raw_rows)
    t_len = model.config.window_len
    if ds.n_vars != model.config.n_vars:
        raise CheckpointError(
            f"{args.input} has {ds.n_vars} variables, checkpoint expects "
            f"{model.config.n_vars}"
        )
    if ds.length < t_len:
        raise CsvFormatError(f"{args.input} has {ds.length} rows, need at least {t_len}")
    starts = list(range(0, ds.length - t_len + 1, t_len))
    if starts[-1] + t_len < ds.length:
        starts.append(ds.length - t_len)  # overlapping tail window
    filled = np.empty_like(ds.values)
    end = 0  # rows before end hold the output of the first window that covered them
    for s in starts:
        window = Window(x=ds.values[s : s + t_len], m_obs=ds.native_mask[s : s + t_len])
        filled[end : s + t_len] = model.impute(window)[end - s :]
        end = s + t_len
    header, *body = raw_rows
    gap_t, gap_i = np.nonzero(~ds.native_mask)
    for t, i, v in zip(gap_t.tolist(), gap_i.tolist(), filled[gap_t, gap_i].tolist()):
        body[t][i] = repr(v)
    out = Path(args.output)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_rows(out, header, body)
    with atomic_write(str(out) + ".meta") as fh:
        fh.write(f"checkpoint = {args.checkpoint}\ninput = {args.input}\n")
    print(f"wrote {out} ({len(gap_t)} cells filled)")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CheckpointError, TrainingError, NumericError, TapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
