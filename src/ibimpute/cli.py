"""Command-line entry point for reproducible imputation experiments.

Subcommands: ``synth`` (generate a dataset), ``train``, ``eval``,
``ablate``, ``impute`` (fill a CSV's missing cells), ``export-latents``.
Commands that take ``--config`` echo the fully resolved configuration into
the output directory so every artifact records how it was produced.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .autodiff import DomainError, ShapeMismatchError, TapeError
from .config import ConfigError, RunConfig
from .data import (
    CsvFormatError,
    Dataset,
    MaskError,
    MaskSpec,
    SplitError,
    Window,
    apply_mask,
    atomic_write,
    load_csv,
    normalize_window,
    write_csv,
)
from .evaluation import (
    EvalEntry,
    EvaluationError,
    alignment_score,
    average_entry,
    evaluate,
    export_latents,
    held_out_windows,
    run_ablation,
    write_ablation_csv,
    write_sweep_csv,
)
from .model import CheckpointError, ImputationModel, NumericError, load_checkpoint
from .rng import STREAM_EVAL_MASK, derive
from .training import TrainingError, fit, write_training_log


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

    p = sub.add_parser("eval", parents=[config_parent], help="score a checkpoint")
    p.add_argument("--checkpoint", help="defaults to <output_dir>/checkpoint.bin")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", parents=[config_parent], help="four-way ablation")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("impute", help="fill missing cells of a CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="CSV with empty cells to fill")
    p.add_argument("--output", required=True, help="completed CSV path")
    p.set_defaults(func=_cmd_impute)

    p = sub.add_parser(
        "export-latents", parents=[config_parent], help="latent projections + alignment"
    )
    p.add_argument("--checkpoint", help="defaults to <output_dir>/checkpoint.bin")
    p.set_defaults(func=_cmd_export_latents)

    return parser


def _load_run_config(args) -> RunConfig:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    try:
        return RunConfig.from_sources(text, args.override, source=args.config)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None


def _configs_for_run(cfg: RunConfig):
    try:
        train_cfg = cfg.train_config()
        train_cfg.validate()
    except (ValueError, MaskError) as exc:
        raise UsageError(str(exc)) from None
    return train_cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_resolved.txt").write_text(cfg.resolved_text())
    return out


def _checkpoint_model(cfg: RunConfig, args, dataset: Dataset) -> ImputationModel:
    path = args.checkpoint or str(Path(cfg["output_dir"]) / "checkpoint.bin")
    model = load_checkpoint(path)
    expected = cfg.model_config(dataset.n_vars)
    if model.config != expected:
        raise CheckpointError(
            f"checkpoint {path} was trained with {model.config}, "
            f"but the run config implies {expected}"
        )
    if model.normalizer is None:
        raise CheckpointError(f"checkpoint {path} carries no normalizer")
    return model


def _cmd_synth(args) -> None:
    if args.vars < 1:
        raise UsageError("--vars must be >= 1")
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    if args.noise_std < 0:
        raise UsageError("--noise-std must be >= 0")
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
    Path(str(out) + ".meta").write_text(meta)
    print(f"wrote {out} ({args.steps} rows, {args.vars} variables)")


def _cmd_train(args) -> None:
    cfg = _load_run_config(args)
    train_cfg = _configs_for_run(cfg)
    dataset = cfg.load_dataset()
    model_cfg = cfg.model_config(dataset.n_vars)
    out = _out_dir(cfg)
    result = fit(
        dataset,
        model_cfg,
        train_cfg,
        checkpoint_path=str(out / "checkpoint.bin"),
        progress=not args.quiet,
    )
    write_training_log(str(out / "training_log.csv"), result.log_rows)
    print(f"best_epoch = {result.best_epoch}")
    print(f"best_val_mae = {result.best_val_mae!r}")


def _cmd_eval(args) -> None:
    cfg = _load_run_config(args)
    train_cfg = _configs_for_run(cfg)
    dataset = cfg.load_dataset()
    model = _checkpoint_model(cfg, args, dataset)
    windows = held_out_windows(dataset, model.config, train_cfg)
    out = _out_dir(cfg)
    eval_seed = derive(cfg["eval.seed"], STREAM_EVAL_MASK)
    rows: list[EvalEntry] = []
    align_rows: list[tuple[str, float, float]] = []
    for pattern in cfg["eval.patterns"]:
        per_rate = []
        for rate in cfg["eval.rates"]:
            spec = MaskSpec(
                pattern=pattern,
                rate=rate,
                block_len=cfg["mask.block_len"],
                seed=eval_seed,
            )
            masked = [
                apply_mask(normalize_window(w, model.normalizer), spec) for w in windows
            ]
            per_rate.append(evaluate(model, masked, spec, cfg["eval.normalized"]))
            align_rows.append((pattern, rate, alignment_score(model, masked)))
        rows.extend(per_rate)
        rows.append(average_entry(pattern, per_rate))
    write_sweep_csv(str(out / "report.csv"), rows)
    with atomic_write(out / "alignment.csv") as fh:
        fh.write("pattern,rate,alignment\n")
        for pattern, rate, align in align_rows:
            fh.write(f"{pattern},{rate!r},{align!r}\n")
    for e in rows:
        print(f"{e.pattern} rate={e.rate_label} mae={e.mae!r} mse={e.mse!r}")


def _cmd_ablate(args) -> None:
    cfg = _load_run_config(args)
    train_cfg = _configs_for_run(cfg)
    if train_cfg.weights.loc <= 0.0:
        raise UsageError("ablation needs train.weights.loc > 0")
    dataset = cfg.load_dataset()
    model_cfg = cfg.model_config(dataset.n_vars)
    out = _out_dir(cfg)
    grid = run_ablation(
        dataset,
        model_cfg,
        train_cfg,
        rates=cfg["eval.rates"],
        eval_seed=cfg["eval.seed"],
        normalized=cfg["eval.normalized"],
        progress=not args.quiet,
    )
    write_ablation_csv(str(out / "ablation.csv"), grid)
    for i, rate in enumerate(cfg["eval.rates"]):
        ranked = sorted(grid.entries, key=lambda name: grid.entries[name][i].mae)
        parts = " ".join(f"{name}={grid.entries[name][i].mae!r}" for name in ranked)
        print(f"rate {rate!r}: {parts}")


def _read_raw_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    """Write ``header`` and ``rows`` exactly as ``csv.writer`` would.

    The body goes out as one joined string when that is provably the same
    bytes: every row has one cell per header name and is not a lone empty cell
    (which ``csv.writer`` writes as ``""``), and no cell holds a quote, a comma,
    a CR or a LF, so the counts of each are exactly the separators.  Otherwise,
    e.g. for input that needed quoting, ``csv.writer`` writes the rows itself.
    """
    n = len(header)
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        body = "".join([",".join(row) + "\r\n" for row in rows])
        if (
            all(len(row) == n and row != [""] for row in rows)
            and '"' not in body
            and body.count(",") == len(rows) * (n - 1)
            and body.count("\r") == body.count("\n") == len(rows)
        ):
            fh.write(body)
        else:
            writer.writerows(rows)


def _cmd_impute(args) -> None:
    model = load_checkpoint(args.checkpoint)
    if model.normalizer is None:
        raise CheckpointError(f"checkpoint {args.checkpoint} carries no normalizer")
    ds = load_csv(args.input)
    t_len = model.config.window_len
    if ds.n_vars != model.config.n_vars:
        raise CheckpointError(
            f"{args.input} has {ds.n_vars} variables, checkpoint expects "
            f"{model.config.n_vars}"
        )
    if ds.length < t_len:
        raise TrainingError(
            f"{args.input} has {ds.length} rows, need at least {t_len}"
        )
    starts = list(range(0, ds.length - t_len + 1, t_len))
    if starts[-1] + t_len < ds.length:
        starts.append(ds.length - t_len)  # overlapping tail window
    filled = ds.values.copy()
    done = ds.native_mask.copy()  # 1 where the value is already final
    for s in starts:
        window = Window(x=ds.values[s : s + t_len], m_obs=ds.native_mask[s : s + t_len])
        out_win = model.impute(window)
        span = slice(s, s + t_len)
        todo = done[span] == 0.0
        filled[span][todo] = out_win[todo]
        done[span][todo] = 1.0
    header, raw_rows = _read_raw_rows(args.input)
    gap_t, gap_i = np.nonzero(ds.native_mask == 0.0)
    for t, i, v in zip(gap_t.tolist(), gap_i.tolist(), filled[gap_t, gap_i].tolist()):
        raw_rows[t][i] = repr(v)
    out = Path(args.output)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(out, header, raw_rows)
    Path(str(out) + ".meta").write_text(
        f"checkpoint = {args.checkpoint}\ninput = {args.input}\n"
    )
    n_filled = int((1.0 - ds.native_mask).sum())
    print(f"wrote {out} ({n_filled} cells filled)")


def _cmd_export_latents(args) -> None:
    cfg = _load_run_config(args)
    train_cfg = _configs_for_run(cfg)
    dataset = cfg.load_dataset()
    model = _checkpoint_model(cfg, args, dataset)
    windows = held_out_windows(dataset, model.config, train_cfg)
    out = _out_dir(cfg)
    spec = MaskSpec(
        pattern=cfg["mask.pattern"],
        rate=cfg["mask.rate"],
        block_len=cfg["mask.block_len"],
        seed=derive(cfg["eval.seed"], STREAM_EVAL_MASK),
    )
    score = export_latents(model, windows, spec, str(out / "latents.csv"))
    with atomic_write(out / "alignment.txt") as fh:
        fh.write(f"{score!r}\n")
    print(f"alignment = {score!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        CsvFormatError,
        SplitError,
        MaskError,
        CheckpointError,
        TrainingError,
        EvaluationError,
        NumericError,
        DomainError,
        ShapeMismatchError,
        TapeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
