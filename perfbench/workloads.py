"""The four benchmark workloads.

Each workload is a closed-loop batch job: one client calls the program,
waits for it to return, checks the outputs, then makes the next call.  A
workload has three parts:

* ``setup(seed, workdir)`` builds the inputs from the seed (synthetic
  series, CSV files, a checkpoint) before any timing starts;
* ``run(state, k)`` is the timed call into the program on input ``k``;
* ``check(state, k, raw)`` verifies the outputs and returns an ``Outcome``.

Several inputs (``inputs``) are built per run and used in turn, so a
quality figure averages over different series rather than hanging on one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

# Program functions are called through their modules (``data.make_synthetic``,
# not an imported name) so that the traced run's wrappers see the calls.
from ibimpute import cli, data, training
from ibimpute.data import Dataset, MaskSpec
from ibimpute.model import ModelConfig
from ibimpute.training import TrainConfig

WINDOW = 96
TRAIN_STRIDE = WINDOW // 2
TEST_STRIDE = WINDOW
SPLIT = (0.6, 0.2, 0.2)
EVAL_PATTERNS = ("point", "block")
EVAL_RATES = (0.3, 0.5, 0.7)
GAP_RATE = 0.1  # share of the impute CSV's cells left empty

# The acceptance-protocol shape: train_small's, and that of the checkpoints
# eval_masks and impute_csv make in set-up.
SMALL_VARS = 7
SMALL_D_MODEL = 32
SMALL_HIDDEN = 64
SMALL_BATCH = 8


@dataclass
class Outcome:
    """What one call produced, judged against the expected outputs."""

    items: int            # work units the call completed (windows, cells, rows)
    attempted: int        # operations that could fail (steps, cells, gaps)
    failed: int
    quality: float        # the workload's MAE on this input
    digests: dict[str, str]
    problems: list[str] = field(default_factory=list)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def input_seed(seed: int, k: int) -> int:
    """Seed of the k-th input series of a run."""
    return seed * 1009 + k


def count_windows(ds: Dataset, part: int, stride: int) -> int:
    """Windows the program cuts from split part ``part`` (0 train, 1 val,
    2 test) of ``ds``, counted with its own split and windowing."""
    segment = data.chrono_split(ds, WINDOW, SPLIT)[part]
    return len(data.make_windows(segment, WINDOW, stride))


def write_series_csv(path: Path, values: np.ndarray, present: np.ndarray) -> None:
    """Header ``v1..vN``, one row per step, empty cell where ``present`` is 0."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"v{i + 1}" for i in range(values.shape[1])])
        for row, keep in zip(values.tolist(), present.tolist()):
            writer.writerow([repr(v) if k else "" for v, k in zip(row, keep)])


def run_cli(argv: list[str]) -> int:
    """One in-process ``ibimpute`` command; its stdout report is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Train:
    """``fit`` on synthetic series; an item is one training window."""

    name: str
    why: str
    n_vars: int
    length: int
    d_model: int
    hidden_dim: int
    batch_size: int
    epochs: int
    inputs: int
    setup_repeats: ClassVar[int] = 5
    item_metric: ClassVar[str] = "train_windows_per_s"
    item_unit: ClassVar[str] = "windows/s"
    quality_metric: ClassVar[str] = "best_val_mae"
    quality_unit: ClassVar[str] = "normalized"

    def configs(self) -> tuple[ModelConfig, TrainConfig]:
        model_cfg = ModelConfig(
            window_len=WINDOW, n_vars=self.n_vars,
            d_model=self.d_model, hidden_dim=self.hidden_dim,
        )
        train_cfg = TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size, seed=0,
            mask_spec=MaskSpec(pattern="point", rate=0.5), split=SPLIT,
            train_stride=TRAIN_STRIDE, val_stride=TEST_STRIDE,
        )
        return model_cfg, train_cfg

    def setup(self, seed: int, workdir: Path) -> dict:
        datasets = [
            data.make_synthetic(self.n_vars, self.length, seed=input_seed(seed, k))
            for k in range(self.inputs)
        ]
        digest = hashlib.sha256()
        for d in datasets:
            digest.update(d.values.data)  # no copy, so no transient peak in RSS
        return {
            "datasets": datasets, "workdir": workdir, "digest": digest.hexdigest(),
            # every series has the same length, so the same windows
            "train_windows": count_windows(datasets[0], 0, TRAIN_STRIDE),
        }

    def run(self, state: dict, k: int):
        model_cfg, train_cfg = self.configs()
        ckpt = state["workdir"] / f"checkpoint{k}.bin"
        return training.fit(state["datasets"][k], model_cfg, train_cfg, checkpoint_path=str(ckpt))

    def check(self, state: dict, k: int, result) -> Outcome:
        log = state["workdir"] / f"training_log{k}.csv"
        training.write_training_log(str(log), result.log_rows)
        problems = [
            f"training-log row {i} is not finite: {row}"
            for i, row in enumerate(result.log_rows)
            if not all(math.isfinite(v) for v in row[2:])
        ]
        steps = len(result.log_rows)
        expected = self.epochs * math.ceil(state["train_windows"] / self.batch_size)
        if steps != expected:
            problems.append(f"{steps} training steps, expected {expected}")
        return Outcome(
            items=self.epochs * state["train_windows"],
            attempted=steps,
            failed=steps - result.state.adam_t,  # skipped non-finite steps
            quality=result.best_val_mae,
            digests={
                "training_log.csv": sha256(log),
                "checkpoint.bin": sha256(state["workdir"] / f"checkpoint{k}.bin"),
            },
            problems=problems,
        )


@dataclass
class EvalMasks:
    """``ibimpute eval`` over point and block masks; an item is one scored
    (window, pattern, rate) cell."""

    name: str
    why: str
    length: int
    train_epochs: int
    inputs: int
    setup_repeats: ClassVar[int] = 3
    item_metric: ClassVar[str] = "eval_windows_per_s"
    item_unit: ClassVar[str] = "windows/s"
    quality_metric: ClassVar[str] = "eval_mae"
    quality_unit: ClassVar[str] = "normalized"

    def setup(self, seed: int, workdir: Path) -> dict:
        inputs = [self._setup_input(seed, k, workdir / f"in{k}") for k in range(self.inputs)]
        digest = hashlib.sha256("".join(i["digest"] for i in inputs).encode())
        return {"inputs": inputs, "digest": digest.hexdigest()}

    def _setup_input(self, seed: int, k: int, workdir: Path) -> dict:
        """A series CSV, its run config, and a checkpoint from a short ``train``."""
        workdir.mkdir(parents=True, exist_ok=True)
        ds = data.make_synthetic(SMALL_VARS, self.length, seed=input_seed(seed, k))
        series = workdir / "series.csv"
        write_series_csv(series, ds.values, ds.native_mask)
        config = workdir / "run.cfg"
        config.write_text(
            f"data.source = {series}\n"
            f"window.length = {WINDOW}\n"
            f"window.val_stride = {TEST_STRIDE}\n"
            f"model.d_model = {SMALL_D_MODEL}\n"
            f"model.hidden_dim = {SMALL_HIDDEN}\n"
            f"train.epochs = {self.train_epochs}\n"
            f"train.batch_size = {SMALL_BATCH}\n"
            f"train.split = {','.join(repr(f) for f in SPLIT)}\n"
            "mask.rate = 0.5\n"
            f"eval.patterns = {','.join(EVAL_PATTERNS)}\n"
            f"eval.rates = {','.join(repr(r) for r in EVAL_RATES)}\n"
            f"output_dir = {workdir / 'run'}\n"
        )
        code = run_cli(["train", "--config", str(config), "--quiet"])
        if code != 0:
            raise RuntimeError(f"set-up training exited with code {code}")
        digest = sha256(workdir / "run" / "checkpoint.bin")
        scored = count_windows(ds, 2, TEST_STRIDE) * len(EVAL_PATTERNS) * len(EVAL_RATES)
        return {"config": config, "out": workdir / "run", "digest": digest, "items": scored}

    def run(self, state: dict, k: int) -> int:
        config = state["inputs"][k]["config"]
        return run_cli(["eval", "--config", str(config), "--quiet"])

    def check(self, state: dict, k: int, code: int) -> Outcome:
        cells = len(EVAL_PATTERNS) * len(EVAL_RATES)
        if code != 0:
            return Outcome(0, cells, cells, math.nan, {}, [f"eval exited with code {code}"])
        out = state["inputs"][k]["out"]
        report = out / "report.csv"
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems, failed, averages = [], 0, []
        for pattern in EVAL_PATTERNS:
            for rate in [repr(r) for r in EVAL_RATES] + ["avg"]:
                row = next(
                    (r for r in rows if r["pattern"] == pattern and r["rate"] == rate), None
                )
                ok = (
                    row is not None
                    and int(row["n_points"]) > 0
                    and math.isfinite(float(row["mae"]))
                    and math.isfinite(float(row["mse"]))
                )
                if not ok:
                    problems.append(f"report row {pattern} {rate} is missing or bad: {row}")
                    failed += rate != "avg"
                elif rate == "avg":
                    averages.append(float(row["mae"]))
        return Outcome(
            items=state["inputs"][k]["items"],
            attempted=cells,
            failed=failed,
            quality=sum(averages) / len(averages) if averages else math.nan,
            digests={
                "report.csv": sha256(report),
                "alignment.csv": sha256(out / "alignment.csv"),
            },
            problems=problems,
        )


@dataclass
class ImputeCsv:
    """``ibimpute impute`` on a CSV with gaps; an item is one CSV row."""

    name: str
    why: str
    rows: int
    fit_length: int
    train_epochs: int
    inputs: int
    setup_repeats: ClassVar[int] = 3
    item_metric: ClassVar[str] = "impute_rows_per_s"
    item_unit: ClassVar[str] = "rows/s"
    quality_metric: ClassVar[str] = "impute_mae"
    quality_unit: ClassVar[str] = "source"

    def setup(self, seed: int, workdir: Path) -> dict:
        inputs = [self._setup_input(seed, k, workdir / f"in{k}") for k in range(self.inputs)]
        digest = hashlib.sha256("".join(i["digest"] for i in inputs).encode())
        return {"inputs": inputs, "digest": digest.hexdigest()}

    def _setup_input(self, seed: int, k: int, workdir: Path) -> dict:
        """A checkpoint fitted on the head of a series, and the rest of the
        series as a CSV with gaps; the values in the gaps are kept as truth."""
        workdir.mkdir(parents=True, exist_ok=True)
        full = data.make_synthetic(
            SMALL_VARS, self.fit_length + self.rows, seed=input_seed(seed, k)
        )
        head = slice(0, self.fit_length)
        train = Dataset(full.values[head], full.native_mask[head], full.variable_names)
        model_cfg = ModelConfig(
            window_len=WINDOW, n_vars=SMALL_VARS,
            d_model=SMALL_D_MODEL, hidden_dim=SMALL_HIDDEN,
        )
        train_cfg = TrainConfig(
            epochs=self.train_epochs, batch_size=SMALL_BATCH, seed=0,
            mask_spec=MaskSpec(rate=0.5), split=SPLIT,
        )
        ckpt = workdir / "checkpoint.bin"
        training.fit(train, model_cfg, train_cfg, checkpoint_path=str(ckpt))
        truth = full.values[self.fit_length:]
        gaps = np.random.default_rng(input_seed(seed, k) % 2**63).random(truth.shape) < GAP_RATE
        gapped = workdir / "gapped.csv"
        write_series_csv(gapped, truth, ~gaps)
        digest = hashlib.sha256(ckpt.read_bytes() + gapped.read_bytes()).hexdigest()
        return {
            "checkpoint": ckpt, "input": gapped, "output": workdir / "filled.csv",
            "truth": truth, "gaps": gaps, "digest": digest,
        }

    def run(self, state: dict, k: int) -> int:
        paths = state["inputs"][k]
        return run_cli([
            "impute", "--checkpoint", str(paths["checkpoint"]),
            "--input", str(paths["input"]), "--output", str(paths["output"]),
        ])

    def impute_windows(self) -> int:
        """Windows ``impute`` runs: disjoint ones plus an overlapping tail."""
        return len(range(0, self.rows - WINDOW + 1, WINDOW)) + (self.rows % WINDOW != 0)

    def check(self, state: dict, k: int, code: int) -> Outcome:
        state = state["inputs"][k]
        gaps = state["gaps"]
        n_gaps = int(gaps.sum())
        if code != 0:
            return Outcome(0, n_gaps, n_gaps, math.nan, {}, [f"impute exited with code {code}"])
        # the input is read back here rather than kept, so that set-up's
        # memory does not add to the peak RSS
        with open(state["input"], newline="") as fh:
            cells = list(csv.reader(fh))
        with open(state["output"], newline="") as fh:
            filled = list(csv.reader(fh))
        problems = []
        if len(filled) != len(cells) or filled[0] != cells[0]:
            problems.append("filled CSV has another header or row count than the input")
            return Outcome(0, n_gaps, n_gaps, math.nan, {}, problems)
        failed, abs_err = 0, 0.0
        for t, (row_in, row_out) in enumerate(zip(cells[1:], filled[1:])):
            for i, (cell_in, cell_out) in enumerate(zip(row_in, row_out)):
                if not gaps[t, i]:
                    if cell_out != cell_in:
                        problems.append(f"observed cell ({t}, {i}) changed: {cell_in!r} -> {cell_out!r}")
                    continue
                try:
                    value = float(cell_out)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    failed += 1
                    continue
                abs_err += abs(value - state["truth"][t, i])
            if len(row_out) != len(row_in):
                problems.append(f"row {t} has {len(row_out)} cells, expected {len(row_in)}")
        if failed:
            problems.append(f"{failed} gap cells left empty or non-finite")
        return Outcome(
            items=self.rows,
            attempted=n_gaps,
            failed=failed,
            quality=float(abs_err) / max(n_gaps - failed, 1),
            digests={"filled.csv": sha256(state["output"])},
            problems=problems[:20],
        )


WORKLOADS = {
    w.name: w
    for w in (
        Train(
            name="train_small",
            why="fit at the acceptance-protocol shape: tiny steps, so per-op Python "
                "overhead (tape, Adam, clipping, point masks) sets the cost",
            n_vars=SMALL_VARS, length=20000, d_model=SMALL_D_MODEL,
            hidden_dim=SMALL_HIDDEN, batch_size=SMALL_BATCH,
            epochs=2, inputs=16,
        ),
        Train(
            name="train_wide",
            why="fit at the default width on 21 variables: GEMM-bound steps, so "
                "matmul, backward and tape memory set the cost",
            n_vars=21, length=10000, d_model=256, hidden_dim=256, batch_size=64,
            epochs=1, inputs=4,
        ),
        EvalMasks(
            name="eval_masks",
            why="untaped scoring path (checkpoint read, masks, forward, alignment); "
                "the only workload with block masks",
            length=4000, train_epochs=5, inputs=6,
        ),
        ImputeCsv(
            name="impute_csv",
            why="the only workload that parses CSV and calls model.impute once per window",
            rows=10000, fit_length=6000, train_epochs=5, inputs=6,
        ),
    )
}

