import argparse
import csv
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ibimpute
from ibimpute import cli, config
from ibimpute.cli import main
from ibimpute.config import RunConfig
from ibimpute.data import (
    CsvFormatError,
    MaskSpec,
    Window,
    apply_mask,
    load_csv,
    normalize_window,
)
from ibimpute.evaluation import held_out_windows, latent_means, write_latents
from ibimpute.model import ImputationModel, ModelConfig, load_checkpoint, save_checkpoint
from ibimpute.rng import STREAM_EVAL_MASK, derive

TINY_CFG = """\
data.source = synthetic
data.synth_vars = 2
data.synth_steps = 240
data.synth_seed = 3
window.length = 16
window.train_stride = 8
model.d_model = 4
model.hidden_dim = 8
train.epochs = 1
train.batch_size = 4
train.seed = 5
mask.rate = 0.5
eval.rates = 0.3,0.5
"""


def _write_cfg(tmp_path, extra=""):
    out_dir = tmp_path / "run"
    text = TINY_CFG + f"output_dir = {out_dir}\n" + extra
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path), out_dir


def _train(tmp_path, extra=""):
    cfg_path, out_dir = _write_cfg(tmp_path, extra)
    rc = main(["train", "--config", cfg_path, "--quiet"])
    assert rc == 0
    return cfg_path, out_dir


def _write_csv_cfg(tmp_path, epochs=1):
    """TINY_CFG with its series written to a CSV and read back from there."""
    data = tmp_path / "data.csv"
    assert main(["synth", "--vars", "2", "--steps", "240", "--seed", "3", "--out", str(data)]) == 0
    text = TINY_CFG.replace("data.source = synthetic", f"data.source = {data}")
    text = text.replace("train.epochs = 1", f"train.epochs = {epochs}")
    path = tmp_path / "csv_run.cfg"
    path.write_text(text + f"output_dir = {tmp_path / 'run'}\n")
    return str(path), tmp_path / "run"


def _child_env() -> dict:
    """The environment of an ``ibimpute`` child that imports the package this
    test imported, installed or not."""
    src = str(Path(ibimpute.__file__).resolve().parent.parent)
    pythonpath = os.environ.get("PYTHONPATH", "")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, pythonpath]))}


class TestSynthCommand:
    def test_writes_rows_and_meta(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        rc = main(["synth", "--vars", "3", "--steps", "50", "--seed", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0] == "v1,v2,v3"
        assert (tmp_path / "data.csv.meta").exists()
        assert "50 rows" in capsys.readouterr().out

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["synth", "--vars", "2", "--steps", "30", "--seed", "4"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_vars_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--vars", "0", "--steps", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--vars", "--steps"])
    def test_series_beyond_physical_memory_exits_1_before_any_write(
        self, tmp_path, capsys, flag
    ):
        # numpy refuses 10^20 without allocating; the size check comes first
        sizes = {"--vars": "3", "--steps": "5", flag: str(10**20)}
        argv = ["synth", *[a for pair in sizes.items() for a in pair]]
        assert main(argv + ["--out", str(tmp_path / "sub" / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --vars and --steps: the synthetic series needs ")
        assert err.endswith(" bytes of physical memory\n")
        assert list(tmp_path.iterdir()) == []


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert main(["discombobulate"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_1_naming_the_file(self, tmp_path, capsys):
        cfg_path, out_dir = _write_cfg(tmp_path)
        Path(cfg_path).write_bytes(Path(cfg_path).read_bytes() + b"# \xff\n")
        assert main(["train", "--config", cfg_path, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg_path}: ")
        assert "can't decode byte 0xff" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("train", ["mask.pattern=block", "mask.block_len=200"]),
            ("ablate", ["mask.pattern=block", "mask.block_len=200"]),
            ("train", ["train.split=0.6,0.4,0.0"]),
            ("train", ["train.split=-0.2,0.6,0.6"]),
            ("eval", ["eval.patterns=point,point", "eval.rates=0.5,0.5"]),
            ("ablate", ["eval.rates=0.5,0.5"]),
        ],
    )
    def test_checks_that_need_no_data_exit_1_before_any_write(
        self, tmp_path, capsys, command, overrides
    ):
        cfg_path, out_dir = _write_cfg(tmp_path)
        argv = [command, "--config", cfg_path, "--quiet"]
        assert main(argv + [a for o in overrides for a in ("--override", o)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path, _ = _write_cfg(tmp_path)
        rc = main(["train", "--config", cfg_path, "--override", "train.epoch=2"])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, override",
        [
            ("eval", "eval.patterns=foo"),
            ("eval", "eval.rates="),
            ("eval", "eval.patterns="),
            ("ablate", "eval.rates="),
            ("train", "model.d_model=0"),
            ("train", "window.length=0"),
            ("train", "train.split=0.5,0.3,0.3"),
            ("train", "data.synth_vars=0"),
            ("train", "data.synth_steps=0"),
        ],
    )
    def test_bad_config_value_exits_1_before_any_work(self, tmp_path, capsys, command, override):
        cfg_path, out_dir = _write_cfg(tmp_path)
        assert main([command, "--config", cfg_path, "--quiet", "--override", override]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["train", "--override", "train.learning_rate=inf"],
            ["train", "--override", "train.weights.reg=nan"],
            ["train", "--override", "train.clip_norm=nan"],
            ["train", "--override", "train.adam_eps=nan"],
            ["train", "--override", "train.weights.temperature=nan"],
            ["train", "--override", "data.synth_noise_std=-1"],
            ["synth", "--noise-std", "nan"],
            ["synth", "--noise-std", "inf"],
        ],
        ids=lambda args: f"{args[0]}:{args[-1]}",
    )
    def test_non_finite_or_negative_number_exits_1_before_any_work(self, tmp_path, capsys, args):
        cfg_path, out_dir = _write_cfg(tmp_path)
        if args[0] == "synth":
            argv = args + ["--vars", "2", "--steps", "30", "--out", str(out_dir / "data.csv")]
        else:
            argv = args + ["--config", cfg_path, "--quiet"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key",
        [
            key
            for key, entry in config._REGISTRY.items()
            if entry[0] in (config._parse_int, config._parse_optint,
                            config._parse_float, config._parse_floatlist)
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "junk"])
    def test_numeric_key_refuses_non_numbers(self, tmp_path, capsys, key, value):
        cfg_path, out_dir = _write_cfg(tmp_path)
        argv = ["train", "--config", cfg_path, "--quiet", "--override", f"{key}={value}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key!r}: expected ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", sorted(config._REGISTRY))
    def test_edge_values_exit_0_1_or_2(self, tmp_path, monkeypatch, capsys, key):
        huge = ("1e308", "99999999999999999999")
        for i, value in enumerate(["-1", "0", "-0", "1e-320", *huge, ""]):
            if key == "train.epochs" and value in huge:
                continue  # which would loop that many epochs
            case = tmp_path / str(i)
            case.mkdir()
            monkeypatch.chdir(case)
            cfg_path, _ = _write_cfg(case)
            argv = ["train", "--config", cfg_path, "--quiet", "--override", f"{key}={value}"]
            try:
                rc = main(argv)
            except Exception as exc:
                pytest.fail(f"{key}={value!r}: {exc!r} escaped main")
            err = capsys.readouterr().err
            assert rc in (0, 1, 2), f"{key}={value!r} exited {rc}: {err}"
            if rc == 1:
                # a refused config writes nothing, in the run directory or beside it
                left = sorted(os.listdir(case))
                assert left == ["run.cfg"], f"{key}={value!r} left {left}: {err}"

    @pytest.mark.parametrize("item", ["model.attention=false", "train.loc_target=observed"])
    def test_removed_key_exits_1_naming_it_before_any_write(
        self, tmp_path, monkeypatch, capsys, item
    ):
        monkeypatch.chdir(tmp_path)
        cfg_path, _ = _write_cfg(tmp_path)
        assert main(["train", "--config", cfg_path, "--quiet", "--override", item]) == 1
        key = item.partition("=")[0]
        assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("key", ["output_dir", "data.source"])
    def test_empty_path_exits_1_naming_the_key_before_any_write(
        self, tmp_path, monkeypatch, capsys, key
    ):
        monkeypatch.chdir(tmp_path)
        cfg_path, _ = _write_cfg(tmp_path)
        assert main(["train", "--config", cfg_path, "--quiet", "--override", f"{key}="]) == 1
        assert capsys.readouterr().err == f"error: {key} must not be empty\n"
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_glo_variant_none_exits_1_naming_the_weight(self, tmp_path, capsys):
        cfg_path, out_dir = _write_cfg(tmp_path)
        argv = ["train", "--config", cfg_path, "--override", "train.weights.glo_variant=none"]
        assert main(argv) == 1
        assert "set train.weights.glo = 0 to turn the global term off" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_contrast_on_one_variable_with_batch_one_exits_1(self, tmp_path, capsys):
        cfg_path, _ = _write_cfg(tmp_path)
        argv = ["train", "--config", cfg_path, "--quiet"]
        for item in ("train.batch_size=1", "train.weights.glo_variant=infonce"):
            argv += ["--override", item]
        assert main(argv + ["--override", "data.synth_vars=1"]) == 1
        assert "train.batch_size must be >= 2" in capsys.readouterr().err
        assert main(argv + ["--override", "data.synth_vars=2"]) == 0


class TestRuntimeErrors:
    def test_out_of_memory_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "fit", no_memory)
        cfg_path, _ = _write_cfg(tmp_path)
        assert main(["train", "--config", cfg_path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"

    def test_overflowing_learning_rate_exits_2_without_numpy_warnings(self, tmp_path, capsys):
        # the suite turns warnings into errors, so a raw RuntimeWarning would raise here
        cfg_path, _ = _write_cfg(tmp_path)
        train = ["train", "--config", cfg_path, "--quiet", "--override"]
        synth = ["synth", "--vars", "2", "--steps", "50", "--out", str(tmp_path / "s.csv")]
        not_finite = "error: observed entries must be finite\n"
        for argv, message in [
            (train + ["train.learning_rate=1e300"],
             "error: three consecutive non-finite training steps; aborting\n"),
            (train + ["data.synth_noise_std=1e308"], not_finite),
            (synth + ["--noise-std", "1e308"], not_finite),
        ]:
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == message, argv


class TestTrainCommand:
    def test_produces_artifacts(self, tmp_path, capsys):
        _, out_dir = _train(tmp_path)
        assert (out_dir / "checkpoint.bin").exists()
        assert (out_dir / "training_log.csv").exists()
        assert (out_dir / "config_resolved.txt").exists()
        out = capsys.readouterr().out
        assert "best_epoch" in out and "best_val_mae" in out

    def test_quiet_run_is_byte_deterministic(self, tmp_path):
        _, dir_a = _train(tmp_path)
        ckpt_a = (dir_a / "checkpoint.bin").read_bytes()
        log_a = (dir_a / "training_log.csv").read_bytes()
        _, dir_b = _train(tmp_path)  # same output_dir, overwritten
        assert (dir_b / "checkpoint.bin").read_bytes() == ckpt_a
        assert (dir_b / "training_log.csv").read_bytes() == log_a

    def test_override_changes_outcome(self, tmp_path):
        cfg_path, out_dir = _write_cfg(tmp_path)
        assert main(["train", "--config", cfg_path, "--quiet"]) == 0
        base = (out_dir / "checkpoint.bin").read_bytes()
        rc = main(["train", "--config", cfg_path, "--quiet", "--override", "train.seed=6"])
        assert rc == 0
        assert (out_dir / "checkpoint.bin").read_bytes() != base


class TestEvalCommand:
    def test_report_layout(self, tmp_path, capsys):
        cfg_path, out_dir = _train(tmp_path)
        rc = main(["eval", "--config", cfg_path, "--quiet"])
        assert rc == 0
        report = (out_dir / "report.csv").read_text().splitlines()
        assert report[0] == "pattern,rate,mae,mse,n_points"
        assert len(report) == 1 + 2 + 1  # two rates plus the average row
        assert report[-1].startswith("point,avg,")
        align = (out_dir / "alignment.csv").read_text().splitlines()
        assert align[0] == "pattern,rate,alignment"
        assert len(align) == 1 + 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path, out_dir = _train(tmp_path)
        assert main(["eval", "--config", cfg_path, "--quiet"]) == 0
        first = (out_dir / "report.csv").read_bytes()
        assert main(["eval", "--config", cfg_path, "--quiet"]) == 0
        assert (out_dir / "report.csv").read_bytes() == first

    def test_config_mismatch_is_runtime_error(self, tmp_path, capsys):
        cfg_path, _ = _train(tmp_path)
        rc = main(
            ["eval", "--config", cfg_path, "--quiet", "--override", "model.d_model=8"]
        )
        assert rc == 2
        assert "trained with" in capsys.readouterr().err

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        cfg_path, _ = _write_cfg(tmp_path)
        assert main(["eval", "--config", cfg_path, "--quiet"]) == 2

    def test_nothing_to_hide_is_runtime_error(self, tmp_path, capsys):
        # same shape as the training data, but the test split has no observed cell
        cfg_path, out_dir = _train(tmp_path)
        blank = tmp_path / "blank_test.csv"
        rows = ["v1,v2"] + ["1.0,2.0"] * 192 + [","] * 48
        blank.write_text("\n".join(rows) + "\n")
        rc = main(
            ["eval", "--config", cfg_path, "--quiet", "--override", f"data.source={blank}"]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: mask pattern=point rate=0.3 hid no observed values"]
        assert not (out_dir / "report.csv").exists()


class TestDatasetCache:
    """Commands on a CSV source share one parse per run directory."""

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (["eval"], ["report.csv", "alignment.csv", "latents.csv"]),
            (["ablate", "--override", "eval.rates=0.5"], ["ablation.csv"]),
        ],
        ids=["eval", "ablate"],
    )
    def test_same_bytes_with_and_without_the_cache(self, tmp_path, monkeypatch, argv, outputs):
        cfg_path, out_dir = _write_csv_cfg(tmp_path)
        argv = argv + ["--config", cfg_path, "--quiet"]
        assert main(["train", "--config", cfg_path, "--quiet"]) == 0
        cache = out_dir / "dataset.bin"
        kept = cache.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(config, "load_csv", _no_parse)
            assert main(argv) == 0  # train's parse, not a new one
        with_cache = {name: (out_dir / name).read_bytes() for name in outputs}
        cache.unlink()
        assert main(argv) == 0
        assert {name: (out_dir / name).read_bytes() for name in outputs} == with_cache
        assert cache.read_bytes() == kept

    def test_malformed_csv_fails_as_before_and_leaves_nothing(self, tmp_path, capsys):
        cfg_path, out_dir = _write_csv_cfg(tmp_path)
        data = tmp_path / "data.csv"
        data.write_text("v1,v2\n1,2\n3\n")
        assert main(["train", "--config", cfg_path, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {data}: line 3: expected 2 cells, got 1\n"
        assert not out_dir.exists()


def _no_parse(path, raw=None):
    raise AssertionError("parsed the CSV on a cache hit")


def test_sigkilled_train_leaves_whole_files(tmp_path, monkeypatch):
    """SIGKILL a real ``ibimpute train`` child at several points of its run:
    each file it leaves under its own name is whole, and an ``eval`` on what
    it left writes what an ``eval`` from a fresh run directory writes."""
    cfg_path, _ = _write_csv_cfg(tmp_path, epochs=200)
    text = Path(cfg_path).read_text()

    def child(out_dir):
        argv = ["train", "--config", cfg_path, "--quiet", "--override", f"output_dir={out_dir}"]
        return subprocess.Popen(
            [sys.executable, "-m", "ibimpute", *argv],
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    start = time.perf_counter()
    assert child(tmp_path / "whole").wait(timeout=300) == 0
    full_run = time.perf_counter() - start
    whole_log = (tmp_path / "whole" / "training_log.csv").read_text().splitlines()
    killed = with_checkpoint = 0
    for k, share in enumerate((0.05, 0.3, 0.5, 0.7, 0.85)):
        out_dir = tmp_path / f"kill{k}"
        proc = child(out_dir)
        try:
            proc.wait(timeout=share * full_run)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGKILL)
        killed += proc.wait(timeout=60) == -signal.SIGKILL
        if (out_dir / "dataset.bin").exists():
            cfg = config.RunConfig.from_sources(text, [f"output_dir={out_dir}"])
            with monkeypatch.context() as patch:
                patch.setattr(config, "load_csv", _no_parse)
                kept = cfg.load_dataset()
            assert kept.values.tobytes() == load_csv(cfg["data.source"]).values.tobytes()
        checkpoint = out_dir / "checkpoint.bin"
        if not checkpoint.exists():
            continue
        load_checkpoint(str(checkpoint))
        # the log of each finished epoch is written before its checkpoint
        rows = (out_dir / "training_log.csv").read_text().splitlines()
        assert len(rows) > 1 and rows == whole_log[: len(rows)]
        with_checkpoint += 1
        fresh = tmp_path / f"fresh{k}"
        for run_dir in (out_dir, fresh):
            argv = ["eval", "--config", cfg_path, "--quiet", "--checkpoint", str(checkpoint)]
            assert main(argv + ["--override", f"output_dir={run_dir}"]) == 0
        assert (out_dir / "report.csv").read_bytes() == (fresh / "report.csv").read_bytes()
    assert killed >= 1 and with_checkpoint >= 1


class TestImputeCommand:
    def _input_csv(self, tmp_path):
        path = tmp_path / "holes.csv"
        rows = ["a,b"]
        for t in range(20):
            left = "" if t in (3, 7) else repr(0.1 * t)
            right = "" if t in (7, 15) else repr(1.0 - 0.05 * t)
            rows.append(f"{left},{right}")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_fills_only_missing_cells(self, tmp_path, capsys):
        _, out_dir = _train(tmp_path)
        src = self._input_csv(tmp_path)
        dst = tmp_path / "filled.csv"
        rc = main(
            [
                "impute",
                "--checkpoint",
                str(out_dir / "checkpoint.bin"),
                "--input",
                str(src),
                "--output",
                str(dst),
            ]
        )
        assert rc == 0
        assert "4 cells filled" in capsys.readouterr().out
        src_lines = src.read_text().splitlines()
        dst_lines = dst.read_text().splitlines()
        assert len(dst_lines) == len(src_lines)
        assert dst_lines[0] == "a,b"
        for s_line, d_line in zip(src_lines[1:], dst_lines[1:]):
            for s_cell, d_cell in zip(s_line.split(","), d_line.split(",")):
                if s_cell:
                    assert d_cell == s_cell  # observed cells byte-preserved
                else:
                    float(d_cell)  # every hole now holds a number

    def test_parses_input_once(self, tmp_path, monkeypatch):
        _, out_dir = _train(tmp_path)
        passes = []
        real_reader = csv.reader

        def spy_reader(*args, **kwargs):
            passes.append(args)
            return real_reader(*args, **kwargs)

        monkeypatch.setattr(csv, "reader", spy_reader)
        rc = main(
            [
                "impute",
                "--checkpoint",
                str(out_dir / "checkpoint.bin"),
                "--input",
                str(self._input_csv(tmp_path)),
                "--output",
                str(tmp_path / "filled.csv"),
            ]
        )
        assert rc == 0
        assert len(passes) == 1

    def test_variable_count_mismatch(self, tmp_path, capsys):
        _, out_dir = _train(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n" + "\n".join("1,2,3" for _ in range(20)) + "\n")
        rc = main(
            [
                "impute",
                "--checkpoint",
                str(out_dir / "checkpoint.bin"),
                "--input",
                str(bad),
                "--output",
                str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 2
        assert "variables" in capsys.readouterr().err

    def test_too_short_input(self, tmp_path, capsys):
        _, out_dir = _train(tmp_path)
        short = tmp_path / "short.csv"
        short.write_text("a,b\n1,2\n3,4\n")
        rc = main(
            [
                "impute",
                "--checkpoint",
                str(out_dir / "checkpoint.bin"),
                "--input",
                str(short),
                "--output",
                str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {short} has 2 rows, need at least 16\n"
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out.csv.meta").exists()
        args = argparse.Namespace(
            checkpoint=str(out_dir / "checkpoint.bin"), input=str(short), output="unused.csv"
        )
        with pytest.raises(CsvFormatError):  # an input-file error: no training runs
            cli._cmd_impute(args)

    def test_unreadable_input_is_one_error_line(self, tmp_path, capsys):
        _, out_dir = _train(tmp_path)
        huge = tmp_path / "huge.csv"
        huge.write_text("a,b\n1,2\n3," + "9" * 200000 + "\n")
        capsys.readouterr()
        rc = main(
            [
                "impute",
                "--checkpoint",
                str(out_dir / "checkpoint.bin"),
                "--input",
                str(huge),
                "--output",
                str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {huge}: line 3: ")
        assert not (tmp_path / "out.csv").exists()


def _reference_impute(checkpoint: str, input_path: str, output: str) -> None:
    """Reference copy of the original ``impute`` body, kept as the oracle for
    the writer that patches only the gap cells: every row is rebuilt cell by
    cell and written with ``csv.writer``."""
    model = load_checkpoint(checkpoint)
    ds = load_csv(input_path)
    t_len = model.config.window_len
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
    with open(input_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        raw_rows = list(reader)
    with open(output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, raw in enumerate(raw_rows):
            row = [
                raw[i] if ds.native_mask[t, i] == 1.0 else repr(float(filled[t, i]))
                for i in range(ds.n_vars)
            ]
            writer.writerow(row)


class TestImputeMatchesReference:
    """``impute`` output bytes equal the reference writer's, on both the
    joined-body path and the ``csv.writer`` fallback."""

    def _check(self, tmp_path, monkeypatch, out_dir, text, expect_fallback):
        src, dst, ref = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "ref.csv"
        src.write_bytes(text.encode("utf-8"))
        checkpoint = str(out_dir / "checkpoint.bin")
        _reference_impute(checkpoint, str(src), str(ref))

        fallbacks = []
        real_writer = csv.writer

        class SpyWriter:
            def __init__(self, fh):
                self._writer = real_writer(fh)
                self.writerow = self._writer.writerow

            def writerows(self, rows):
                fallbacks.append(rows)
                self._writer.writerows(rows)

        monkeypatch.setattr(csv, "writer", SpyWriter)
        rc = main(
            ["impute", "--checkpoint", checkpoint, "--input", str(src), "--output", str(dst)]
        )
        assert rc == 0
        assert dst.read_bytes() == ref.read_bytes()
        assert bool(fallbacks) == expect_fallback

    def test_lf_input_with_gaps_in_the_tail_window(self, tmp_path, monkeypatch):
        _, out_dir = _train(tmp_path)
        # 21 rows and window 16: rows 16-20 are filled by the overlapping tail window
        rows = ["a,b"]
        for t in range(21):
            left = "" if t in (3, 17, 20) else repr(0.1 * t)
            right = " " if t in (7, 18) else f" {1.0 - 0.05 * t!r} "
            rows.append(f"{left},{right}")
        text = "\n".join(rows) + "\n"
        self._check(tmp_path, monkeypatch, out_dir, text, expect_fallback=False)

    def test_quoted_input_takes_csv_writer(self, tmp_path, monkeypatch):
        _, out_dir = _train(tmp_path)
        rows = ['"a,b",c']
        for t in range(20):
            left = "" if t in (2, 19) else f'"{0.25 * t!r}"'
            right = '"0.5\n"' if t == 4 else ("" if t == 11 else repr(-0.1 * t))
            rows.append(f"{left},{right}")
        text = "\r\n".join(rows) + "\r\n"
        self._check(tmp_path, monkeypatch, out_dir, text, expect_fallback=True)

    def test_one_column(self, tmp_path, monkeypatch):
        cfg_path, out_dir = _write_cfg(tmp_path)
        rc = main(["train", "--config", cfg_path, "--quiet", "--override", "data.synth_vars=1"])
        assert rc == 0
        # an empty line would be a ragged row, so gaps are blank or quoted-empty cells
        cells = ['""' if t in (1, 18) else (" " if t == 9 else repr(0.3 * t)) for t in range(20)]
        text = "a\n" + "\n".join(cells) + "\n"
        self._check(tmp_path, monkeypatch, out_dir, text, expect_fallback=False)


class TestCheckpointWithoutNormalizer:
    """A checkpoint without a fitted normalizer can neither score nor impute."""

    @pytest.mark.parametrize("command", ["eval", "impute"])
    def test_exits_2_naming_the_file_before_any_write(self, tmp_path, capsys, command):
        bare = tmp_path / "bare.bin"
        model_cfg = ModelConfig(window_len=16, n_vars=2, d_model=4, hidden_dim=8)
        save_checkpoint(str(bare), ImputationModel(model_cfg, seed=1))
        cfg_path, out_dir = _write_cfg(tmp_path)
        src = TestImputeCommand()._input_csv(tmp_path)
        dst = tmp_path / "filled.csv"
        argv = {
            "eval": ["eval", "--config", cfg_path, "--quiet"],
            "impute": ["impute", "--input", str(src), "--output", str(dst)],
        }[command]
        argv += ["--checkpoint", str(bare)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: checkpoint {bare} carries no normalizer\n"
        assert not out_dir.exists()
        assert not dst.exists() and not (tmp_path / "filled.csv.meta").exists()


class TestEvalLatents:
    """``eval`` writes ``latents.csv`` for the config's own mask cell, from the
    latent means it scored that cell with."""

    @pytest.mark.parametrize("pattern, rate", [("point", 0.5), ("block", 0.7)])
    def test_latents_project_the_cells_latent_means(self, tmp_path, capsys, pattern, rate):
        cfg_path, out_dir = _train(tmp_path)
        cell = [f"mask.pattern={pattern}", f"mask.rate={rate}"]
        grid = ["eval.patterns=point,block", "eval.rates=0.3,0.5,0.7"]
        argv = ["eval", "--config", cfg_path, "--quiet"]
        for item in cell + grid:
            argv += ["--override", item]
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        cfg = RunConfig.from_sources(Path(cfg_path).read_text(), cell)
        model = load_checkpoint(str(out_dir / "checkpoint.bin"))
        windows = held_out_windows(cfg.load_dataset(), model.config, cfg.train_config())
        normed = [normalize_window(w, model.normalizer) for w in windows]
        spec = MaskSpec(pattern=pattern, rate=rate, block_len=4, seed=derive(1, STREAM_EVAL_MASK))
        mu = latent_means(model, [apply_mask(w, spec) for w in normed])
        expected = tmp_path / "expected.csv"
        write_latents(str(expected), mu, latent_means(model, normed, full=True))
        written = (out_dir / "latents.csv").read_bytes()
        assert written == expected.read_bytes()
        lines = written.decode().splitlines()
        assert lines[0] == "window,variable,branch,pc1,pc2"
        assert len(lines) == 1 + 12  # 3 test windows x 2 variables x 2 branches

    @pytest.mark.parametrize(
        "override, why",
        [
            ("mask.rate=0.7",
             "mask.pattern=point mask.rate=0.7 is not a cell of eval.patterns x eval.rates"),
            ("model.d_model=1", "write_latents: need at least 2 latent dimensions"),
            ("window.val_stride=48", "write_latents: need at least 3 embeddings, got 2"),
        ],
        ids=["cell-not-in-grid", "one-latent-dim", "one-test-window"],
    )
    def test_unwritable_latents_still_score(self, tmp_path, capsys, override, why):
        cfg_path, out_dir = _write_cfg(tmp_path)
        argv = ["--config", cfg_path, "--quiet", "--override", override]
        assert main(["train", *argv]) == 0
        capsys.readouterr()
        assert main(["eval", *argv]) == 0
        assert capsys.readouterr().err == f"eval: wrote no latents.csv: {why}\n"
        assert (out_dir / "report.csv").is_file() and (out_dir / "alignment.csv").is_file()
        assert not (out_dir / "latents.csv").exists()


class TestForwardPasses:
    """Untaped passes compute latent means only: the log-σ head runs once per
    taped training step and never in inference, validation or scoring."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Counts of encoder passes without and with the σ head, of decodes,
        and of log-σ layers computed."""
        counts = dict.fromkeys(["mu_only", "with_sigma", "decode", "log_std"], 0)
        encode, decode, affine = (
            ImputationModel.encode, ImputationModel.decode, ImputationModel._affine
        )

        def spy_encode(self, x, **kwargs):
            counts["mu_only" if kwargs.get("mu_only") else "with_sigma"] += 1
            return encode(self, x, **kwargs)

        def spy_decode(self, z):
            counts["decode"] += 1
            return decode(self, z)

        def spy_affine(self, name, *args, **kwargs):
            counts["log_std"] += name == "encoder.log_std"
            return affine(self, name, *args, **kwargs)

        monkeypatch.setattr(ImputationModel, "encode", spy_encode)
        monkeypatch.setattr(ImputationModel, "decode", spy_decode)
        monkeypatch.setattr(ImputationModel, "_affine", spy_affine)
        return counts

    def test_train_computes_sigma_once_per_taped_step(self, tmp_path, passes):
        _, out_dir = _train(tmp_path)
        steps = len((out_dir / "training_log.csv").read_text().splitlines()) - 1
        assert steps > 0
        # each step's taped pass and stop-gradient target; one epoch, so one
        # validation pass over its 3 windows
        assert passes == {
            "mu_only": steps + 1, "with_sigma": steps, "decode": steps + 1, "log_std": steps
        }

    def test_eval_makes_one_masked_pass_per_cell_and_one_full_view_pass(self, tmp_path, passes):
        cfg_path, _ = _train(tmp_path)
        passes.update(dict.fromkeys(passes, 0))
        argv = ["eval", "--config", cfg_path, "--quiet"]
        argv += ["--override", "eval.patterns=point,block", "--override", "eval.rates=0.3,0.5,0.7"]
        assert main(argv) == 0
        # 2 patterns x 3 rates over the 3 test windows, one chunk
        assert passes == {"mu_only": 6 + 1, "with_sigma": 0, "decode": 6, "log_std": 0}

    def test_impute_runs_each_window_without_sigma(self, tmp_path, passes):
        _, out_dir = _train(tmp_path)
        passes.update(dict.fromkeys(passes, 0))
        src = TestImputeCommand._input_csv(None, tmp_path)
        argv = ["impute", "--checkpoint", str(out_dir / "checkpoint.bin")]
        assert main(argv + ["--input", str(src), "--output", str(tmp_path / "f.csv")]) == 0
        # 20 rows in windows of 16: one window and the overlapping tail
        assert passes == {"mu_only": 2, "with_sigma": 0, "decode": 2, "log_std": 0}


class TestAblateCommand:
    def test_four_config_grid(self, tmp_path, capsys):
        cfg_path, out_dir = _write_cfg(tmp_path)
        rc = main(
            ["ablate", "--config", cfg_path, "--quiet", "--override", "eval.rates=0.5"]
        )
        assert rc == 0
        lines = (out_dir / "ablation.csv").read_text().splitlines()
        assert lines[0] == "config,pattern,rate,mae,mse,n_points"
        assert len(lines) == 1 + 4
        assert "rate 0.5:" in capsys.readouterr().out


class TestSideFilesAreAtomic:
    """A failed rewrite of config_resolved.txt or a .meta file keeps the old one."""

    def _rewrite_fails(self, monkeypatch, capsys, path, argv):
        before = path.read_bytes()
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst) == path:
                raise OSError("killed mid-write")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        capsys.readouterr()
        assert main(argv) == 2
        assert "killed mid-write" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert not list(path.parent.glob("*.tmp"))

    def test_config_resolved(self, tmp_path, monkeypatch, capsys):
        cfg_path, out_dir = _train(tmp_path)
        argv = ["train", "--config", cfg_path, "--quiet", "--override", "train.seed=6"]
        self._rewrite_fails(monkeypatch, capsys, out_dir / "config_resolved.txt", argv)

    def test_synth_meta(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "data.csv"
        argv = ["synth", "--vars", "2", "--steps", "30", "--out", str(out)]
        assert main(argv + ["--seed", "2"]) == 0
        self._rewrite_fails(monkeypatch, capsys, tmp_path / "data.csv.meta", argv + ["--seed", "3"])

    def test_impute_meta(self, tmp_path, monkeypatch, capsys):
        _, out_dir = _train(tmp_path)
        src = TestImputeCommand()._input_csv(tmp_path)
        other = tmp_path / "holes2.csv"
        other.write_bytes(src.read_bytes())
        dst = tmp_path / "filled.csv"
        argv = ["impute", "--checkpoint", str(out_dir / "checkpoint.bin"), "--output", str(dst)]
        assert main(argv + ["--input", str(src)]) == 0
        self._rewrite_fails(monkeypatch, capsys, tmp_path / "filled.csv.meta", argv + ["--input", str(other)])


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ibimpute",
                "synth",
                "--vars",
                "1",
                "--steps",
                "5",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 6


_BLAS_PROBE = """
import ctypes, os
from pathlib import Path

import ibimpute

threads = None
maps = Path("/proc/self/maps").read_text().splitlines()
for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
    handle = ctypes.CDLL(lib)
    for symbol in (
        "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"
    ):
        fn = getattr(handle, symbol, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = fn()
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


class TestBlasThreads:
    """Importing ibimpute before numpy pins OpenBLAS to one thread, unless the
    environment already names a thread count."""

    def _probe(self, **env) -> list[str]:
        child_env = {k: v for k, v in _child_env().items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            capture_output=True,
            text=True,
            env={**child_env, **env},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_unset_variable_defaults_to_one_thread(self):
        variable, threads = self._probe()
        assert variable == "1"
        assert threads in ("1", "None")  # None: no OpenBLAS to ask

    def test_a_value_the_user_set_wins(self):
        variable, _ = self._probe(OPENBLAS_NUM_THREADS="3")
        assert variable == "3"
