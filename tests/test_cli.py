import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ibimpute
from ibimpute.cli import main
from ibimpute.data import Window, load_csv
from ibimpute.model import load_checkpoint

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


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert main(["discombobulate"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

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
        ],
    )
    def test_bad_config_value_exits_1_before_any_work(self, tmp_path, capsys, command, override):
        cfg_path, out_dir = _write_cfg(tmp_path)
        assert main([command, "--config", cfg_path, "--quiet", "--override", override]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()


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


class TestExportLatentsCommand:
    def test_writes_latents_and_alignment(self, tmp_path, capsys):
        cfg_path, out_dir = _train(tmp_path)
        rc = main(["export-latents", "--config", cfg_path, "--quiet"])
        assert rc == 0
        latents = (out_dir / "latents.csv").read_text().splitlines()
        assert latents[0] == "window,variable,branch,pc1,pc2"
        # 3 test windows x 2 variables x 2 branches
        assert len(latents) == 1 + 12
        score = float((out_dir / "alignment.txt").read_text())
        assert -1.0 <= score <= 1.0
        assert "alignment =" in capsys.readouterr().out


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
        # the child imports the package this test imported, installed or not
        src = str(Path(ibimpute.__file__).resolve().parent.parent)
        pythonpath = os.environ.get("PYTHONPATH", "")
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
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, pythonpath]))},
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 6
