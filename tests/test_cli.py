import subprocess
import sys

import pytest

from ibimpute.cli import main

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
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 6
