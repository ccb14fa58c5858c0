"""The harness on tiny versions of the workloads: checks, counts, repeats."""

from dataclasses import replace

import pytest

import harness
from spans import wrapped_names
from workloads import WINDOW, WORKLOADS

TINY = {
    "train_small": dict(length=1200, epochs=2, inputs=2),
    "train_wide": dict(length=1200, epochs=1, inputs=2, d_model=16, hidden_dim=16),
    "eval_masks": dict(length=1500, train_epochs=1, inputs=1),
    "impute_csv": dict(rows=500, fit_length=1200, train_epochs=1, inputs=1),
}


def n_windows(length: int, stride: int) -> int:
    return len(range(0, length - WINDOW + 1, stride))


def split_lengths(length: int) -> tuple[int, int, int]:
    """Train, val and test lengths of a 0.6/0.2/0.2 time-order split."""
    n_train, n_val = int(0.6 * length), int(0.2 * length)
    return n_train, n_val, length - n_train - n_val


def tiny(name):
    return replace(WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of every tiny workload on the same seed."""
    out = {}
    for name in TINY:
        out[name] = [
            harness.measure(tiny(name), 3, 0.0, True, tmp_path_factory.mktemp(name))
            for _ in range(2)
        ]
    return out


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_passes_checks_and_leaves_no_wrapper(traced, name):
    for result in traced[name]:
        assert result.correct, result.problems
        d = result.details
        assert d["self_time_sum_s"] == pytest.approx(d["traced_wall_s"], rel=1e-9)
    assert wrapped_names() == []


@pytest.mark.parametrize("name", list(TINY))
def test_count_metrics_repeat_exactly(traced, name):
    first, second = traced[name]
    for metric in ("autodiff.nodes_per_step", "training.steps", "training.skipped_steps",
                   "data.apply_mask_calls", "model.impute_calls", "autodiff.matmul_gflop"):
        assert first.metrics[metric] == second.metrics[metric], metric
    assert first.details["digests"] == second.details["digests"]


@pytest.mark.parametrize("name", ["train_small", "train_wide"])
def test_training_counts_match_the_inputs(traced, name):
    w = tiny(name)
    result = traced[name][0]
    n_train, n_val, _ = split_lengths(w.length)
    train_windows = n_windows(n_train, WINDOW // 2)
    steps_per_epoch = -(-train_windows // w.batch_size)
    # one training-log row per step: attempted counts the log rows
    assert result.attempted / w.inputs == result.metrics["training.steps"]
    assert set(result.details["items"].values()) == {w.epochs * train_windows}
    assert result.metrics["training.steps"] == w.epochs * steps_per_epoch
    assert result.metrics["data.apply_mask_calls"] == (
        w.epochs * train_windows + n_windows(n_val, WINDOW)
    )
    assert result.metrics["autodiff.nodes_per_step"] > 0
    assert result.metrics["model.impute_calls"] == 0


def test_eval_counts_match_the_inputs(traced):
    w = tiny("eval_masks")
    result = traced["eval_masks"][0]
    _, _, n_test = split_lengths(w.length)
    scored = n_windows(n_test, WINDOW) * 6  # 2 patterns x 3 rates
    assert result.details["items"] == {"0": scored}
    assert result.metrics["data.apply_mask_calls"] == scored
    assert result.metrics["data.apply_mask_block_s"] > 0
    assert result.metrics["training.steps"] == 0


def test_impute_counts_match_the_inputs(traced):
    w = tiny("impute_csv")
    result = traced["impute_csv"][0]
    assert result.metrics["model.impute_calls"] == w.impute_windows()
    assert result.metrics["data.load_csv_s"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_positive_end_to_end_metrics(tmp_path, name):
    result = harness.measure(tiny(name), 5, 0.0, False, tmp_path / "work")
    assert result.correct, result.problems
    assert set(result.metrics) == {"setup_s", "throughput_per_s", "mae", "peak_rss_mb"}
    assert all(v > 0 for v in result.metrics.values())
    assert result.failed == 0 and result.attempted > 0
    assert not (tmp_path / "work").exists()


def test_benchmark_json_lists_what_the_harness_reports():
    import json
    from pathlib import Path

    import layers
    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
