"""Pinned sha256 digests of training outputs and CLI artifacts.

A short deterministic fit must write the same ``training_log.csv`` and
``checkpoint.bin`` bytes, stop mid-epoch in the same train state (counters,
parameters, Adam moments and best parameters) and resume from that state to
the same bytes; so must the same fit with the InfoNCE global term and the
same fit under block masks.  Any change to the optimizer, the clipping, the
loss terms, the parameter storage or the training masks that moves a single
bit of a parameter shows here.

The CLI artifacts are pinned too: what ``train``, ``eval`` (point and block
masks, normalized and source-scale), ``export-latents`` and ``impute`` write
for a tiny config, and what ``write_csv`` writes for datasets with natively
missing cells.  Any change to the scoring arithmetic, the masking or the CSV
writers shows here.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from ibimpute.cli import main
from ibimpute.data import Dataset, MaskSpec, make_synthetic, write_csv
from ibimpute.losses import GLO_INFONCE, LossWeights
from ibimpute.model import ModelConfig, _param_specs
from ibimpute.training import TrainConfig, TrainState, fit, write_training_log

DATASET = make_synthetic(3, 400, seed=5)
TRAIN_CFG = TrainConfig(
    epochs=2,
    batch_size=4,
    seed=9,
    mask_spec=MaskSpec(pattern="point", rate=0.5),
    train_stride=6,
    clip_norm=0.05,  # far below the raw gradient norm, so every step clips
)
# 37 training windows in batches of 4: 10 steps per epoch, so step 13 is
# mid-epoch 1, after the first validation has set the best parameters
MID_EPOCH_STEP = 13

# output -> sha256; a ``state`` output is the train state's digest (see
# _state_digest), the others are files
DIGESTS = {
    "training_log.csv":
        "3530168a8d7b7f78240d306ad8e3af0a767c0e8be0fd75a73b46c561774f3620",
    "checkpoint.bin":
        "ab2e6c06f4e228731fa1499b4c93ffa2226b7702cf26bde45f8bf6ac38006ff8",
    "mid_state":
        "aabb36ac995bbc1bf07a91ced04a1f7db4b5160398b7747de1967d81f66ae586",
    "resumed/training_log.csv":
        "458c669a676648b0dd685a357811f30fff976a285393f7dbb4925ae9cbefcb32",
    "resumed/state":
        "a7b970aad14a1cd3daf900d284797afe680dbc724fe31178e41fa0e00606ae34",
}

MODEL_CFG = ModelConfig(window_len=24, n_vars=3, d_model=8, hidden_dim=10)


_COUNTERS = ("adam_t", "epoch", "batch_idx", "global_step", "best_val", "best_epoch", "stall")


def _state_digest(state: TrainState, model_cfg: ModelConfig) -> str:
    """sha256 over the counters' ``repr``, then every array of the parameters,
    the Adam moments and the best parameters as ``<f8`` bytes in spec order."""
    digest = hashlib.sha256()
    for key in _COUNTERS:
        digest.update(repr(getattr(state, key)).encode("ascii"))
    for group in (state.params, state.adam_m, state.adam_v, state.best_params):
        for name, _, _ in _param_specs(model_cfg):
            digest.update(np.ascontiguousarray(group[name], dtype="<f8").tobytes())
    return digest.hexdigest()


def _outputs(out, model_cfg, train_cfg, start_state=None, max_steps=None):
    """Run ``fit`` into ``out``: the sha256 of each file it leaves there and of
    its final train state, and that state."""
    out.mkdir()
    result = fit(
        DATASET,
        model_cfg,
        train_cfg,
        start_state=start_state,
        max_steps=max_steps,
        checkpoint_path=str(out / "checkpoint.bin"),
    )
    write_training_log(str(out / "training_log.csv"), result.log_rows)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    digests["state"] = _state_digest(result.state, model_cfg)
    return digests, result.state


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The digests of a full fit, of its state stopped mid-epoch and of the
    fit resumed from that state."""
    root = tmp_path_factory.mktemp("fit")
    full, _ = _outputs(root / "full", MODEL_CFG, TRAIN_CFG)
    part, mid_state = _outputs(root / "part", MODEL_CFG, TRAIN_CFG, max_steps=MID_EPOCH_STEP)
    resumed, _ = _outputs(root / "resumed", MODEL_CFG, TRAIN_CFG, start_state=mid_state)
    return {
        **full,
        "mid_state": part["state"],
        **{f"resumed/{name}": digest for name, digest in resumed.items()},
    }


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_are_pinned(outputs, name):
    assert outputs[name] == DIGESTS[name]


def test_resume_ends_in_the_full_runs_state(outputs):
    assert outputs["resumed/state"] == outputs["state"]


# output -> sha256 of the fit with the InfoNCE global term
INFONCE_DIGESTS = {
    "training_log.csv":
        "a1efec99c67b8f42839ee864dae17800697cc1301607fa171bf129e7fc57eac6",
    "checkpoint.bin":
        "386e54b9ee8f8c69108c08844a624bf453af014292b490f64b16a19690c71cea",
}


@pytest.fixture(scope="module")
def infonce_outputs(tmp_path_factory):
    infonce = dataclasses.replace(TRAIN_CFG, weights=LossWeights(glo_variant=GLO_INFONCE))
    return _outputs(tmp_path_factory.mktemp("infonce") / "fit", MODEL_CFG, infonce)[0]


@pytest.mark.parametrize("name", sorted(INFONCE_DIGESTS))
def test_infonce_fit_bytes_are_pinned(infonce_outputs, name):
    assert infonce_outputs[name] == INFONCE_DIGESTS[name]


# output -> sha256 of the fit under block masks
BLOCK_DIGESTS = {
    "training_log.csv":
        "fc0b90b38153c27a1db12c2066093528d7c972c0c12483c436842e1beb0a445a",
    "checkpoint.bin":
        "3e8662311b9d0934d55233f6d8302aac28e7966aaa7532559020631bd65419f7",
}


@pytest.fixture(scope="module")
def block_outputs(tmp_path_factory):
    block = dataclasses.replace(
        TRAIN_CFG, mask_spec=MaskSpec(pattern="block", rate=0.7, block_len=4)
    )
    return _outputs(tmp_path_factory.mktemp("block") / "fit", MODEL_CFG, block)[0]


@pytest.mark.parametrize("name", sorted(BLOCK_DIGESTS))
def test_block_mask_fit_bytes_are_pinned(block_outputs, name):
    assert block_outputs[name] == BLOCK_DIGESTS[name]


def test_clipping_fires(tmp_path, outputs):
    no_clip = dataclasses.replace(TRAIN_CFG, clip_norm=0.0)
    unclipped = _outputs(tmp_path / "unclipped", MODEL_CFG, no_clip)[0]
    assert unclipped["checkpoint.bin"] != outputs["checkpoint.bin"]


CLI_CFG = """\
data.source = synthetic
data.synth_vars = 2
data.synth_steps = 240
data.synth_seed = 3
window.length = 16
window.train_stride = 8
model.d_model = 4
model.hidden_dim = 8
train.epochs = 2
train.batch_size = 4
train.seed = 5
mask.rate = 0.5
eval.rates = 0.3,0.5
eval.patterns = point,block
"""

# artifact -> sha256
CLI_DIGESTS = {
    "run/checkpoint.bin":
        "c74e3fef46c0b9dcd278086705b9b2de9e4b4650af8c04f5c66568275c7af367",
    "run/report.csv":
        "1d082333937de8b462b218cde4d024c52aa577a2f5987dccbd83642e04e6ec27",
    "run/alignment.csv":
        "21324a0062caefb7b33d0d47cb443f7e7fdc2e1e19f811fe93e9b2632f01a2dd",
    "source/report.csv":
        "206db1182926da172dfaba363d6f823e9268fc1941a3931983c72a2223e07d5f",
    "run/latents.csv":
        "df238ab29ca240ebf58388a09319d5cb2d2a1cad37d08b6bf633ab7c528f19ef",
    "run/alignment.txt":
        "18cf0de1c05d3b75c6b7e4953f44485372bb61edc3498b0ef520c30986c932d1",
    "filled.csv":
        "3fd5d18699403f810d6d8445dcc2b6571e3bcb39e31a4b8316a8a173f5b522c4",
    "write_csv/gaps.csv":
        "e490535ba2e6964d4bcc604853c375cede4bee744e6b83ea043af691849545d8",
    "write_csv/one_column.csv":
        "daca9476e8984448addba938eb7fdaf4d063fe252226f7499fd189960e39b978",
}


def _impute_input() -> str:
    """40 rows of two columns with gaps, one row all missing, and gaps in
    the overlapping tail window of a 16-row model."""
    rows = ["a,b"]
    for t in range(40):
        left = "" if t in (3, 17, 25, 38) else repr(math.sin(0.3 * t))
        right = "" if t in (5, 20, 25, 39) else repr(math.cos(0.2 * t))
        rows.append(f"{left},{right}")
    return "\n".join(rows) + "\n"


def _gappy_datasets() -> dict[str, Dataset]:
    values = np.arange(24.0).reshape(8, 3) * 0.37 - 2.0
    mask = np.ones((8, 3))
    mask[1, 2] = mask[4, 0] = 0.0
    mask[6] = 0.0  # an all-missing row
    column = np.linspace(-1.0, 1.0, 6).reshape(6, 1)
    column_mask = np.array([[1.0], [0.0], [1.0], [1.0], [0.0], [1.0]])
    return {
        "gaps.csv": Dataset(values, mask, ["x", "y", "z"]),
        # a lone empty cell, which csv.writer writes as ""
        "one_column.csv": Dataset(column, column_mask, ["only"]),
    }


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CLI_CFG + f"output_dir = {root / 'run'}\n")
    for command in ("train", "eval", "export-latents"):
        assert main([command, "--config", str(cfg), "--quiet"]) == 0
    checkpoint = str(root / "run" / "checkpoint.bin")
    source_scale = [
        "--override", "eval.normalized=false", "--override", f"output_dir={root / 'source'}"
    ]
    argv = ["eval", "--config", str(cfg), "--quiet", "--checkpoint", checkpoint]
    assert main(argv + source_scale) == 0
    (root / "holes.csv").write_text(_impute_input())
    argv = ["impute", "--checkpoint", checkpoint, "--input", str(root / "holes.csv")]
    assert main(argv + ["--output", str(root / "filled.csv")]) == 0
    (root / "write_csv").mkdir()
    for name, ds in _gappy_datasets().items():
        write_csv(str(root / "write_csv" / name), ds)
    return {
        name: hashlib.sha256((root / name).read_bytes()).hexdigest()
        for name in CLI_DIGESTS
    }


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_artifact_bytes_are_pinned(cli_outputs, name):
    assert cli_outputs[name] == CLI_DIGESTS[name]
