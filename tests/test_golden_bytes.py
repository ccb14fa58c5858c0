"""Pinned sha256 digests of training outputs.

A short deterministic fit must write the same ``training_log.csv`` and
``checkpoint.bin`` bytes, save the same mid-epoch train state and resume from
it to the same bytes.  Any change to the optimizer, the clipping or the
parameter storage that moves a single bit of a parameter shows here.
"""

import dataclasses
import hashlib

import pytest

from ibimpute.data import MaskSpec, make_synthetic
from ibimpute.model import ModelConfig
from ibimpute.training import (
    TrainConfig,
    fit,
    load_train_state,
    save_train_state,
    write_training_log,
)

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

# (use_attention, output) -> sha256
DIGESTS = {
    (False, "training_log.csv"):
        "3530168a8d7b7f78240d306ad8e3af0a767c0e8be0fd75a73b46c561774f3620",
    (False, "checkpoint.bin"):
        "ab2e6c06f4e228731fa1499b4c93ffa2226b7702cf26bde45f8bf6ac38006ff8",
    (False, "mid_state.bin"):
        "d5d7d4768e871ca67e46e7cbb4c6a0e8820cb8a849368e9a044f7fc160a8d379",
    (False, "resumed/training_log.csv"):
        "458c669a676648b0dd685a357811f30fff976a285393f7dbb4925ae9cbefcb32",
    (False, "resumed/final_state.bin"):
        "1778d1876f61874f22e9032d64059653fa2fa394636ed9095523ee996fab4db2",
    (True, "training_log.csv"):
        "6c4a44bcaed9e49a2c74f0999210ebaef32ea07a91144588d5f74989f8022658",
    (True, "checkpoint.bin"):
        "8babac226c950b8963814a55421b2d12c99128cb574214547fac421cd722d731",
    (True, "mid_state.bin"):
        "e09705511417d598a237a4e3c7fcdb3583e1da12113e45172bf00117e568030d",
    (True, "resumed/training_log.csv"):
        "c4e473f74c13c5dc19bd65c5b59459d862e1a2e79523555025fd8c95c4d0e77a",
    (True, "resumed/final_state.bin"):
        "2a40df1952755b3a56600b19de1ce8bccd671ead8c3dfc1bb4d791c43404b072",
}


def _model_cfg(attention: bool) -> ModelConfig:
    return ModelConfig(
        window_len=24, n_vars=3, d_model=8, hidden_dim=10, use_attention=attention
    )


def _outputs(out, model_cfg, train_cfg, start_state=None, max_steps=None) -> dict[str, str]:
    """Run ``fit`` into ``out``; the sha256 of each file it leaves there."""
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
    save_train_state(str(out / "final_state.bin"), result.state, model_cfg)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Per attention setting: the digests of a full fit, of the state saved
    mid-epoch and of the fit resumed from that state."""
    got = {}
    for attention in (False, True):
        root = tmp_path_factory.mktemp(f"attention_{attention}")
        model_cfg = _model_cfg(attention)
        full = _outputs(root / "full", model_cfg, TRAIN_CFG)
        part = _outputs(root / "part", model_cfg, TRAIN_CFG, max_steps=MID_EPOCH_STEP)
        state, loaded_cfg = load_train_state(str(root / "part" / "final_state.bin"))
        resumed = _outputs(root / "resumed", loaded_cfg, TRAIN_CFG, start_state=state)
        got[attention] = {
            **full,
            "mid_state.bin": part["final_state.bin"],
            **{f"resumed/{name}": digest for name, digest in resumed.items()},
        }
    return got


@pytest.mark.parametrize("attention, name", sorted(DIGESTS))
def test_output_bytes_are_pinned(outputs, attention, name):
    assert outputs[attention][name] == DIGESTS[attention, name]


@pytest.mark.parametrize("attention", [False, True])
def test_resume_ends_in_the_full_runs_state(outputs, attention):
    assert outputs[attention]["resumed/final_state.bin"] == outputs[attention]["final_state.bin"]


@pytest.mark.parametrize("attention", [False, True])
def test_clipping_fires(tmp_path, outputs, attention):
    no_clip = dataclasses.replace(TRAIN_CFG, clip_norm=0.0)
    unclipped = _outputs(tmp_path / "unclipped", _model_cfg(attention), no_clip)
    assert unclipped["checkpoint.bin"] != outputs[attention]["checkpoint.bin"]
