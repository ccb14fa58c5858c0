"""The one on-disk container: pinned checkpoint bytes, typed reader errors
under mutation, and atomic replacement of the previous file."""

import functools
import hashlib
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibimpute.data import Normalizer, Window
from ibimpute.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ImputationModel,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)

TINY = ModelConfig(window_len=3, n_vars=2, d_model=2, hidden_dim=2)
PINNED = ModelConfig(window_len=6, n_vars=2, d_model=3, hidden_dim=4)
NORM = Normalizer(mean=np.array([0.5, -1.0]), std=np.array([2.0, 0.25]))


def _bytes_of(write) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.bin")
        write(path)
        with open(path, "rb") as fh:
            return fh.read()


@functools.lru_cache(maxsize=None)
def _checkpoint_bytes() -> bytes:
    model = ImputationModel(TINY, seed=1, normalizer=NORM)
    return _bytes_of(lambda path: save_checkpoint(path, model))


def _load(loader, blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.bin")
        with open(path, "wb") as fh:
            fh.write(blob)
        return loader(path)


def _loads_or_checkpoint_error(loader, blob: bytes) -> None:
    try:
        _load(loader, blob)
    except CheckpointError:
        pass


# (kind, position, value); positions wrap around the current length
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["cut", "flip", "insert"]),
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(blob: bytes, edits) -> bytes:
    data = bytearray(blob)
    for kind, at, value in edits:
        at %= len(data) + 1
        if kind == "cut":
            del data[at:]
        elif kind == "flip" and at < len(data):
            data[at] ^= 1 << (value % 8)
        elif kind == "insert":
            data.insert(at, value)
    return bytes(data)


class TestCheckpointBytes:
    # sha256 of save_checkpoint output; any change here breaks existing files
    @pytest.mark.parametrize(
        "with_norm, digest",
        [
            (False, "807e20c8a723bba73e8c5ad34b8dbf1f3f2132c8fa5ed06df0e291381f001966"),
            (True, "1d09780867e5c366f6bef3457f519910617ae4a80d641ac91708e10a9dd1a0ae"),
        ],
    )
    def test_bytes_are_pinned(self, with_norm, digest):
        model = ImputationModel(PINNED, seed=7, normalizer=NORM if with_norm else None)
        blob = _bytes_of(lambda path: save_checkpoint(path, model))
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_pinned_file_loads_and_imputes_the_pinned_bytes(self):
        # the file and the imputed bytes are those of the versions whose
        # encoder had an optional attention block, with that block off
        model = ImputationModel(PINNED, seed=7, normalizer=NORM)
        blob = _bytes_of(lambda path: save_checkpoint(path, model))
        assert hashlib.sha256(blob).hexdigest() == (
            "1d09780867e5c366f6bef3457f519910617ae4a80d641ac91708e10a9dd1a0ae"
        )
        window = Window(
            x=np.linspace(-2.0, 3.0, 12).reshape(6, 2),
            m_obs=np.ones((6, 2), dtype=bool),
            m_art=np.arange(12).reshape(6, 2) % 3 != 0,
        )
        filled = _load(load_checkpoint, blob).impute(window)
        assert hashlib.sha256(filled.tobytes()).hexdigest() == (
            "a0fb558d784916bb7d9b1d40cb47388fd3b233860a6d6d8c8cc4640c9a6aeca1"
        )

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CheckpointError, match="1 bytes after the last array"):
            _load(load_checkpoint, _checkpoint_bytes() + b"\0")


class TestReaderErrorsAreTyped:
    @given(edits=_EDITS)
    @settings(max_examples=400, deadline=None)
    def test_mutated_checkpoint(self, edits):
        _loads_or_checkpoint_error(load_checkpoint, _mutate(_checkpoint_bytes(), edits))

    @staticmethod
    def _at_name(name: bytes, offset: int, new: bytes) -> bytes:
        """Checkpoint bytes with ``new`` written ``offset`` bytes after ``name``."""
        blob = _checkpoint_bytes()
        at = blob.index(name) + offset
        return blob[:at] + new + blob[at + len(new) :]

    def test_non_utf8_array_name(self):
        blob = self._at_name(b"encoder.embed.w", 0, b"\xff")
        with pytest.raises(CheckpointError, match="corrupt array name"):
            _load(load_checkpoint, blob)

    def test_huge_dimension(self):
        name = b"encoder.embed.w"
        blob = self._at_name(name, len(name) + 1, b"\xff\xff\xff\xff")
        with pytest.raises(CheckpointError, match="truncated"):
            _load(load_checkpoint, blob)

    def test_more_than_64_dimensions(self):
        blob = _checkpoint_bytes()
        (blob_len,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC) + 4)
        arrays_at = len(CHECKPOINT_MAGIC) + 8 + blob_len
        record = struct.pack("<IH", 1, 1) + b"x" + struct.pack("<B", 65)
        record += struct.pack("<65I", *([1] * 64 + [0]))
        with pytest.raises(CheckpointError, match="65 dimensions"):
            _load(load_checkpoint, blob[:arrays_at] + record)

    @staticmethod
    def _with_header(key: str, value) -> bytes:
        """Checkpoint bytes whose JSON header sets ``key`` to ``value``."""
        blob = _checkpoint_bytes()
        at = len(CHECKPOINT_MAGIC) + 4
        (blob_len,) = struct.unpack_from("<I", blob, at)
        header = json.loads(blob[at + 4 : at + 4 + blob_len])
        header[key] = value
        new = json.dumps(header).encode("utf-8")
        return blob[:at] + struct.pack("<I", len(new)) + new + blob[at + 4 + blob_len :]

    def test_invalid_config_in_header(self):
        blob = self._with_header("window_len", 0)
        with pytest.raises(CheckpointError, match="window_len must be a positive int"):
            _load(load_checkpoint, blob)

    @pytest.mark.parametrize("value", [True, 1, None])
    def test_attention_in_header_rejected(self, value):
        blob = self._with_header("use_attention", value)
        match = f"header sets use_attention {value!r}; the encoder has no attention block"
        with pytest.raises(CheckpointError, match=match):
            _load(load_checkpoint, blob)


class TestAtomicWrite:
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(str(path), ImputationModel(TINY, seed=1, normalizer=NORM))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("killed mid-write")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="killed mid-write"):
            save_checkpoint(str(path), ImputationModel(TINY, seed=2, normalizer=NORM))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["checkpoint.bin"]
