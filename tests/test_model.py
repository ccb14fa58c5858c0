import dataclasses
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from ibimpute.autodiff import Tape, Tensor, grad_check, square, tmean, tsum
from ibimpute.data import MaskSpec, Normalizer, Window, apply_mask, make_synthetic, make_windows
from ibimpute.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ImputationModel,
    LatentDistribution,
    ModelConfig,
    NumericError,
    init_params,
    load_checkpoint,
    param_views,
    reparameterize,
    save_checkpoint,
)


def _expected_param_count(cfg: ModelConfig) -> int:
    t, h, d = cfg.window_len, cfg.hidden_dim, cfg.d_model
    n = (t * h + h) + (h * h + h) + 2 * (h * d + d) + (d * h + h) + (h * t + t)
    n += d * d + d
    if cfg.use_attention:
        n += 3 * h * h
    return n


class TestInit:
    def test_seeded_and_bounded(self, tiny_model_cfg):
        a = init_params(tiny_model_cfg, seed=3)
        b = init_params(tiny_model_cfg, seed=3)
        c = init_params(tiny_model_cfg, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        bound = 1.0 / math.sqrt(tiny_model_cfg.window_len)
        assert np.max(np.abs(param_views(tiny_model_cfg, a)["encoder.embed.w"])) <= bound

    def test_biases_zero(self, tiny_model_cfg):
        params = param_views(tiny_model_cfg, init_params(tiny_model_cfg, seed=5))
        for name, arr in params.items():
            if name.endswith(".b"):
                assert np.all(arr == 0.0)

    def test_param_count(self, tiny_model_cfg):
        model = ImputationModel(tiny_model_cfg, seed=6)
        assert model.flat.size == _expected_param_count(tiny_model_cfg)

    def test_param_count_with_attention(self, tiny_model_cfg):
        cfg = dataclasses.replace(tiny_model_cfg, use_attention=True)
        model = ImputationModel(cfg, seed=6)
        assert model.flat.size == _expected_param_count(cfg)

    def test_all_trainable(self, tiny_model):
        assert all(t.trainable for t in tiny_model.params.values())


class TestModelValidation:
    def test_missing_param_rejected(self, tiny_model_cfg):
        params = param_views(tiny_model_cfg, init_params(tiny_model_cfg, seed=7))
        params.pop("projector.w")
        with pytest.raises(ValueError, match="projector.w"):
            ImputationModel(tiny_model_cfg, params=params)

    def test_unexpected_param_rejected(self, tiny_model_cfg):
        params = param_views(tiny_model_cfg, init_params(tiny_model_cfg, seed=7))
        params["stray"] = Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="stray"):
            ImputationModel(tiny_model_cfg, params=params)

    def test_wrong_shape_rejected(self, tiny_model_cfg):
        params = param_views(tiny_model_cfg, init_params(tiny_model_cfg, seed=7))
        params["projector.b"] = Tensor(np.zeros(99), trainable=True)
        with pytest.raises(ValueError, match="projector.b"):
            ImputationModel(tiny_model_cfg, params=params)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(window_len=0, n_vars=2).validate()
        with pytest.raises(ValueError):
            ModelConfig(window_len=8, n_vars=2, d_model=0).validate()


class TestForwardShapes:
    def test_encode_decode_project(self):
        cfg = ModelConfig(window_len=24, n_vars=7, d_model=16, hidden_dim=12)
        model = ImputationModel(cfg, seed=8)
        x = np.zeros((3, 24, 7))
        dist = model.encode(x)
        assert dist.mu.shape == (3, 7, 16)
        assert dist.sigma.shape == (3, 7, 16)
        assert model.decode(dist.mu).shape == (3, 24, 7)
        assert model.project(dist.mu).shape == (3, 7, 16)

    def test_unbatched_window(self, tiny_model, tiny_model_cfg):
        x = np.zeros((tiny_model_cfg.window_len, tiny_model_cfg.n_vars))
        dist = tiny_model.encode(x)
        assert dist.mu.shape == (tiny_model_cfg.n_vars, tiny_model_cfg.d_model)
        assert tiny_model.reconstruct(x).shape == x.shape

    def test_attention_forward(self):
        cfg = ModelConfig(window_len=8, n_vars=3, d_model=4, hidden_dim=6, use_attention=True)
        model = ImputationModel(cfg, seed=9)
        x = np.linspace(-1.0, 1.0, 2 * 8 * 3).reshape(2, 8, 3)
        dist = model.encode(x)
        assert dist.mu.shape == (2, 3, 4)
        assert np.all(np.isfinite(dist.mu.data))

    def test_vector_input_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.encode(np.zeros(8))


class TestForwardValues:
    def test_zero_input_hits_head_biases(self, tiny_model_cfg):
        # zero input and zero biases leave every pre-head activation at
        # zero, so mu is exactly the zero bias and sigma is exp(0)
        model = ImputationModel(tiny_model_cfg, seed=10)
        dist = model.encode(np.zeros((1, 8, 2)))
        assert np.all(dist.mu.data == 0.0)
        assert np.all(dist.sigma.data == 1.0)

    def test_sigma_always_positive(self, tiny_model, rand):
        x = rand((4, 8, 2), seed=11)
        sigma = tiny_model.encode(x).sigma.data
        assert np.all(sigma > 0.0)
        assert np.all(sigma < 1e6 + 1.0)

    def test_projector_is_affine(self, tiny_model, rand):
        a = rand((2, 4), seed=12)
        b = rand((2, 4), seed=13)
        pa = tiny_model.project(a).data
        pb = tiny_model.project(b).data
        pab = tiny_model.project(a + b).data
        bias = tiny_model.params["projector.b"].data
        assert np.max(np.abs(pab - (pa + pb - bias))) < 1e-12

    def test_forward_deterministic(self, tiny_model, rand):
        x = rand((2, 8, 2), seed=14)
        r1 = tiny_model.reconstruct(x).data
        r2 = tiny_model.reconstruct(x).data
        assert np.array_equal(r1, r2)

    def test_nonfinite_activation_names_layer(self, tiny_model, rand):
        tiny_model.params["encoder.hidden.w"].data[0, 0] = np.inf
        x = np.abs(rand((1, 8, 2), seed=15)) + 0.5
        with pytest.raises(NumericError, match="encoder.hidden"):
            tiny_model.encode(x)


class TestGradientsThroughModel:
    def test_encoder_input_gradient(self, tiny_model, rand):
        def f(at):
            dist = tiny_model.encode(at)
            return tmean(square(dist.mu)) + tmean(square(dist.sigma))

        report = grad_check(f, Tensor(rand((2, 8, 2), seed=16)), eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_decoder_weight_gradient(self, tiny_model, rand):
        z = rand((2, 2, 4), seed=17)
        original = tiny_model.params["decoder.hidden.w"]

        def f(at):
            tiny_model.params["decoder.hidden.w"] = at
            try:
                return tmean(square(tiny_model.decode(z)))
            finally:
                tiny_model.params["decoder.hidden.w"] = original

        report = grad_check(f, Tensor(original.data.copy()), eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_attention_weight_gradient(self, rand):
        cfg = ModelConfig(window_len=8, n_vars=3, d_model=4, hidden_dim=6, use_attention=True)
        model = ImputationModel(cfg, seed=18)
        x = rand((2, 8, 3), seed=19)
        original = model.params["encoder.attn.wq"]

        def f(at):
            model.params["encoder.attn.wq"] = at
            try:
                return tmean(square(model.encode(x).mu))
            finally:
                model.params["encoder.attn.wq"] = original

        report = grad_check(f, Tensor(original.data.copy()), eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


class TestReparameterize:
    def test_same_seed_same_draw(self):
        mu = Tensor(np.zeros((4, 5)))
        sigma = Tensor(np.ones((4, 5)))
        d = LatentDistribution(mu=mu, sigma=sigma)
        z1 = reparameterize(d, seed=20)
        z2 = reparameterize(d, seed=20)
        z3 = reparameterize(d, seed=21)
        assert np.array_equal(z1.data, z2.data)
        assert not np.array_equal(z1.data, z3.data)

    def test_zero_sigma_collapses_to_mu(self, rand):
        mu = Tensor(rand((3, 4), seed=22))
        d = LatentDistribution(mu=mu, sigma=Tensor(np.zeros((3, 4))))
        z = reparameterize(d, seed=23)
        assert np.array_equal(z.data, mu.data)

    def test_moments(self):
        n = 100_000
        d = LatentDistribution(mu=Tensor(np.zeros(n)), sigma=Tensor(np.ones(n)))
        z = reparameterize(d, seed=24).data
        assert abs(z.mean()) < 0.02
        assert 0.97 < z.var() < 1.03

    def test_gradient_reaches_mu_and_sigma(self, rand):
        mu = Tensor(rand((2, 3), seed=25))
        sigma = Tensor(np.abs(rand((2, 3), seed=26)) + 0.5)
        with Tape() as tape:
            tape.watch(mu)
            tape.watch(sigma)
            z = reparameterize(LatentDistribution(mu=mu, sigma=sigma), seed=27)
            loss = tsum(z)
        grads = tape.backward(loss)
        assert np.array_equal(grads.of(mu), np.ones((2, 3)))
        eps = (z.data - mu.data) / sigma.data
        assert np.max(np.abs(grads.of(sigma) - eps)) < 1e-12


class TestImpute:
    def _fitted_model(self, cfg: ModelConfig, seed: int) -> ImputationModel:
        norm = Normalizer(mean=np.zeros(cfg.n_vars), std=np.ones(cfg.n_vars))
        return ImputationModel(cfg, seed=seed, normalizer=norm)

    def test_visible_entries_pass_through(self):
        cfg = ModelConfig(window_len=16, n_vars=3, d_model=4, hidden_dim=6)
        model = self._fitted_model(cfg, seed=28)
        ds = make_synthetic(3, 16, seed=29)
        w = make_windows(ds, 16, 16)[0]
        tsw = apply_mask(w, MaskSpec(rate=0.4, seed=30))
        filled = model.impute(tsw)
        visible = tsw.m_obs * tsw.m_art
        assert np.array_equal(filled[visible == 1.0], tsw.x[visible == 1.0])
        assert np.all(np.isfinite(filled))

    def test_nothing_hidden_is_identity(self):
        cfg = ModelConfig(window_len=16, n_vars=2, d_model=4, hidden_dim=6)
        model = self._fitted_model(cfg, seed=31)
        ds = make_synthetic(2, 16, seed=32)
        w = make_windows(ds, 16, 16)[0]
        tsw = apply_mask(w, MaskSpec(rate=0.0, seed=33))
        assert np.array_equal(model.impute(tsw), tsw.x)

    def test_requires_normalizer(self, tiny_model):
        ds = make_synthetic(2, 8, seed=34)
        tsw = apply_mask(make_windows(ds, 8, 8)[0], MaskSpec(rate=0.2, seed=35))
        with pytest.raises(ValueError, match="normalizer"):
            tiny_model.impute(tsw)

    def test_deterministic(self):
        cfg = ModelConfig(window_len=16, n_vars=2, d_model=4, hidden_dim=6)
        model = self._fitted_model(cfg, seed=36)
        ds = make_synthetic(2, 16, seed=37)
        tsw = apply_mask(make_windows(ds, 16, 16)[0], MaskSpec(rate=0.5, seed=38))
        assert np.array_equal(model.impute(tsw), model.impute(tsw))


class TestCheckpoint:
    def _model_with_norm(self, cfg, seed):
        norm = Normalizer(
            mean=np.linspace(-1.0, 1.0, cfg.n_vars),
            std=np.linspace(0.5, 2.0, cfg.n_vars),
        )
        return ImputationModel(cfg, seed=seed, normalizer=norm)

    def test_round_trip_bit_exact(self, tmp_path, tiny_model_cfg):
        model = self._model_with_norm(tiny_model_cfg, seed=39)
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name].data, model.params[name].data)
        assert np.array_equal(loaded.normalizer.mean, model.normalizer.mean)
        assert np.array_equal(loaded.normalizer.std, model.normalizer.std)

    def test_round_trip_without_normalizer(self, tmp_path, tiny_model_cfg):
        model = ImputationModel(tiny_model_cfg, seed=40)
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, model)
        assert load_checkpoint(path).normalizer is None

    def test_save_is_byte_deterministic(self, tmp_path, tiny_model_cfg):
        model = self._model_with_norm(tiny_model_cfg, seed=41)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_bad_magic_rejected(self, tmp_path, tiny_model_cfg):
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, ImputationModel(tiny_model_cfg, seed=42))
        blob = bytearray(Path(path).read_bytes())
        blob[0] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, tiny_model_cfg):
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, ImputationModel(tiny_model_cfg, seed=43))
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path, tiny_model_cfg):
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, ImputationModel(tiny_model_cfg, seed=44))
        blob = bytearray(Path(path).read_bytes())
        blob[len(CHECKPOINT_MAGIC)] = 99
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob", [b'{"window_len": 8', b"\xff{}", b"[1, 2]"])
    def test_corrupt_header_rejected(self, tmp_path, tiny_model_cfg, blob):
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), ImputationModel(tiny_model_cfg, seed=47))
        raw = path.read_bytes()
        at = len(CHECKPOINT_MAGIC) + 4
        (blob_len,) = struct.unpack("<I", raw[at : at + 4])
        path.write_bytes(
            raw[:at] + struct.pack("<I", len(blob)) + blob + raw[at + 4 + blob_len :]
        )
        with pytest.raises(CheckpointError, match="corrupt config header"):
            load_checkpoint(str(path))

    def test_loaded_model_same_forward(self, tmp_path, tiny_model_cfg, rand):
        model = self._model_with_norm(tiny_model_cfg, seed=45)
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        x = rand((2, 8, 2), seed=46)
        assert np.array_equal(model.reconstruct(x).data, loaded.reconstruct(x).data)
