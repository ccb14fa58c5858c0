import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from ibimpute.autodiff import Tape, Tensor, custom_node, grad_check, matmul
from ibimpute.data import MaskSpec, Normalizer, Window, apply_mask, make_synthetic, make_windows
from ibimpute.model import (
    CHECKPOINT_MAGIC,
    LOG_STD_BOUND,
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
from ibimpute.rng import STREAM_NOISE, SplitMix64, derive


def _expected_param_count(cfg: ModelConfig) -> int:
    t, h, d = cfg.window_len, cfg.hidden_dim, cfg.d_model
    n = (t * h + h) + (h * h + h) + 2 * (h * d + d) + (d * h + h) + (h * t + t)
    n += d * d + d
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


    @pytest.mark.parametrize("widths", [(32, 64), (256, 256)], ids=["train_small", "default"])
    @pytest.mark.parametrize("lead", [(), (5,)], ids=["one_window", "batch"])
    def test_mu_only_pass_is_bits_of_the_full_pass_mu(self, rand, widths, lead):
        d_model, hidden = widths
        cfg = ModelConfig(window_len=96, n_vars=7, d_model=d_model, hidden_dim=hidden)
        model = ImputationModel(cfg, seed=16)
        x = rand((*lead, 96, 7), seed=17)
        dist = model.encode(x, mu_only=True)
        assert dist.sigma is None
        want = model.encode(x).mu.data
        assert dist.mu.data.shape == want.shape
        assert dist.mu.data.tobytes() == want.tobytes()

    def test_mu_only_pass_skips_a_non_finite_log_std_head(self, tiny_model, rand):
        tiny_model.params["encoder.log_std.b"].data[0] = np.inf
        x = np.abs(rand((1, 8, 2), seed=18)) + 0.5
        assert np.isfinite(tiny_model.encode(x, mu_only=True).mu.data).all()
        with pytest.raises(NumericError, match="encoder.log_std"):
            tiny_model.encode(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_log_std_pre_activation_raises(self, tiny_model, rand, bad):
        # the σ head clips before its exp, which would hide ±inf: the check
        # sees the pre-activation
        tiny_model.params["encoder.log_std.b"].data[1] = bad
        x = np.abs(rand((1, 8, 2), seed=18)) + 0.5
        with pytest.raises(NumericError, match="encoder.log_std"):
            tiny_model.encode(x)


def _mean_square(t, sum_all, mul):
    return mul(sum_all(mul(t, t)), Tensor(1.0 / t.data.size))


class TestGradientsThroughModel:
    def test_encoder_input_gradient(self, tiny_model, rand, sum_all, add, mul):
        def f(at):
            dist = tiny_model.encode(at)
            return add(_mean_square(dist.mu, sum_all, mul), _mean_square(dist.sigma, sum_all, mul))

        report = grad_check(f, Tensor(rand((2, 8, 2), seed=16)), eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_decoder_weight_gradient(self, tiny_model, rand, sum_all, mul):
        z = rand((2, 2, 4), seed=17)
        original = tiny_model.params["decoder.hidden.w"]

        def f(at):
            tiny_model.params["decoder.hidden.w"] = at
            try:
                return _mean_square(tiny_model.decode(z), sum_all, mul)
            finally:
                tiny_model.params["decoder.hidden.w"] = original

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

    def test_gradient_reaches_mu_and_sigma(self, rand, sum_all):
        mu = Tensor(rand((2, 3), seed=25))
        sigma = Tensor(np.abs(rand((2, 3), seed=26)) + 0.5)
        with Tape() as tape:
            tape.watch(mu)
            tape.watch(sigma)
            z = reparameterize(LatentDistribution(mu=mu, sigma=sigma), seed=27)
            loss = sum_all(z)
        grads = tape.backward(loss)
        assert np.array_equal(grads.of(mu), np.ones((2, 3)))
        eps = (z.data - mu.data) / sigma.data
        assert np.max(np.abs(grads.of(sigma) - eps)) < 1e-12


def _reference_exp(a):
    # the float ops of the deleted ``autodiff.exp``
    out = np.exp(a.data)
    return custom_node(out, (a,), lambda g, need: (g * out,))


def _reference_clip(a, lo, hi):
    # the float ops of the deleted ``autodiff.clip``
    mask = (a.data >= lo) & (a.data <= hi)
    return custom_node(np.clip(a.data, lo, hi), (a,), lambda g, need: (g * mask,))


def _reference_sigma(raw):
    return _reference_exp(_reference_clip(raw, -LOG_STD_BOUND, LOG_STD_BOUND))


def _log_std_sigma(raw):
    # the float ops of the deleted ``model.log_std_sigma``: exp of the clip as
    # one node after the affine node, which kept the pre-activation
    sigma = np.exp(np.clip(raw.data, -LOG_STD_BOUND, LOG_STD_BOUND))
    inside = (raw.data >= -LOG_STD_BOUND) & (raw.data <= LOG_STD_BOUND)
    return custom_node(sigma, (raw,), lambda g, need: ((g * sigma) * inside,))


def _sigma_head(x, w, b):
    """The σ head as :meth:`ImputationModel.encode` runs it: one affine node
    with an exp-of-clip epilogue."""
    return matmul(x, w, bias=b, exp_bound=LOG_STD_BOUND)


def _reference_sampler(dist, seed, add, mul):
    """The sampler as the ``add`` and ``mul`` nodes it was built from."""
    eps = Tensor(SplitMix64(derive(seed, STREAM_NOISE)).normals(dist.mu.shape))
    return add(dist.mu, mul(dist.sigma, eps))


def _raw_across_the_bounds():
    """Log-σ pre-activations on both sides of each bound and on the bounds."""
    b = LOG_STD_BOUND
    edges = [-b - 5.0, np.nextafter(-b, -np.inf), -b, np.nextafter(-b, np.inf), 0.0,
             np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf), b + 5.0]
    rng = np.random.default_rng(60)
    return np.concatenate([edges, rng.uniform(-2.0 * b, 2.0 * b, size=63)]).reshape(8, 9)


def _head_inputs(case):
    """``x``, ``w`` and ``b`` of a σ head: for "bounds", the identity times
    :func:`_raw_across_the_bounds` plus zero, which is those pre-activations
    exactly; for "batch", a [2, 3, 6] input whose pre-activations spread
    past both bounds."""
    if case == "bounds":
        return np.eye(8), _raw_across_the_bounds(), np.zeros(9)
    rng = np.random.default_rng(69)
    return rng.normal(size=(2, 3, 6)), 8.0 * rng.normal(size=(6, 9)), rng.normal(size=9)


class TestFusedNodes:
    """The σ head and the sampler are one node each, with the values and
    gradients, to the bit, of the chains of ops they replace: the σ head's
    affine map, clip and exp, and the sampler's mul and add."""

    @staticmethod
    def _run(f, inputs, sum_all, add, mul):
        """``f``'s value, the gradient of ``sum(f * G) + sum(inputs[0] * H)``
        for each input (the second term adds a branch, as the KL does), and
        the node count."""
        tensors = [Tensor(x) for x in inputs]
        rng = np.random.default_rng(61)
        with Tape() as tape:
            tape.watch(*tensors)
            out = f(*tensors)
            g = Tensor(rng.normal(size=out.shape))
            h = Tensor(rng.normal(size=tensors[0].shape))
            loss = add(sum_all(mul(out, g)), sum_all(mul(tensors[0], h)))
        n_nodes = len(tape.nodes)
        grads = tape.backward(loss)
        return out.data, [grads.of(t) for t in tensors], n_nodes

    def test_sigma_is_bits_of_exp_of_clip(self, sum_all, add, mul):
        for case in ("bounds", "batch"):
            inputs = _head_inputs(case)
            out, grads, nodes = self._run(_sigma_head, inputs, sum_all, add, mul)
            for sigma, n_nodes in ((_log_std_sigma, 7), (_reference_sigma, 8)):
                def head(x, w, b):
                    return sigma(matmul(x, w, bias=b))

                ref_out, ref_grads, ref_nodes = self._run(head, inputs, sum_all, add, mul)
                assert (nodes, ref_nodes) == (6, n_nodes)
                assert out.tobytes() == ref_out.tobytes(), case
                assert len(grads) == 3
                for g, ref in zip(grads, ref_grads):
                    assert g.tobytes() == ref.tobytes(), case
            x, w, b = inputs
            pre = np.abs(x @ w + b)
            assert (pre < LOG_STD_BOUND).any() and (pre > LOG_STD_BOUND).any()
            assert (pre == LOG_STD_BOUND).sum() == (2 if case == "bounds" else 0)  # -B and B

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_pre_activation_comes_back_unclipped(self, bad):
        # so the model's finiteness check sees it: clipped, ±inf would not show
        x, w, b = _head_inputs("batch")
        b[4] = bad
        out = _sigma_head(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.tobytes() == (x @ w + b).tobytes()

    def test_sampler_is_bits_of_mu_plus_sigma_eps(self, rand, sum_all, add, mul):
        mu = rand((4, 3, 5), seed=62)
        sigma = np.exp(rand((4, 3, 5), seed=63, low=-3.0, high=3.0))

        def fused(mu, sigma):
            return reparameterize(LatentDistribution(mu=mu, sigma=sigma), seed=64)

        def chain(mu, sigma):
            return _reference_sampler(LatentDistribution(mu=mu, sigma=sigma), 64, add, mul)

        out, grads, nodes = self._run(fused, (mu, sigma), sum_all, add, mul)
        ref_out, ref_grads, ref_nodes = self._run(chain, (mu, sigma), sum_all, add, mul)
        assert (nodes, ref_nodes) == (6, 7)
        assert out.tobytes() == ref_out.tobytes()
        assert len(grads) == 2
        for g, ref in zip(grads, ref_grads):
            assert g.tobytes() == ref.tobytes()

    def test_sigma_grad_check(self, sum_all):
        # entries stay 0.05 or more off the bounds, where the gradient jumps
        rng = np.random.default_rng(65)
        b = LOG_STD_BOUND
        for centre in (-b - 1.0, 0.0, b - 1.0, b + 1.0):
            at = Tensor(centre + rng.uniform(-0.95, 0.95, size=(3, 4)))
            report = grad_check(lambda t: sum_all(_sigma_head(Tensor(np.eye(3)), t, None)), at)
            assert report.passed, report.max_rel_err

    def test_sampler_grad_check(self, rand, sum_all, mul):
        mu = Tensor(rand((3, 4), seed=66))
        sigma = Tensor(np.abs(rand((3, 4), seed=67)) + 0.5)

        def loss(mu_t, sigma_t):
            z = reparameterize(LatentDistribution(mu=mu_t, sigma=sigma_t), seed=68)
            return sum_all(mul(z, z))

        assert grad_check(lambda t: loss(t, sigma), mu).passed
        assert grad_check(lambda t: loss(mu, t), sigma).passed


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

    @staticmethod
    def _saved_with_header(path, cfg, edit) -> str:
        """A saved checkpoint whose JSON header blob is replaced by ``edit(blob)``."""
        save_checkpoint(str(path), ImputationModel(cfg, seed=47))
        raw = path.read_bytes()
        at = len(CHECKPOINT_MAGIC) + 4
        (blob_len,) = struct.unpack("<I", raw[at : at + 4])
        blob = edit(raw[at + 4 : at + 4 + blob_len])
        path.write_bytes(
            raw[:at] + struct.pack("<I", len(blob)) + blob + raw[at + 4 + blob_len :]
        )
        return str(path)

    @pytest.mark.parametrize("blob", [b'{"window_len": 8', b"\xff{}", b"[1, 2]"])
    def test_corrupt_header_rejected(self, tmp_path, tiny_model_cfg, blob):
        path = self._saved_with_header(tmp_path / "model.bin", tiny_model_cfg, lambda _: blob)
        with pytest.raises(CheckpointError, match="corrupt config header"):
            load_checkpoint(path)

    def test_header_without_has_normalizer_rejected(self, tmp_path, tiny_model_cfg):
        def drop_has_normalizer(blob: bytes) -> bytes:
            header = json.loads(blob)
            del header["has_normalizer"]
            return json.dumps(header).encode("utf-8")

        path = self._saved_with_header(tmp_path / "model.bin", tiny_model_cfg, drop_has_normalizer)
        with pytest.raises(CheckpointError, match="config header missing 'has_normalizer'"):
            load_checkpoint(path)

    def test_loaded_model_same_forward(self, tmp_path, tiny_model_cfg, rand):
        model = self._model_with_norm(tiny_model_cfg, seed=45)
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        x = rand((2, 8, 2), seed=46)
        assert np.array_equal(model.reconstruct(x).data, loaded.reconstruct(x).data)
