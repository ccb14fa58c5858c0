import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from ibimpute.data import MaskSpec, apply_mask, make_synthetic, make_windows, normalize_window
from ibimpute.data import Normalizer
from ibimpute.losses import GLO_INFONCE, GLO_NONE, LossBreakdown, LossWeights
from ibimpute import training
from ibimpute.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ImputationModel,
    ModelConfig,
    _param_specs,
    load_checkpoint,
    save_checkpoint,
)
from ibimpute.training import (
    ADAM_BLOCK,
    Adam,
    TrainConfig,
    TrainingError,
    clip_gradients,
    fit,
    load_train_state,
    save_train_state,
    train_step,
    validation_mae,
    write_training_log,
)

MODEL_CFG = ModelConfig(window_len=24, n_vars=3, d_model=8, hidden_dim=10)


def _masked_batch(n_windows=4, seed=0, rate=0.5, n_vars=2, window_len=8):
    ds = make_synthetic(n_vars, window_len * n_windows, seed=seed)
    windows = make_windows(ds, window_len, window_len)
    norm = Normalizer(mean=np.zeros(n_vars), std=np.ones(n_vars))
    spec = MaskSpec(rate=rate, seed=seed + 1)
    return [apply_mask(normalize_window(w, norm), spec) for w in windows]


def _reference_adam_update(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference copy of the original out-of-place ``adam_update``, kept as
    the oracle for the in-place blocked :meth:`Adam.step`."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def _reference_clip_gradients(grads, max_norm):
    """Reference copy of the original per-parameter ``clip_gradients`` loop,
    kept as the oracle for the flat in-place one."""
    if max_norm <= 0.0:
        return grads
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}


def _adam_once(p, g, lr, **kwargs):
    """One :meth:`Adam.step` from zero moments: the new parameters and moments."""
    opt = Adam(lr, **kwargs)
    p = np.array(p, dtype=float)
    opt.step(p, np.asarray(g, dtype=float))
    return p, opt.m, opt.v


class TestAdamUpdate:
    def test_zero_gradient_is_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        new, m, v = _adam_once(p, np.zeros(3), lr=0.1)
        assert np.array_equal(new, p)
        assert np.all(m == 0.0) and np.all(v == 0.0)

    def test_first_step_moves_by_lr_sign(self):
        # bias correction makes m_hat = g and v_hat = g^2 at t=1, so the
        # update is lr * g / (|g| + eps), one lr in the sign direction
        p = np.array([1.0, -2.0])
        g = np.array([0.5, -3.0])
        new, _, _ = _adam_once(p, g, lr=0.01)
        assert np.max(np.abs(new - (p - 0.01 * np.sign(g)))) < 1e-6

    def test_antisymmetric_in_gradient(self):
        g = np.array([0.7, -1.1])
        up_pos, _, _ = _adam_once(np.zeros(2), g, lr=0.05)
        up_neg, _, _ = _adam_once(np.zeros(2), -g, lr=0.05)
        assert np.max(np.abs(up_pos + up_neg)) < 1e-15

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _adam_once(np.zeros(2), np.zeros(3), lr=0.1)

    def test_moments_accumulate(self):
        _, m1, v1 = _adam_once(np.zeros(1), np.array([1.0]), lr=0.1)
        assert abs(m1[0] - 0.1) < 1e-15
        assert abs(v1[0] - 0.001) < 1e-15


class TestAdamClass:
    def test_matches_manual_updates(self, rand):
        p_data = rand(6, seed=30)
        g1 = rand(6, seed=31)
        g2 = rand(6, seed=32)
        opt = Adam(lr=0.01)
        flat = p_data.copy()
        opt.step(flat, g1)
        opt.step(flat, g2)

        manual, m, v = p_data.copy(), np.zeros(6), np.zeros(6)
        for t, g in ((1, g1), (2, g2)):
            manual, m, v = _reference_adam_update(manual, g, m, v, t=t, lr=0.01)
        assert np.array_equal(flat, manual)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
        assert opt.t == 2

    def test_lazy_moment_allocation(self):
        opt = Adam(lr=0.1)
        assert opt.m is None and opt.v is None
        opt.step(np.ones(2), np.ones(2))
        assert opt.m.shape == opt.v.shape == (2,)

    @pytest.mark.parametrize(
        "size",
        [1, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1, 3 * ADAM_BLOCK + 7],
    )
    def test_blocked_step_matches_reference_bit_for_bit(self, rand, size):
        hyper = dict(lr=0.003, beta1=0.8, beta2=0.99, eps=1e-6)
        p0 = rand(size, seed=33)
        opt = Adam(**hyper)
        flat = p0.copy()
        ref, m, v = p0.copy(), np.zeros(size), np.zeros(size)
        for t in range(1, 4):
            # gradients spanning many binades exercise every rounding
            g = rand(size, seed=33 + t) * np.exp(rand(size, seed=40 + t, low=-20, high=5))
            opt.step(flat, g)
            ref, m, v = _reference_adam_update(ref, g, m, v, t, **hyper)
            assert np.array_equal(flat, ref)
            assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)

    def test_updates_the_buffer_in_place(self):
        flat = np.zeros(5)
        views = [flat[:2], flat[2:]]
        Adam(lr=0.1).step(flat, np.arange(1.0, 6.0))
        assert np.array_equal(np.concatenate(views), flat)
        assert np.all(flat < 0.0)


def _split(flat, sizes):
    return {str(k): part for k, part in enumerate(np.split(flat, np.cumsum(sizes)[:-1]))}


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        grad = np.array([0.3, 0.4])  # norm 0.5
        assert not clip_gradients(grad, [2], 5.0)
        assert np.array_equal(grad, [0.3, 0.4])

    def test_above_threshold_rescaled(self):
        grad = np.array([3.0, 0.0, 4.0])  # norm 5
        assert clip_gradients(grad, [2, 1], 1.0)
        assert abs(math.sqrt(float(np.sum(grad * grad))) - 1.0) < 1e-12
        assert abs(grad[0] / grad[2] - 3.0 / 4.0) < 1e-12

    def test_zero_threshold_disables(self):
        grad = np.array([100.0])
        assert not clip_gradients(grad, [1], 0.0)
        assert np.array_equal(grad, [100.0])

    @pytest.mark.parametrize("max_norm", [0.0, 0.5, 1e9])
    def test_matches_reference_bit_for_bit(self, rand, max_norm):
        # the real shapes' sizes, in spec order (train_small's and a BLOCK-sized one)
        sizes = [96 * 64, 64, 64 * 64, 64, 64 * 32, 32, 64 * 32, 32, ADAM_BLOCK, 3, 1]
        flat = rand(sum(sizes), seed=70) * np.exp(rand(sum(sizes), seed=71, low=-9, high=3))
        want = _reference_clip_gradients(_split(flat.copy(), sizes), max_norm)
        clip_gradients(flat, sizes, max_norm)
        got = _split(flat, sizes)
        assert all(np.array_equal(got[k], want[k]) for k in want)

    def test_partial_sums_follow_parameter_shapes(self, rand):
        # a 2-D parameter's sum over its flat slice rounds like the 2-D sum
        g = rand((256, 256), seed=72) * 1e3
        flat = g.ravel().copy()
        clip_gradients(flat, [g.size], 1.0)
        want = _reference_clip_gradients({"w": g}, 1.0)["w"]
        assert np.array_equal(flat.reshape(g.shape), want)


class TestTrainStep:
    def _tiny(self, seed):
        cfg = ModelConfig(window_len=8, n_vars=2, d_model=4, hidden_dim=6)
        return ImputationModel(cfg, seed=seed)

    def test_updates_parameters(self):
        model = self._tiny(40)
        before = {k: t.data.copy() for k, t in model.params.items()}
        batch = _masked_batch(seed=41)
        bd, stepped = train_step(model, batch, LossWeights(), Adam(0.01), step_seed=42)
        assert stepped
        assert np.isfinite(bd.total)
        changed = [k for k in before if not np.array_equal(before[k], model.params[k].data)]
        assert "encoder.embed.w" in changed and "decoder.out.w" in changed

    def test_glo_none_skips_projector(self):
        model = self._tiny(43)
        before = model.params["projector.w"].data.copy()
        weights = LossWeights(glo=0.0, glo_variant=GLO_NONE)
        train_step(model, _masked_batch(seed=44), weights, Adam(0.01), step_seed=45)
        # nothing feeds the projector, so its gradient is zero
        assert np.array_equal(model.params["projector.w"].data, before)

    def test_descent_over_seeded_trials(self):
        # hidden_dim 16 keeps every relu row alive, so the alignment term
        # never sees a degenerate all-zero target row at init
        cfg = ModelConfig(window_len=8, n_vars=2, d_model=4, hidden_dim=16)
        wins = 0
        for seed in range(100):
            model = ImputationModel(cfg, seed=seed)
            opt = Adam(0.01)
            batch = _masked_batch(seed=seed + 1000)
            before, stepped = train_step(
                model, batch, LossWeights(), opt, step_seed=seed
            )
            assert stepped
            after, _ = train_step(model, batch, LossWeights(), opt, step_seed=seed)
            if after.total < before.total:
                wins += 1
        assert wins >= 95, wins

    def test_five_steps_bit_deterministic(self):
        results = []
        for _ in range(2):
            model = self._tiny(46)
            opt = Adam(0.01)
            batch = _masked_batch(seed=47)
            for k in range(5):
                train_step(model, batch, LossWeights(), opt, step_seed=100 + k)
            results.append({k: t.data.copy() for k, t in model.params.items()})
        assert all(np.array_equal(results[0][k], results[1][k]) for k in results[0])

    def test_nonfinite_batch_aborts_without_update(self):
        model = self._tiny(48)
        before = {k: t.data.copy() for k, t in model.params.items()}
        batch = _masked_batch(seed=49)
        # poison a visible cell so the bad value reaches the forward pass
        t_idx, v_idx = np.argwhere(batch[0].m_obs * batch[0].m_art == 1.0)[0]
        batch[0].x[t_idx, v_idx] = np.inf
        with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
            bd, stepped = train_step(model, batch, LossWeights(), Adam(0.01), step_seed=50)
        assert not stepped
        assert not np.isfinite(bd.total)
        assert all(np.array_equal(before[k], model.params[k].data) for k in before)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            train_step(self._tiny(51), [], LossWeights(), Adam(0.01), step_seed=0)

    def test_hidden_loc_target_runs(self):
        model = self._tiny(52)
        bd, stepped = train_step(
            model,
            _masked_batch(seed=53, rate=0.5),
            LossWeights(),
            Adam(0.01),
            step_seed=54,
            loc_target="hidden",
        )
        assert stepped and np.isfinite(bd.total)

    def test_infonce_variant_runs(self):
        model = self._tiny(55)
        weights = LossWeights(glo_variant=GLO_INFONCE)
        bd, stepped = train_step(
            model, _masked_batch(seed=56), weights, Adam(0.01), step_seed=57
        )
        assert stepped and np.isfinite(bd.glo)


class TestTrainConfigValidation:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0).validate()

    def test_contrast_needs_batch_of_two(self):
        cfg = TrainConfig(batch_size=1, weights=LossWeights(glo_variant=GLO_INFONCE))
        with pytest.raises(ValueError, match="batch_size"):
            cfg.validate()

    def test_hidden_target_needs_masking(self):
        cfg = TrainConfig(loc_target="hidden", mask_spec=MaskSpec(rate=0.0))
        with pytest.raises(ValueError, match="hidden"):
            cfg.validate()

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            TrainConfig(train_stride=0).validate()

    def test_bad_loc_target_rejected(self):
        with pytest.raises(ValueError, match="loc_target"):
            TrainConfig(loc_target="everything").validate()


class TestFit:
    def test_history_and_log_lengths(self, small_dataset, small_train_cfg):
        result = fit(small_dataset, MODEL_CFG, small_train_cfg)
        assert len(result.history) == small_train_cfg.epochs
        n_windows = (240 - 24) // 6 + 1
        n_batches = math.ceil(n_windows / small_train_cfg.batch_size)
        assert len(result.log_rows) == small_train_cfg.epochs * n_batches
        assert result.state.global_step == small_train_cfg.epochs * n_batches

    def test_best_model_tracks_validation(self, small_dataset, small_train_cfg):
        result = fit(small_dataset, MODEL_CFG, small_train_cfg)
        maes = [h.val_mae for h in result.history]
        assert result.best_val_mae == min(maes)
        assert result.best_epoch == maes.index(min(maes))

    def test_training_reduces_validation_error(self, small_dataset):
        cfg = TrainConfig(
            epochs=5,
            batch_size=4,
            learning_rate=0.003,
            seed=11,
            mask_spec=MaskSpec(rate=0.3),
            train_stride=6,
        )
        result = fit(small_dataset, MODEL_CFG, cfg)
        maes = [h.val_mae for h in result.history]
        assert min(maes) < maes[0]

    def test_fit_is_deterministic(self, small_dataset, small_train_cfg):
        r1 = fit(small_dataset, MODEL_CFG, small_train_cfg)
        r2 = fit(small_dataset, MODEL_CFG, small_train_cfg)
        for k in r1.model.params:
            assert np.array_equal(r1.model.params[k].data, r2.model.params[k].data)
        assert r1.best_val_mae == r2.best_val_mae
        assert r1.log_rows == r2.log_rows

    def test_resume_is_bit_exact(self, small_dataset, small_train_cfg, tmp_path):
        full = fit(small_dataset, MODEL_CFG, small_train_cfg)

        part = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=7)
        path = str(tmp_path / "state.bin")
        save_train_state(path, part.state, MODEL_CFG)
        loaded_state, loaded_cfg = load_train_state(path)
        assert loaded_cfg == MODEL_CFG
        resumed = fit(small_dataset, loaded_cfg, small_train_cfg, start_state=loaded_state)

        for k in full.state.params:
            assert np.array_equal(full.state.params[k], resumed.state.params[k])
            assert np.array_equal(full.state.adam_m[k], resumed.state.adam_m[k])
            assert np.array_equal(full.state.adam_v[k], resumed.state.adam_v[k])
        assert full.state.adam_t == resumed.state.adam_t
        assert full.best_val_mae == resumed.best_val_mae

    def test_max_steps_zero_returns_init(self, small_dataset, small_train_cfg):
        result = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=0)
        fresh = ImputationModel(MODEL_CFG, seed=small_train_cfg.seed)
        for k in fresh.params:
            assert np.array_equal(result.state.params[k], fresh.params[k].data)
        assert result.state.global_step == 0

    def test_best_checkpoint_written(self, small_dataset, small_train_cfg, tmp_path):
        path = str(tmp_path / "best.bin")
        result = fit(small_dataset, MODEL_CFG, small_train_cfg, checkpoint_path=path)
        loaded = load_checkpoint(path)
        for k in result.model.params:
            assert np.array_equal(loaded.params[k].data, result.model.params[k].data)
        assert loaded.normalizer is not None

    def test_early_stopping_cuts_run_short(self, small_dataset):
        cfg = TrainConfig(
            epochs=30,
            batch_size=4,
            learning_rate=0.5,  # deliberately unstable so validation degrades
            seed=13,
            mask_spec=MaskSpec(rate=0.3),
            train_stride=6,
            early_stop_patience=2,
        )
        result = fit(small_dataset, MODEL_CFG, cfg)
        assert len(result.history) < 30

    def test_three_consecutive_aborts_raise(self, small_dataset, small_train_cfg, monkeypatch):
        nan_bd = LossBreakdown(float("nan"), float("nan"), float("nan"), float("nan"))
        monkeypatch.setattr(
            "ibimpute.training.train_step", lambda *a, **k: (nan_bd, False)
        )
        with pytest.raises(TrainingError, match="three consecutive"):
            fit(small_dataset, MODEL_CFG, small_train_cfg)

    def test_invalid_config_rejected_before_work(self, small_dataset):
        with pytest.raises(ValueError):
            fit(small_dataset, MODEL_CFG, TrainConfig(epochs=0))


def _assert_named_views(cfg, named, flat):
    """``named`` holds, in spec order, C-contiguous views of ``flat`` laid
    end to end from its first element."""
    assert list(named) == [name for name, _, _ in _param_specs(cfg)]
    at = flat.ctypes.data
    for (name, shape, _), arr in zip(_param_specs(cfg), named.values()):
        assert arr.shape == shape and arr.flags.c_contiguous, name
        assert arr.ctypes.data == at, name
        at += arr.nbytes
    assert at == flat.ctypes.data + flat.nbytes


def _assert_flat_model(model):
    assert model.flat.flags.c_contiguous and model.flat.dtype == np.float64
    named = {name: t.data for name, t in model.params.items()}
    _assert_named_views(model.config, named, model.flat)


def _live_models(monkeypatch):
    """Spy on ``train_step``: the models it trains, in call order."""
    seen = []
    real = training.train_step

    def spy(model, *args, **kwargs):
        seen.append(model)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(training, "train_step", spy)
    return seen


class TestFlatParameters:
    @pytest.mark.parametrize("attention", [False, True])
    def test_seeded_model(self, attention):
        cfg = dataclasses.replace(MODEL_CFG, use_attention=attention)
        _assert_flat_model(ImputationModel(cfg, seed=1))

    def test_model_from_named_arrays_copies_them(self):
        source = ImputationModel(MODEL_CFG, seed=2)
        model = ImputationModel(MODEL_CFG, params=source.params)
        _assert_flat_model(model)
        assert np.array_equal(model.flat, source.flat)
        assert not np.shares_memory(model.flat, source.flat)

    def test_load_checkpoint(self, tmp_path):
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, ImputationModel(MODEL_CFG, seed=3))
        _assert_flat_model(load_checkpoint(path))

    def test_adam_step_updates_the_views_in_place(self):
        model = ImputationModel(MODEL_CFG, seed=4)
        arrays = {name: t.data for name, t in model.params.items()}
        before = model.flat.copy()
        Adam(0.01).step(model.flat, np.ones_like(model.flat))
        assert not np.array_equal(model.flat, before)
        assert all(model.params[name].data is arr for name, arr in arrays.items())
        _assert_flat_model(model)

    def test_train_step_keeps_the_views(self):
        cfg = ModelConfig(window_len=8, n_vars=2, d_model=4, hidden_dim=6)
        model = ImputationModel(cfg, seed=5)
        flat, before = model.flat, model.flat.copy()
        assert train_step(model, _masked_batch(seed=6), LossWeights(), Adam(0.01), step_seed=7)[1]
        assert model.flat is flat and not np.array_equal(flat, before)
        _assert_flat_model(model)

    def test_fit_from_start_state(self, small_dataset, small_train_cfg, monkeypatch):
        part = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=13)
        live = _live_models(monkeypatch)
        fit(small_dataset, MODEL_CFG, small_train_cfg, start_state=part.state)
        assert live and all(model is live[0] for model in live)
        _assert_flat_model(live[0])
        for group in (part.state.params, part.state.adam_m, part.state.best_params):
            assert not np.shares_memory(live[0].flat, next(iter(group.values())).base)

    def test_results_share_no_memory_with_the_live_buffer(
        self, small_dataset, small_train_cfg, monkeypatch
    ):
        live = _live_models(monkeypatch)
        result = fit(small_dataset, MODEL_CFG, small_train_cfg)
        assert result.model is live[0]
        _assert_flat_model(result.model)
        state = result.state
        groups = (state.params, state.adam_m, state.adam_v, state.best_params)
        bases = [next(iter(group.values())).base for group in groups]
        for group, base in zip(groups, bases):
            # each group is views of its own flat copy
            _assert_named_views(MODEL_CFG, group, base)
            assert not np.shares_memory(base, result.model.flat)
        assert len({id(base) for base in bases}) == len(bases)

    def test_result_model_holds_the_best_parameters(self, small_dataset, small_train_cfg):
        steps_per_epoch = 10
        result = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=steps_per_epoch + 3)
        state = result.state
        best = np.concatenate([arr.ravel() for arr in state.best_params.values()])
        last = np.concatenate([arr.ravel() for arr in state.params.values()])
        assert not np.array_equal(best, last)  # three steps since validation
        assert np.array_equal(result.model.flat, best)


class TestValidationMae:
    def test_rate_zero_falls_back_to_observed(self):
        model = ImputationModel(
            ModelConfig(window_len=8, n_vars=2, d_model=4, hidden_dim=6), seed=60
        )
        masked = _masked_batch(seed=61, rate=0.0)
        mae = validation_mae(model, masked)
        assert np.isfinite(mae) and mae >= 0.0

    def test_matches_manual_computation(self):
        cfg = ModelConfig(window_len=8, n_vars=2, d_model=4, hidden_dim=6)
        model = ImputationModel(cfg, seed=62)
        masked = _masked_batch(seed=63, rate=0.5)
        got = validation_mae(model, masked)
        num = den = 0.0
        for w in masked:
            x_hat = model.reconstruct(w.x * w.m_obs * w.m_art).data
            em = w.m_obs * (1.0 - w.m_art)
            num += float(np.sum(np.abs((w.x - x_hat)) * em))
            den += float(em.sum())
        assert abs(got - num / den) < 1e-12


class TestStateSerialization:
    def test_round_trip(self, small_dataset, small_train_cfg, tmp_path):
        result = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=4)
        path = str(tmp_path / "state.bin")
        save_train_state(path, result.state, MODEL_CFG)
        loaded, cfg = load_train_state(path)
        assert cfg == MODEL_CFG
        s = result.state
        for k in s.params:
            assert np.array_equal(loaded.params[k], s.params[k])
            assert np.array_equal(loaded.adam_m[k], s.adam_m[k])
            assert np.array_equal(loaded.adam_v[k], s.adam_v[k])
        assert (loaded.adam_t, loaded.epoch, loaded.batch_idx) == (
            s.adam_t,
            s.epoch,
            s.batch_idx,
        )
        assert loaded.global_step == s.global_step
        assert loaded.best_val == s.best_val
        assert loaded.stall == s.stall

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "state.bin"
        path.write_bytes(b"NOTASTATEFILE")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_train_state(str(path))

    def test_round_trip_before_first_step(self, small_dataset, small_train_cfg, tmp_path):
        result = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=0)
        path = str(tmp_path / "state.bin")
        save_train_state(path, result.state, MODEL_CFG)
        loaded, _ = load_train_state(path)
        assert loaded.adam_m == loaded.adam_v == {}
        assert loaded.best_params is None
        for k in result.state.params:
            assert np.array_equal(loaded.params[k], result.state.params[k])

    def test_model_checkpoint_is_not_a_state(self, tmp_path):
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, ImputationModel(MODEL_CFG, seed=3))
        with pytest.raises(CheckpointError, match="not a training-state"):
            load_train_state(path)

    def test_state_is_not_a_model_checkpoint(self, small_dataset, small_train_cfg, tmp_path):
        result = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=1)
        path = str(tmp_path / "state.bin")
        save_train_state(path, result.state, MODEL_CFG)
        with pytest.raises(CheckpointError, match="not a model checkpoint"):
            load_checkpoint(path)

    @staticmethod
    def _with_header(path, small_dataset, small_train_cfg, edit):
        """A saved state whose JSON header blob is replaced by ``edit(blob)``."""
        result = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=1)
        save_train_state(str(path), result.state, MODEL_CFG)
        raw = path.read_bytes()
        at = len(CHECKPOINT_MAGIC) + 4
        (blob_len,) = struct.unpack("<I", raw[at : at + 4])
        blob = edit(raw[at + 4 : at + 4 + blob_len])
        path.write_bytes(
            raw[:at] + struct.pack("<I", len(blob)) + blob + raw[at + 4 + blob_len :]
        )
        return str(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda blob: blob[: len(blob) // 2],
            lambda blob: b"\xff" + blob[1:],
            lambda blob: b"[1, 2]",
        ],
        ids=["cut_json", "not_utf8", "not_object"],
    )
    def test_corrupt_header_rejected(self, tmp_path, small_dataset, small_train_cfg, edit):
        path = self._with_header(tmp_path / "state.bin", small_dataset, small_train_cfg, edit)
        with pytest.raises(CheckpointError, match="corrupt state header"):
            load_train_state(path)

    def test_header_missing_key_rejected(self, tmp_path, small_dataset, small_train_cfg):
        def drop_adam_t(blob):
            header = json.loads(blob)
            del header["adam_t"]
            return json.dumps(header).encode("utf-8")

        path = self._with_header(
            tmp_path / "state.bin", small_dataset, small_train_cfg, drop_adam_t
        )
        with pytest.raises(CheckpointError, match="state header missing 'adam_t'"):
            load_train_state(path)


class TestTrainingLog:
    def test_exact_file_contents(self, tmp_path):
        path = str(tmp_path / "log.csv")
        write_training_log(path, [(0, 0, 0.5, 1.0, -0.25, 1.2), (0, 1, 0.25, 0.5, 0.0, 0.75)])
        lines = Path(path).read_text().splitlines()
        assert lines == [
            "epoch,step,reg,loc,glo,total",
            "0,0,0.5,1.0,-0.25,1.2",
            "0,1,0.25,0.5,0.0,0.75",
        ]
