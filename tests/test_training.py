import copy
import dataclasses
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from ibimpute.data import MaskSpec, apply_mask, make_synthetic, make_windows, normalize_window
from ibimpute.data import Normalizer, Window
from ibimpute.autodiff import Tape
from ibimpute.evaluation import masked_error_sums
from ibimpute.losses import (
    GLO_COSINE,
    GLO_INFONCE,
    LossBreakdown,
    LossWeights,
)
from ibimpute import training
from ibimpute.model import (
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
    train_step,
    validation_mae,
    write_training_log,
)

MODEL_CFG = ModelConfig(window_len=24, n_vars=3, d_model=8, hidden_dim=10)


def _assert_same_state(got: training.TrainState, want: training.TrainState) -> None:
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, dict):
            assert a.keys() == b.keys(), f.name
            assert all(np.array_equal(a[k], b[k]) for k in b), f.name
        else:
            assert a == b, f.name


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

    def test_overflowing_squares_still_clip_to_max_norm(self):
        # fit runs under np.errstate(over="ignore"); the squares overflow to inf
        grad = np.array([1e200, -1e200, 3.0])
        with np.errstate(over="ignore"):
            assert clip_gradients(grad, [2, 1], 5.0)
        assert abs(float(np.linalg.norm(grad)) - 5.0) < 1e-12
        assert np.array_equal(np.sign(grad), [1.0, -1.0, 1.0])

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
        weights = LossWeights(glo=0.0)
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

    def test_infonce_variant_runs(self):
        model = self._tiny(55)
        weights = LossWeights(glo_variant=GLO_INFONCE)
        bd, stepped = train_step(
            model, _masked_batch(seed=56), weights, Adam(0.01), step_seed=57
        )
        assert stepped and np.isfinite(bd.glo)


class TestTapedStepCost:
    """Deterministic counts of what a real :func:`train_step`'s tape holds,
    read by a spy on :meth:`Tape.backward`: its nodes, the gradient terms
    each tensor gets and, at the default width, its memory, with the cosine
    global term.  The affine layers and the loss terms are one node each."""

    variant = GLO_COSINE
    # default-width bounds: about 10% over what the step reads (MB)
    live_mb, forward_peak_mb, backward_peak_mb = 35, 39, 38

    def _step(self, cfg, n_windows, glo_weight=0.1):
        """A call of one :func:`train_step` on ``n_windows`` random windows
        with the default weights but ``glo_weight``, and the global term
        :attr:`variant`; it returns whether the update was applied."""
        rng = np.random.default_rng(70)
        shape = (cfg.window_len, cfg.n_vars)
        batch = [Window(x=rng.normal(size=shape), m_obs=np.ones(shape, dtype=bool),
                        m_art=rng.uniform(size=shape) > 0.5) for _ in range(n_windows)]
        model = ImputationModel(cfg, seed=1)
        weights = LossWeights(glo=glo_weight, glo_variant=self.variant)
        return lambda: train_step(model, batch, weights, Adam(1e-3), 0)[1]

    @staticmethod
    def _spy(monkeypatch, spy):
        """``spy(tape, loss, sweep)`` stands in for :meth:`Tape.backward`,
        whose real sweep is ``sweep``."""
        sweep = Tape.backward
        monkeypatch.setattr(Tape, "backward", lambda tape, loss: spy(tape, loss, sweep))

    def test_protocol_shape_step_records_at_most_20_nodes(self, monkeypatch):
        # 51 (cosine) when each affine layer was matmul, add and relu nodes
        # and the loss terms were chains of elementwise nodes; 35 (InfoNCE)
        # when only the InfoNCE term still was; 20 while the σ head was exp
        # and clip nodes and the sampler mul and add nodes; 18 while the
        # weighted sum was mul and add nodes; 14 while the σ head was an
        # affine node and an exp-of-clip node
        cfg = ModelConfig(window_len=96, n_vars=7, d_model=32, hidden_dim=64)
        counts = []

        def spy(tape, loss, sweep):
            counts.append(len(tape.nodes))
            return sweep(tape, loss)

        self._spy(monkeypatch, spy)
        assert self._step(cfg, 8)()
        # glo = 0: no projector and no global term
        assert self._step(cfg, 8, glo_weight=0.0)()
        assert counts == [13, 11], counts

    def test_no_tensor_gets_more_than_two_gradient_terms(self, monkeypatch):
        # train_step records the KL term before the sampler, so the sweep
        # adds mu's and sigma's two gradient terms in the other order; a
        # two-term sum has the same bytes either way, a longer one need not
        cfg = ModelConfig(window_len=96, n_vars=7, d_model=32, hidden_dim=64)
        terms = {}

        def spy(tape, loss, sweep):
            for node in tape.nodes:
                def counted(g, inputs=node.inputs, backward=node.backward):
                    grads = backward(g)
                    for t, g_t in zip(inputs, grads):
                        if g_t is not None:
                            terms[t.uid] = terms.get(t.uid, 0) + 1
                    return grads

                node.backward = counted
            return sweep(tape, loss)

        self._spy(monkeypatch, spy)
        assert self._step(cfg, 8)()
        assert max(terms.values()) == 2, terms
        # mu and sigma, the hidden layer under both heads, and z under the
        # decoder and the projector
        assert sorted(terms.values()).count(2) == 4, terms

    def test_backward_releases_every_activation(self, monkeypatch):
        cfg = ModelConfig(window_len=96, n_vars=7, d_model=32, hidden_dim=64)
        held, kept = [], []

        def spy(tape, loss, sweep):
            *interior, last = tape.nodes
            assert last.out is loss
            held.extend(node.out.data is not None for node in interior)
            grads = sweep(tape, loss)
            kept.extend(i for i, node in enumerate(tape.nodes)
                        if (node.out, node.inputs, node.backward) != (None, None, None))
            return grads

        self._spy(monkeypatch, spy)
        assert self._step(cfg, 8)()
        assert held and all(held)
        assert kept == [], f"the tape still holds nodes {kept} after the sweep"

    def test_train_step_leaves_the_tape_the_only_references(self, monkeypatch):
        # train_step's frame is alive while it sweeps: its own references to
        # the activations must be gone by then
        cfg = ModelConfig(window_len=96, n_vars=7, d_model=32, hidden_dim=64)
        alive = []

        def spy(tape, loss, sweep):
            refs = [weakref.ref(node.out.data) for node in tape.nodes[:-1]]
            grads = sweep(tape, loss)
            alive.extend(i for i, ref in enumerate(refs) if ref() is not None)
            return grads

        self._spy(monkeypatch, spy)
        assert self._step(cfg, 8)()
        assert alive == [], f"outputs of nodes {alive} outlive the sweep"

    def test_default_width_step_memory(self, monkeypatch):
        # 93.0 MB live and a 110.8 MB backward peak with the longer chains
        # (cosine); 129.8 MB and 173.2 MB with the InfoNCE chain.  Then 37.7
        # and 58.2 MB (cosine), 52.0 and 74.8 MB (InfoNCE), while the tape
        # held every activation through the sweep and the σ head and the
        # sampler were two nodes each; 32.2 and 41.4, 46.5 and 69.3 MB on a
        # copy of the taped half of the step.  The whole step read 34.3 MB
        # live, a 41.2 MB forward and a 42.6 MB backward peak (InfoNCE: 48.6,
        # 84.3 and 71.4) while the σ head's pre-activation had a node of its
        # own, the KL gradients were made before the decoder's and the cosine
        # term was whole-array; now 31.7, 35.8 and 34.8 (45.8, 81.5 and 68.6
        # while the InfoNCE term built a new [R, R] array at each of its
        # steps; in place, 45.8, 52.7 and 54.2)
        cfg = ModelConfig(window_len=96, n_vars=21)
        seen = {}

        def spy(tape, loss, sweep):
            seen["live"], seen["forward"] = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            grads = sweep(tape, loss)
            seen["backward"] = tracemalloc.get_traced_memory()[1]
            return grads

        self._spy(monkeypatch, spy)
        step = self._step(cfg, 64)
        tracemalloc.start()
        try:
            assert step()
        finally:
            tracemalloc.stop()
        mb = {key: round(value / 1e6, 1) for key, value in seen.items()}
        assert mb["live"] < self.live_mb, mb
        assert mb["forward"] < self.forward_peak_mb, mb
        assert mb["backward"] < self.backward_peak_mb, mb


class TestTapedStepCostInfonce(TestTapedStepCost):
    """The same counts with the InfoNCE global term."""

    variant = GLO_INFONCE
    live_mb, forward_peak_mb, backward_peak_mb = 50, 58, 60


class TestTrainConfigValidation:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0).validate()

    def test_contrast_needs_batch_of_two(self):
        # two latent rows: two windows of one variable, or one window of two
        cfg = TrainConfig(batch_size=1, weights=LossWeights(glo_variant=GLO_INFONCE))
        with pytest.raises(ValueError, match="batch_size"):
            cfg.validate(n_vars=1)
        cfg.validate(n_vars=2)
        cfg.validate()  # the width is not known yet

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            TrainConfig(train_stride=0).validate()

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (TrainConfig(epochs=0), "epochs must be >= 1, got 0"),
            (TrainConfig(val_stride=0), "val_stride must be >= 1, got 0"),
            (TrainConfig(weights=LossWeights(glo=-1.0)), "loss weight glo must be >= 0"),
        ],
    )
    def test_errors_name_the_field(self, cfg, message):
        with pytest.raises(ValueError) as excinfo:
            cfg.validate()
        assert str(excinfo.value) == message


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

    def test_resume_is_bit_exact(self, small_dataset, small_train_cfg):
        full = fit(small_dataset, MODEL_CFG, small_train_cfg)

        part = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=7)
        resumed = fit(small_dataset, MODEL_CFG, small_train_cfg, start_state=part.state)

        for k in full.state.params:
            assert np.array_equal(full.state.params[k], resumed.state.params[k])
            assert np.array_equal(full.state.adam_m[k], resumed.state.adam_m[k])
            assert np.array_equal(full.state.adam_v[k], resumed.state.adam_v[k])
        assert full.state.adam_t == resumed.state.adam_t
        assert full.best_val_mae == resumed.best_val_mae

    def test_a_state_resumes_twice_and_stays_unchanged(self, small_dataset, small_train_cfg):
        state = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=13).state
        assert state.best_params is not None  # mid-epoch 1: every array group is set
        before = copy.deepcopy(state)
        first = fit(small_dataset, MODEL_CFG, small_train_cfg, start_state=state)
        second = fit(small_dataset, MODEL_CFG, small_train_cfg, start_state=state)
        assert first.log_rows == second.log_rows
        _assert_same_state(second.state, first.state)
        _assert_same_state(state, before)

    def test_a_stop_at_any_step_boundary_resumes_to_the_same_record(
        self, small_dataset, small_train_cfg
    ):
        cfg = dataclasses.replace(small_train_cfg, epochs=3)
        full = fit(small_dataset, MODEL_CFG, cfg)
        n_steps = full.state.global_step
        assert n_steps == 30 and [h.n_steps for h in full.history] == [10, 10, 10]
        for stop in range(n_steps + 1):  # each epoch boundary and the last step too
            part = fit(small_dataset, MODEL_CFG, cfg, max_steps=stop)
            resumed = fit(small_dataset, MODEL_CFG, cfg, start_state=part.state)
            _assert_same_state(resumed.state, full.state)
            assert resumed.history == full.history[part.state.epoch :], stop
            assert resumed.log_rows == full.log_rows[stop:], stop

    def test_the_skip_streak_survives_a_stop(self, small_dataset, small_train_cfg, monkeypatch):
        nan_bd = LossBreakdown(float("nan"), float("nan"), float("nan"), float("nan"))
        real, calls = training.train_step, []

        def skip_steps_3_to_5(*args, **kwargs):
            calls.append(None)
            return (nan_bd, False) if 3 < len(calls) <= 6 else real(*args, **kwargs)

        monkeypatch.setattr(training, "train_step", skip_steps_3_to_5)
        with pytest.raises(TrainingError, match="three consecutive"):
            fit(small_dataset, MODEL_CFG, small_train_cfg)
        calls.clear()
        part = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=5)  # skips 3 and 4
        with pytest.raises(TrainingError, match="three consecutive"):
            fit(small_dataset, MODEL_CFG, small_train_cfg, start_state=part.state)

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

    def test_log_of_each_finished_epoch_precedes_its_checkpoint(
        self, small_dataset, small_train_cfg, tmp_path, monkeypatch
    ):
        log, expected = tmp_path / "training_log.csv", tmp_path / "expected.csv"
        logged, at_checkpoint = [], []
        write_log, save = training.write_training_log, training.save_checkpoint

        def spy_log(path, rows):
            logged.append(len(rows))
            write_log(path, rows)

        def spy_save(path, model):
            # data rows of the log on disk when this epoch's checkpoint is written
            at_checkpoint.append(len(log.read_text().splitlines()) - 1 if log.exists() else None)
            save(path, model)

        monkeypatch.setattr(training, "write_training_log", spy_log)
        monkeypatch.setattr(training, "save_checkpoint", spy_save)
        result = fit(small_dataset, MODEL_CFG, small_train_cfg,
                     checkpoint_path=str(tmp_path / "best.bin"), log_path=str(log))
        per_epoch = len(result.log_rows) // small_train_cfg.epochs
        assert logged == [per_epoch * (e + 1) for e in range(small_train_cfg.epochs)]
        # epoch 0 always improves on no checkpoint; each one follows its log
        assert at_checkpoint[0] == per_epoch
        assert set(at_checkpoint) <= set(logged) and at_checkpoint == sorted(set(at_checkpoint))
        write_log(str(expected), result.log_rows)
        assert log.read_bytes() == expected.read_bytes()

    def test_log_path_holds_the_steps_before_max_steps(
        self, small_dataset, small_train_cfg, tmp_path
    ):
        log, expected = tmp_path / "training_log.csv", tmp_path / "expected.csv"
        result = fit(small_dataset, MODEL_CFG, small_train_cfg, max_steps=13, log_path=str(log))
        assert len(result.log_rows) == 13  # mid-epoch 1
        write_training_log(str(expected), result.log_rows)
        assert log.read_bytes() == expected.read_bytes()

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

    def test_an_early_stopped_state_resumes_to_itself(self, small_dataset):
        cfg = TrainConfig(epochs=30, batch_size=4, learning_rate=0.5, seed=13,
                          mask_spec=MaskSpec(rate=0.3), train_stride=6, early_stop_patience=2)
        stopped = fit(small_dataset, MODEL_CFG, cfg)
        assert stopped.state.epoch < 30
        resumed = fit(small_dataset, MODEL_CFG, cfg, start_state=stopped.state)
        assert resumed.history == [] and resumed.log_rows == []
        _assert_same_state(resumed.state, stopped.state)

    def test_three_consecutive_aborts_raise(self, small_dataset, small_train_cfg, monkeypatch):
        nan_bd = LossBreakdown(float("nan"), float("nan"), float("nan"), float("nan"))
        monkeypatch.setattr(
            "ibimpute.training.train_step", lambda *a, **k: (nan_bd, False)
        )
        with pytest.raises(TrainingError, match="three consecutive"):
            fit(small_dataset, MODEL_CFG, small_train_cfg)

    @pytest.mark.parametrize("batch_size", [2, 4, 7])
    def test_infonce_survives_a_trailing_one_row_batch(self, batch_size):
        # one variable and 29 training windows: the last batch is a single
        # window, so a single latent row with no negatives
        model_cfg = ModelConfig(window_len=16, n_vars=1, d_model=8, hidden_dim=8)
        weights = LossWeights(glo_variant=GLO_INFONCE)
        train_cfg = TrainConfig(epochs=1, batch_size=batch_size, weights=weights)
        result = fit(make_synthetic(1, 400, seed=1), model_cfg, train_cfg)
        assert len(result.log_rows) == math.ceil(29 / batch_size)
        *_, glo, total = result.log_rows[-1]
        assert glo == 0.0 and math.isfinite(total)

    def test_infonce_trains_batches_of_one_window_on_two_variables(self):
        model_cfg = ModelConfig(window_len=16, n_vars=2, d_model=8, hidden_dim=8)
        weights = LossWeights(glo_variant=GLO_INFONCE)
        train_cfg = TrainConfig(epochs=1, batch_size=1, weights=weights)
        result = fit(make_synthetic(2, 160, seed=1), model_cfg, train_cfg)
        assert all(glo != 0.0 and math.isfinite(total) for *_, glo, total in result.log_rows)
        with pytest.raises(ValueError, match="batch_size"):
            fit(make_synthetic(1, 160, seed=1), dataclasses.replace(model_cfg, n_vars=1), train_cfg)

    def test_one_epoch_memory(self):
        # one epoch at the acceptance-protocol shape on a 20000 x 7 series:
        # a 10.81 MB traced peak while masks were float64 and every window a
        # copy of its series, 3.24 MB with bool masks and window views
        model_cfg = ModelConfig(window_len=96, n_vars=7, d_model=32, hidden_dim=64)
        train_cfg = TrainConfig(epochs=1, batch_size=8, seed=0, mask_spec=MaskSpec(rate=0.5))
        ds = make_synthetic(7, 20000, seed=3)
        tracemalloc.start()
        try:
            fit(ds, model_cfg, train_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6e6, f"traced peak {peak / 1e6:.2f} MB"

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
    def test_seeded_model(self):
        _assert_flat_model(ImputationModel(MODEL_CFG, seed=1))

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

    def test_rate_zero_scores_from_one_encoder_pass(self, monkeypatch):
        model = ImputationModel(
            ModelConfig(window_len=8, n_vars=2, d_model=4, hidden_dim=6), seed=60
        )
        masked = _masked_batch(seed=61, rate=0.0)  # 4 windows: one chunk
        abs_sum, _, count = masked_error_sums(model, masked, positions="observed")
        encodes = []
        encode = ImputationModel.encode

        def spy(self, x, **kwargs):
            encodes.append(kwargs)
            return encode(self, x, **kwargs)

        monkeypatch.setattr(ImputationModel, "encode", spy)
        assert validation_mae(model, masked) == abs_sum / count
        assert encodes == [{"mu_only": True}]

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
