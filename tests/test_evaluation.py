import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

from ibimpute.autodiff import Tensor, transpose
from ibimpute.data import (
    MaskSpec,
    Normalizer,
    Window,
    apply_mask,
    make_synthetic,
    make_windows,
    normalize_window,
    stack_windows,
)
from ibimpute.evaluation import (
    ABLATION_CONFIGS,
    ABLATION_FULL,
    ABLATION_LOC_ONLY,
    EvaluationError,
    alignment_score,
    average_entry,
    evaluate,
    held_out_windows,
    latent_means,
    masked_error_sums,
    point_metrics,
    run_ablation,
    write_ablation_csv,
    write_latents,
    write_sweep_csv,
    _CHUNK,
    _error_sums,
    _pca_components,
)
from ibimpute.losses import LossWeights
from ibimpute.model import ImputationModel, LatentDistribution, ModelConfig
from ibimpute.training import TrainConfig


class _LinearStub:
    """Fake model: encode is a fixed linear map (the identity without
    ``proj``), decode a constant.

    Lets the scoring code be tested against hand-computable outputs.
    """

    def __init__(self, proj: np.ndarray | None = None, normalizer=None, fill=0.0):
        self.proj = proj
        self.normalizer = normalizer
        self.fill = fill

    def encode(self, x_input, mu_only=False):
        x = x_input if isinstance(x_input, np.ndarray) else x_input.data
        mu = np.swapaxes(x, -1, -2)  # [.., N, T]
        if self.proj is not None:
            mu = mu @ self.proj  # [.., N, d]
        return LatentDistribution(mu=Tensor(mu), sigma=Tensor(np.ones_like(mu)))

    def decode(self, z):
        z = z if isinstance(z, np.ndarray) else z.data
        t = z.shape[-1] if self.proj is None else self.proj.shape[0]
        return Tensor(np.full(z.shape[:-2] + (t, z.shape[-2]), self.fill))


def _masked_windows(n_vars=2, steps=64, window_len=16, rate=0.5, seed=0):
    ds = make_synthetic(n_vars, steps, seed=seed)
    windows = make_windows(ds, window_len, window_len)
    norm = Normalizer(mean=np.zeros(n_vars), std=np.ones(n_vars))
    spec = MaskSpec(rate=rate, seed=seed + 1)
    return [apply_mask(normalize_window(w, norm), spec) for w in windows]


class TestPointMetrics:
    def test_exact_example(self):
        x = np.array([1.0, -1.0, 2.0, 0.0])
        x_hat = np.array([1.0, 0.0, 0.0, 0.0])
        mae, mse, count = point_metrics(x, x_hat, np.ones(4))
        assert mae == 0.75
        assert mse == 1.25
        assert count == 4

    def test_perfect_predictions(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        mae, mse, _ = point_metrics(x, x.copy(), np.ones((2, 2)))
        assert mae == 0.0 and mse == 0.0

    def test_positions_outside_mask_are_ignored(self):
        x = np.array([1.0, -1.0, 2.0, 0.0])
        x_hat = np.array([1.0, 0.0, 0.0, 0.0])
        mask = np.array([0.0, 1.0, 1.0, 1.0])
        base = point_metrics(x, x_hat, mask)
        # perturb the visible entry arbitrarily: scored values unchanged
        x2, x2_hat = x.copy(), x_hat.copy()
        x2[0], x2_hat[0] = 99.0, -99.0
        assert point_metrics(x2, x2_hat, mask) == base

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no evaluation positions"):
            point_metrics(np.ones(3), np.ones(3), np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            point_metrics(np.ones(3), np.ones(4), np.ones(3))


class TestMaskedErrorSums:
    def test_matches_manual_loop(self):
        masked = _masked_windows(seed=10)
        model = _LinearStub(fill=0.25)
        abs_sum, sq_sum, count = masked_error_sums(model, masked)
        e_abs = e_sq = 0.0
        e_count = 0
        for w in masked:
            sel = w.m_obs * (1.0 - w.m_art)
            diff = (w.x - 0.25) * sel
            e_abs += float(np.abs(diff).sum())
            e_sq += float((diff**2).sum())
            e_count += int(sel.sum())
        assert abs(abs_sum - e_abs) < 1e-12
        assert abs(sq_sum - e_sq) < 1e-12
        assert count == e_count

    def test_chunking_is_transparent(self):
        # 80 windows crosses the 64-window inference chunk boundary
        masked = _masked_windows(steps=16 * 80, seed=11)
        model = _LinearStub(fill=0.1)
        whole = masked_error_sums(model, masked)
        halves = [
            masked_error_sums(model, masked[:40]),
            masked_error_sums(model, masked[40:]),
        ]
        assert abs(whole[0] - (halves[0][0] + halves[1][0])) < 1e-9
        assert whole[2] == halves[0][2] + halves[1][2]

    def test_observed_positions_selector(self):
        masked = _masked_windows(seed=12)
        model = _LinearStub(fill=0.0)
        _, _, n_eval = masked_error_sums(model, masked, positions="eval")
        _, _, n_obs = masked_error_sums(model, masked, positions="observed")
        assert n_obs > n_eval > 0

    def test_var_scale_rescales_errors(self):
        masked = _masked_windows(n_vars=2, seed=13)
        model = _LinearStub(fill=0.0)
        base_abs, base_sq, _ = masked_error_sums(model, masked)
        scaled_abs, scaled_sq, _ = masked_error_sums(
            model, masked, var_scale=np.array([2.0, 2.0])
        )
        assert abs(scaled_abs - 2.0 * base_abs) < 1e-9
        assert abs(scaled_sq - 4.0 * base_sq) < 1e-9

    @pytest.mark.parametrize("var_scale", [None, np.array([0.7, 3.1])])
    def test_sums_are_the_helpers_bit_for_bit(self, var_scale):
        # 80 windows: one full inference chunk and a partial one
        masked = _masked_windows(steps=16 * 80, seed=14)
        model = _LinearStub(fill=0.3)
        want = [0.0, 0.0, 0]
        for i in range(0, len(masked), _CHUNK):
            chunk = masked[i : i + _CHUNK]
            x = np.stack([w.x for w in chunk])
            sel = np.stack([w.m_obs * (1.0 - w.m_art) for w in chunk])
            for k, part in enumerate(_error_sums(x, np.full_like(x, 0.3), sel, var_scale)):
                want[k] += part
        assert len(masked) > _CHUNK
        assert masked_error_sums(model, masked, var_scale=var_scale) == tuple(want)

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="position selector"):
            masked_error_sums(_LinearStub(), [], positions="everything")

    @pytest.mark.parametrize("n_windows", [5, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("positions", ["eval", "observed"])
    def test_given_mu_is_the_encoded_mu_bit_for_bit(self, n_windows, positions):
        # one chunk, and three chunks with a partial last one
        cfg = ModelConfig(window_len=16, n_vars=3, d_model=8, hidden_dim=16)
        model = ImputationModel(cfg, seed=43)
        masked = _masked_windows(n_vars=3, steps=16 * n_windows, seed=44)
        assert len(masked) == n_windows
        mu = latent_means(model, masked)
        for scale in (None, np.array([0.5, 2.0, 3.0])):
            encoded = masked_error_sums(model, masked, positions, var_scale=scale)
            assert encoded == masked_error_sums(model, masked, positions, scale, mu=mu)
            # and both are the sums of model.reconstruct, chunk by chunk
            want = [0.0, 0.0, 0]
            for i in range(0, n_windows, _CHUNK):
                x, m_obs, m_art = stack_windows(masked[i : i + _CHUNK])
                sel = m_obs * (1.0 - m_art) if positions == "eval" else m_obs
                x_hat = model.reconstruct(x * m_obs * m_art).data
                for k, part in enumerate(_error_sums(x, x_hat, sel, scale)):
                    want[k] += part
            assert encoded == tuple(want)


def _masked_for(model, windows, spec):
    return [apply_mask(normalize_window(w, model.normalizer), spec) for w in windows]


class TestEvaluate:
    def test_perfect_model_scores_zero(self):
        # constant data normalizes to all zeros, which the zero-fill stub
        # reproduces exactly
        x = np.full((32, 2), 7.0)
        windows = [Window(x=x[i : i + 16], m_obs=np.ones((16, 2)), index=i // 16) for i in (0, 16)]
        model = _LinearStub(
            normalizer=Normalizer(mean=np.full(2, 7.0), std=np.ones(2)), fill=0.0
        )
        spec = MaskSpec(rate=0.5, seed=14)
        entry = evaluate(model, _masked_for(model, windows, spec), spec)
        assert entry.mae == 0.0 and entry.mse == 0.0

    def test_zero_predictor_mse_near_unit_variance(self):
        ds = make_synthetic(4, 2000, seed=15)
        windows = make_windows(ds, 100, 100)
        mean = ds.values.mean(axis=0)
        std = ds.values.std(axis=0)
        model = _LinearStub(normalizer=Normalizer(mean=mean, std=std), fill=0.0)
        spec = MaskSpec(rate=0.5, seed=16)
        entry = evaluate(model, _masked_for(model, windows, spec), spec)
        assert abs(entry.mse - 1.0) < 0.15
        assert entry.n_eval_points > 3000

    def test_source_scale_rescales_by_std(self):
        x = np.linspace(0.0, 10.0, 32).reshape(16, 2)
        windows = [Window(x=x, m_obs=np.ones((16, 2)), index=0)]
        norm = Normalizer(mean=np.zeros(2), std=np.full(2, 2.0))
        model = _LinearStub(normalizer=norm, fill=0.0)
        spec = MaskSpec(rate=0.5, seed=17)
        masked = _masked_for(model, windows, spec)
        normalized = evaluate(model, masked, spec, normalized=True)
        source = evaluate(model, masked, spec, normalized=False)
        assert abs(source.mae - 2.0 * normalized.mae) < 1e-12
        assert abs(source.mse - 4.0 * normalized.mse) < 1e-12

    def test_requires_normalizer(self):
        spec = MaskSpec(rate=0.5, seed=18)
        masked = [apply_mask(Window(x=np.ones((8, 1)), m_obs=np.ones((8, 1))), spec)]
        with pytest.raises(EvaluationError, match="normalizer"):
            evaluate(_LinearStub(normalizer=None), masked, spec)

    def test_nothing_hidden_rejected(self):
        model = _LinearStub(normalizer=Normalizer(np.zeros(1), np.ones(1)))
        spec = MaskSpec(rate=0.0, seed=18)
        masked = _masked_for(model, [Window(x=np.ones((8, 1)), m_obs=np.ones((8, 1)))], spec)
        with pytest.raises(EvaluationError, match="hid no observed values"):
            evaluate(model, masked, spec)

    def test_entry_metadata(self):
        masked_spec = MaskSpec(pattern="point", rate=0.3, seed=19)
        ds = make_synthetic(2, 64, seed=20)
        windows = make_windows(ds, 16, 16)
        model = _LinearStub(normalizer=Normalizer(np.zeros(2), np.ones(2)), fill=0.0)
        entry = evaluate(model, _masked_for(model, windows, masked_spec), masked_spec)
        assert entry.pattern == "point"
        assert entry.rate == 0.3
        assert entry.rate_label == "0.3"


class TestAverageEntry:
    def test_mean_within_tolerance(self):
        entries = [
            dataclasses.replace(
                evaluate_stub_entry(), rate=r, mae=m, mse=s, n_eval_points=n
            )
            for r, m, s, n in ((0.1, 0.5, 0.3, 100), (0.5, 0.7, 0.9, 200))
        ]
        avg = average_entry("point", entries)
        assert abs(avg.mae - 0.6) < 1e-12
        assert abs(avg.mse - 0.6) < 1e-12
        assert avg.n_eval_points == 300
        assert avg.rate is None and avg.rate_label == "avg"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no entries"):
            average_entry("point", [])


def evaluate_stub_entry():
    from ibimpute.evaluation import EvalEntry

    return EvalEntry(pattern="point", rate=0.1, mae=0.0, mse=0.0, n_eval_points=1)


def _small_setup():
    dataset = make_synthetic(2, 240, seed=21)
    model_cfg = ModelConfig(window_len=16, n_vars=2, d_model=4, hidden_dim=8)
    train_cfg = TrainConfig(
        epochs=1,
        batch_size=4,
        seed=22,
        mask_spec=MaskSpec(rate=0.5),
        train_stride=8,
    )
    return dataset, model_cfg, train_cfg


class TestSweep:
    def test_sweep_csv_format(self, tmp_path):
        from ibimpute.evaluation import EvalEntry

        rows = [
            EvalEntry("point", 0.3, 0.5, 0.25, 100),
            EvalEntry("point", None, 0.5, 0.25, 100),
        ]
        path = str(tmp_path / "sweep.csv")
        write_sweep_csv(path, rows)
        lines = Path(path).read_text().splitlines()
        assert lines == [
            "pattern,rate,mae,mse,n_points",
            "point,0.3,0.5,0.25,100",
            "point,avg,0.5,0.25,100",
        ]


    def test_failed_replace_keeps_previous_report(self, tmp_path, monkeypatch):
        from ibimpute.evaluation import EvalEntry

        path = tmp_path / "report.csv"
        write_sweep_csv(str(path), [EvalEntry("point", 0.3, 0.5, 0.25, 100)])
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("killed mid-write")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="killed mid-write"):
            write_sweep_csv(str(path), [EvalEntry("point", 0.5, 0.7, 0.49, 90)])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.csv"]


class TestAblation:
    def test_grid_shape_and_csv(self, tmp_path):
        dataset, model_cfg, train_cfg = _small_setup()
        entries = run_ablation(dataset, model_cfg, train_cfg, rates=[0.5])
        assert set(entries) == set(ABLATION_CONFIGS)
        assert all(len(v) == 1 for v in entries.values())
        path = str(tmp_path / "ablation.csv")
        write_ablation_csv(path, entries)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "config,pattern,rate,mae,mse,n_points"
        assert len(lines) == 1 + len(ABLATION_CONFIGS)
        assert [ln.split(",")[0] for ln in lines[1:]] == list(ABLATION_CONFIGS)

    def test_requires_positive_loc_weight(self):
        dataset, model_cfg, train_cfg = _small_setup()
        train_cfg = dataclasses.replace(
            train_cfg, weights=LossWeights(reg=0.01, loc=0.0, glo=0.1)
        )
        with pytest.raises(ValueError, match="local reconstruction weight"):
            run_ablation(dataset, model_cfg, train_cfg, rates=[0.5])

    def test_configs_share_eval_masks(self):
        # all four configurations must be scored on identical positions
        dataset, model_cfg, train_cfg = _small_setup()
        entries = run_ablation(dataset, model_cfg, train_cfg, rates=[0.5])
        counts = {name: entries[name][0].n_eval_points for name in entries}
        assert len(set(counts.values())) == 1

    def test_masks_each_held_out_window_once_per_rate(self, monkeypatch):
        import ibimpute.evaluation as evaluation

        calls = []
        def spy(window, spec):
            calls.append(spec.rate)
            return apply_mask(window, spec)

        monkeypatch.setattr(evaluation, "apply_mask", spy)
        dataset, model_cfg, train_cfg = _small_setup()
        run_ablation(dataset, model_cfg, train_cfg, rates=[0.3, 0.5])
        n = len(held_out_windows(dataset, model_cfg, train_cfg))
        assert n > 0
        assert sorted(calls) == [0.3] * n + [0.5] * n


class TestAlignmentScore:
    def test_rate_zero_is_exactly_one(self):
        cfg = ModelConfig(window_len=16, n_vars=2, d_model=4, hidden_dim=8)
        model = ImputationModel(cfg, seed=23)
        masked = _masked_windows(rate=0.0, seed=24)
        assert alignment_score(model, masked) == 1.0

    def test_matches_manual_cosines(self):
        rng = np.random.default_rng(25)
        proj = rng.normal(size=(16, 4))
        model = _LinearStub(proj=proj)
        masked = _masked_windows(rate=0.5, seed=26)
        got = alignment_score(model, masked)
        cosines = []
        for w in masked:
            a = (w.x * w.m_obs * w.m_art).T @ proj
            b = (w.x * w.m_obs).T @ proj
            for v in range(a.shape[0]):
                cosines.append(
                    float(a[v] @ b[v] / (np.linalg.norm(a[v]) * np.linalg.norm(b[v])))
                )
        assert abs(got - float(np.mean(cosines))) < 1e-12

    def test_zero_row_conventions(self):
        # variable 0 fully hidden: its masked-branch embedding is zero under
        # a linear encoder, scoring 0; variable 1 untouched scores 1
        t = 8
        x = np.ones((t, 2))
        m_obs = np.ones((t, 2))
        m_art = np.ones((t, 2))
        m_art[:, 0] = 0.0
        w = Window(x=x, m_obs=m_obs, m_art=m_art, index=0)
        model = _LinearStub(proj=np.eye(t))
        assert alignment_score(model, [w]) == 0.5

    def test_both_branches_zero_count_aligned(self):
        t = 8
        x = np.zeros((t, 1))
        w = Window(x=x, m_obs=np.ones((t, 1)), index=0)
        model = _LinearStub(proj=np.eye(t))
        assert alignment_score(model, [w]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no windows"):
            alignment_score(_LinearStub(), [])


class TestPca:
    def test_components_orthonormal(self):
        rng = np.random.default_rng(27)
        emb = rng.normal(size=(20, 5))
        _, comps = _pca_components(emb)
        gram = comps @ comps.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(28)
        emb = rng.normal(size=(15, 4))
        _, comps = _pca_components(emb)
        for row in comps:
            assert row[np.argmax(np.abs(row))] > 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        emb = rng.normal(size=(12, 6))
        c1, p1 = _pca_components(emb)
        c2, p2 = _pca_components(emb.copy())
        assert np.array_equal(c1, c2)
        assert np.array_equal(p1, p2)

    def test_recovers_dominant_direction(self):
        rng = np.random.default_rng(30)
        direction = np.array([3.0, 4.0, 0.0]) / 5.0
        scores = rng.normal(size=(200, 1)) * 10.0
        emb = scores * direction + rng.normal(size=(200, 3)) * 0.01
        _, comps = _pca_components(emb)
        assert abs(abs(comps[0] @ direction) - 1.0) < 1e-3


class TestExportLatents:
    """:func:`write_latents`, the writer of ``eval``'s ``latents.csv``."""

    def _model(self, seed=31):
        cfg = ModelConfig(window_len=16, n_vars=2, d_model=4, hidden_dim=8)
        norm = Normalizer(mean=np.zeros(2), std=np.ones(2))
        return ImputationModel(cfg, seed=seed, normalizer=norm)

    @staticmethod
    def _write(model, windows, spec, path):
        masked = _masked_for(model, windows, spec)
        mu, full_mu = (latent_means(model, masked, full) for full in (False, True))
        write_latents(path, mu, full_mu)

    def test_row_count_and_format(self, tmp_path):
        model = self._model()
        ds = make_synthetic(2, 64, seed=32)
        windows = make_windows(ds, 16, 16)  # 4 windows x 2 vars = 8 rows/branch
        path = str(tmp_path / "latents.csv")
        self._write(model, windows, MaskSpec(rate=0.5, seed=33), path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "window,variable,branch,pc1,pc2"
        assert len(lines) == 1 + 16
        for ln in lines[1:]:
            w_idx, v_idx, branch, pc1, pc2 = ln.split(",")
            assert branch in ("masked", "original")
            float(pc1), float(pc2)  # parseable
        keys = [tuple(ln.split(",")[:3]) for ln in lines[1:]]
        assert keys[:4] == [
            ("0", "0", "masked"), ("0", "0", "original"),
            ("0", "1", "masked"), ("0", "1", "original"),
        ]
        assert keys[-1] == ("3", "1", "original")

    def test_rate_zero_pairs_coincide(self, tmp_path):
        model = self._model(seed=34)
        ds = make_synthetic(2, 64, seed=35)
        windows = make_windows(ds, 16, 16)
        path = str(tmp_path / "latents.csv")
        self._write(model, windows, MaskSpec(rate=0.0, seed=36), path)
        lines = Path(path).read_text().splitlines()[1:]
        for masked_ln, orig_ln in zip(lines[0::2], lines[1::2]):
            assert masked_ln.split(",")[3:] == orig_ln.split(",")[3:]

    def test_projects_the_latents_it_is_given(self, tmp_path):
        # a hand-built set: the full view spans the first two axes, and the
        # masked rows are the full rows shrunk by half
        full_mu = np.array(
            [[[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[-2.0, 0.0, 0.0], [0.0, -1.0, 0.0]]]
        )
        path = tmp_path / "latents.csv"
        write_latents(str(path), 0.5 * full_mu, full_mu)
        rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
        got = {(w, v, b): (float(p1), float(p2)) for w, v, b, p1, p2 in rows}
        assert got[("0", "0", "original")] == pytest.approx((2.0, 0.0), abs=1e-12)
        assert got[("0", "0", "masked")] == pytest.approx((1.0, 0.0), abs=1e-12)
        assert got[("1", "1", "original")] == pytest.approx((0.0, -1.0), abs=1e-12)
        assert got[("1", "1", "masked")] == pytest.approx((0.0, -0.5), abs=1e-12)

    def test_too_few_embeddings_rejected(self, tmp_path):
        one_window = np.zeros((1, 2, 4))  # 1 window x 2 vars = 2 rows
        with pytest.raises(ValueError, match="at least 3 embeddings"):
            write_latents(str(tmp_path / "l.csv"), one_window, one_window)
        assert not (tmp_path / "l.csv").exists()

    def test_one_latent_dim_rejected(self, tmp_path):
        one_dim = np.zeros((4, 2, 1))
        with pytest.raises(ValueError, match="2 latent dimensions"):
            write_latents(str(tmp_path / "l.csv"), one_dim, one_dim)
