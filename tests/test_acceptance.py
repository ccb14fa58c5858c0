"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS/FAIL line so a full run reads as a
scorecard.  Criteria 6 and 7 share one trained ablation grid (a module
fixture) because they score the same models from different angles.
"""

import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from ibimpute.autodiff import Tape, Tensor
from ibimpute.data import (
    MaskSpec,
    Window,
    apply_mask,
    make_synthetic,
    normalize_window,
)
from ibimpute.evaluation import (
    alignment_score,
    evaluate,
    held_out_windows,
    point_metrics,
    write_sweep_csv,
)
from ibimpute.losses import (
    LossWeights,
    cosine_align_loss,
    infonce_loss,
    loc_loss,
    reg_loss,
)
from ibimpute.model import ImputationModel, LatentDistribution, ModelConfig, reparameterize
from ibimpute.rng import STREAM_EVAL_MASK, derive
from ibimpute.training import (
    TrainConfig,
    fit,
    load_train_state,
    save_train_state,
    write_training_log,
)


def _check(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _masked(model, windows, spec):
    return [apply_mask(normalize_window(w, model.normalizer), spec) for w in windows]


# --------------------------------------------------------------------------
# criterion 1: analytic gradients match central finite differences


TINY = ModelConfig(window_len=8, n_vars=2, d_model=4, hidden_dim=16)


def _tape_grads(model, build):
    with Tape() as tape:
        for t in model.params.values():
            tape.watch(t)
        loss = build()
    grads = tape.backward(loss)
    return {name: grads.of(t) for name, t in model.params.items()}


def _fd_grad(model, build, name, idx, eps=1e-5):
    arr = model.params[name].data
    orig = arr[idx]
    arr[idx] = orig + eps
    hi = float(build().data)
    arr[idx] = orig - eps
    lo = float(build().data)
    arr[idx] = orig
    return (hi - lo) / (2.0 * eps)


def test_criterion_1_gradient_checks_all_losses():
    t0 = time.monotonic()
    worst = 0.0
    n_trials = 0
    for trial in range(4):
        # seeds picked so no relu pre-activation sits within 5e-4 of zero;
        # a kink inside the eps window would invalidate the centered difference
        rng = np.random.default_rng(7401 + trial)
        model = ImputationModel(TINY, seed=663 + trial)
        x = rng.uniform(-1.0, 1.0, size=(4, 8, 2))
        m_art = (rng.random((4, 8, 2)) < 0.6).astype(np.float64)
        x_in = x * m_art
        ones = np.ones_like(x)
        step_seed = 50 + trial
        # frozen before any perturbation, like the stop-gradient branch
        z_target = model.encode(x).mu.detach()

        def loss_reg():
            return reg_loss(model.encode(x_in))

        def loss_loc():
            z = reparameterize(model.encode(x_in), step_seed)
            return loc_loss(Tensor(x), model.decode(z), Tensor(ones))

        def loss_nce():
            z = reparameterize(model.encode(x_in), step_seed)
            return infonce_loss(model.project(z), z_target)

        def loss_cos():
            z = reparameterize(model.encode(x_in), step_seed)
            return cosine_align_loss(model.project(z), z_target)

        def loss_total():
            dist = model.encode(x_in)
            z = reparameterize(dist, step_seed)
            recon = loc_loss(Tensor(x), model.decode(z), Tensor(ones))
            contrast = infonce_loss(model.project(z), z_target)
            return reg_loss(dist) * 0.01 + recon + contrast * 0.1

        for build in (loss_reg, loss_loc, loss_nce, loss_cos, loss_total):
            n_trials += 1
            grads = _tape_grads(model, build)
            for name, g in grads.items():
                for idx in np.ndindex(g.shape):
                    fd = _fd_grad(model, build, name, idx)
                    err = abs(g[idx] - fd) / max(1.0, abs(g[idx]), abs(fd))
                    worst = max(worst, err)
    elapsed = time.monotonic() - t0
    _check(
        1,
        worst < 1e-3 and elapsed < 60.0 and n_trials == 20,
        f"{n_trials} trials (4 batches x 5 objectives), "
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 2: closed-form KL against a million-sample estimate


def test_criterion_2_kl_matches_monte_carlo():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(50):
        mu = float(rng.uniform(-2.0, 2.0))
        sigma = float(rng.uniform(0.3, 2.0))
        dist = LatentDistribution(
            mu=Tensor(np.full((1, 1), mu)), sigma=Tensor(np.full((1, 1), sigma))
        )
        closed = float(reg_loss(dist).data)
        # antithetic pairs cancel the odd term of log q - log p
        u = rng.standard_normal(1_000_000)
        est = 0.0
        for signed in (u, -u):
            z = mu + sigma * signed
            est += 0.5 * float(
                np.mean(-math.log(sigma) - (z - mu) ** 2 / (2.0 * sigma**2) + z**2 / 2.0)
            )
        worst = max(worst, abs(est - closed))
    _check(2, worst < 0.01, f"50 pairs, 1e6 samples each, max |diff| {worst:.2e}")


# --------------------------------------------------------------------------
# criterion 3: contrast term against per-anchor brute force


def test_criterion_3_infonce_brute_force():
    rng = np.random.default_rng(777)
    worst = 0.0
    for rows in (4, 8, 16):
        a = rng.uniform(-1.0, 1.0, size=(rows, 5))
        b = rng.uniform(-1.0, 1.0, size=(rows, 5))
        loss = float(infonce_loss(Tensor(a), Tensor(b), temperature=0.1).data)
        na = a / np.linalg.norm(a, axis=1, keepdims=True)
        nb = b / np.linalg.norm(b, axis=1, keepdims=True)
        scores = (na @ nb.T) / 0.1
        brute = float(
            np.mean([np.logaddexp.reduce(scores[i]) - scores[i, i] for i in range(rows)])
        )
        worst = max(worst, abs(loss - brute))
        if rows == 16:
            # batch x variable shaped input flattens to the same rows
            shaped = float(
                infonce_loss(
                    Tensor(a.reshape(4, 4, 5)), Tensor(b.reshape(4, 4, 5)), 0.1
                ).data
            )
            assert shaped == loss

    ident_worst = 0.0
    for rows in (4, 8, 16):
        tile = np.tile(rng.uniform(-1.0, 1.0, size=5), (rows, 1))
        loss = float(infonce_loss(Tensor(tile), Tensor(tile.copy()), 0.1).data)
        ident_worst = max(ident_worst, abs(loss - math.log(rows)))
    _check(
        3,
        worst <= 1e-10 and ident_worst <= 1e-12,
        f"max |diff| {worst:.2e}, identical-rows |diff| {ident_worst:.2e}",
    )


# --------------------------------------------------------------------------
# criterion 4: sampler statistics and deterministic inference


def test_criterion_4_reparameterization():
    shape = (100_000, 4)
    std_normal = LatentDistribution(
        mu=Tensor(np.zeros(shape)), sigma=Tensor(np.ones(shape))
    )
    eps = reparameterize(std_normal, seed=90210).data
    means = eps.mean(axis=0)
    variances = eps.var(axis=0)
    moments_ok = bool(
        np.all(np.abs(means) < 0.02)
        and np.all((variances > 0.97) & (variances < 1.03))
    )

    # same seed and shape reuse the same noise, shifted and scaled exactly
    mu = np.full(shape, 1.5)
    sigma = np.full(shape, 0.5)
    z = reparameterize(
        LatentDistribution(mu=Tensor(mu), sigma=Tensor(sigma)), seed=90210
    ).data
    affine_ok = bool(np.array_equal(z, mu + sigma * eps))

    # inference never samples: the reconstruction is decode(mu), bit for bit
    model = ImputationModel(TINY, seed=1)
    x = np.random.default_rng(12).uniform(-1.0, 1.0, size=(3, 8, 2))
    dist = model.encode(x)
    via_mu = model.decode(dist.mu).data
    recon = model.reconstruct(x).data
    inference_ok = bool(
        dist.z is None
        and np.array_equal(via_mu, recon)
        and np.array_equal(recon, model.reconstruct(x).data)
    )

    _check(
        4,
        moments_ok and affine_ok and inference_ok,
        f"1e5 draws: max |mean| {np.abs(means).max():.4f}, "
        f"var range [{variances.min():.4f}, {variances.max():.4f}], "
        f"inference bit-exact {inference_ok}",
    )


# --------------------------------------------------------------------------
# criterion 5: mask rates, block runs, native-missing disjointness


def _hidden_runs(col):
    """(start, length) of each maximal run of zeros in a mask column."""
    runs = []
    start = None
    for i, v in enumerate(col):
        if v == 0.0 and start is None:
            start = i
        elif v == 1.0 and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(col) - start))
    return runs


def test_criterion_5_mask_statistics():
    big = Window(np.zeros((200, 60)), np.ones((200, 60)))
    rate_ok = True
    fracs = []
    for rate in (0.1, 0.5, 0.9):
        w = apply_mask(big, MaskSpec(rate=rate, seed=int(rate * 1000)))
        frac = float(1.0 - w.m_art.mean())
        fracs.append(f"{rate}->{frac:.3f}")
        rate_ok &= abs(frac - rate) <= 0.02

    block_ok = True
    for rate in (0.1, 0.25, 0.4):
        w = apply_mask(
            Window(np.zeros((96, 8)), np.ones((96, 8))),
            MaskSpec(pattern="block", rate=rate, block_len=4, seed=7),
        )
        for col in range(8):
            lengths = [n for _, n in _hidden_runs(w.m_art[:, col])]
            # every run has the configured length; the run that exhausts the
            # hiding quota may come up short, and there is at most one such
            short = [n for n in lengths if n != 4]
            block_ok &= len(short) <= 1 and all(n < 4 for n in short)

    rng = np.random.default_rng(5150)
    disjoint_ok = True
    for s in range(1000):
        m_obs = (rng.random((48, 5)) > 0.3).astype(np.float64)
        m_obs[0] = 1.0  # keep every variable observable
        w = Window(rng.standard_normal((48, 5)) * m_obs, m_obs)
        pattern = "point" if s % 2 == 0 else "block"
        masked = apply_mask(w, MaskSpec(pattern=pattern, rate=0.5, block_len=4, seed=s))
        disjoint_ok &= bool(np.all(masked.m_art[masked.m_obs == 0.0] == 1.0))

    _check(
        5,
        rate_ok and block_ok and disjoint_ok,
        f"point rates {' '.join(fracs)}, block runs ok {block_ok}, "
        f"1000-window disjointness ok {disjoint_ok}",
    )


# --------------------------------------------------------------------------
# criteria 6 and 7: full training protocol, scored once, judged twice


PROTOCOL_MODEL = ModelConfig(window_len=96, n_vars=7, d_model=32, hidden_dim=64)
PROTOCOL_SEEDS = range(5)
PROTOCOL_VARIANTS = {
    "entire": LossWeights(),
    "loc_only": LossWeights(reg=0.0, glo=0.0),
    "no_glo": LossWeights(glo=0.0),
    "no_reg": LossWeights(reg=0.0),
}


class ProtocolGrid(NamedTuple):
    runs: dict          # (seed, rate, variant) -> (mae, alignment)
    model: ImputationModel
    windows: list
    elapsed: float


@pytest.fixture(scope="module")
def protocol_grid():
    t0 = time.monotonic()
    runs = {}
    keep_model = None
    keep_windows = None
    for s in PROTOCOL_SEEDS:
        ds = make_synthetic(7, 2000, seed=1000 + s)
        for rate in (0.5, 0.7):
            names = ("entire", "loc_only", "no_glo", "no_reg") if rate == 0.5 else (
                "entire",
                "loc_only",
            )
            for name in names:
                cfg = TrainConfig(
                    epochs=30,
                    batch_size=8,
                    seed=s,
                    weights=PROTOCOL_VARIANTS[name],
                    mask_spec=MaskSpec(rate=rate),
                )
                result = fit(ds, PROTOCOL_MODEL, cfg)
                raw = held_out_windows(ds, PROTOCOL_MODEL, cfg)
                spec = MaskSpec(rate=rate, seed=derive(1, STREAM_EVAL_MASK))
                masked = _masked(result.model, raw, spec)
                runs[(s, rate, name)] = (
                    evaluate(result.model, masked, spec).mae,
                    alignment_score(result.model, masked),
                )
                if s == 0 and rate == 0.5 and name == "entire":
                    keep_model = result.model
                    keep_windows = raw
    return ProtocolGrid(runs, keep_model, keep_windows, time.monotonic() - t0)


def test_criterion_6_full_objective_mae(protocol_grid):
    parts = []
    ok = True
    for rate in (0.5, 0.7):
        wins = sum(
            protocol_grid.runs[(s, rate, "entire")][0]
            <= protocol_grid.runs[(s, rate, "loc_only")][0]
            for s in PROTOCOL_SEEDS
        )
        parts.append(f"rate {rate}: entire<=loc_only in {wins}/5 seeds")
        ok &= wins >= 4
    ok &= protocol_grid.elapsed < 900.0
    parts.append(f"grid trained in {protocol_grid.elapsed:.0f}s")
    _check(6, ok, "; ".join(parts))


def test_criterion_7_alignment_gain_from_glo(protocol_grid):
    with_reg = sum(
        protocol_grid.runs[(s, 0.5, "entire")][1]
        > protocol_grid.runs[(s, 0.5, "no_glo")][1]
        for s in PROTOCOL_SEEDS
    )
    without_reg = sum(
        protocol_grid.runs[(s, 0.5, "no_reg")][1]
        > protocol_grid.runs[(s, 0.5, "loc_only")][1]
        for s in PROTOCOL_SEEDS
    )

    # hiding nothing leaves both encoder branches identical
    spec0 = MaskSpec(rate=0.0, seed=derive(1, STREAM_EVAL_MASK))
    masked0 = _masked(protocol_grid.model, protocol_grid.windows, spec0)
    score0 = alignment_score(protocol_grid.model, masked0)

    _check(
        7,
        with_reg >= 4 and without_reg >= 4 and score0 == 1.0,
        f"adding glo raises alignment in {with_reg}/5 (with reg) and "
        f"{without_reg}/5 (without reg) seeds; rate-0 score {score0!r}",
    )


# --------------------------------------------------------------------------
# criterion 8: byte-identical reruns and bit-exact resume


SMALL_MODEL = ModelConfig(window_len=24, n_vars=3, d_model=8, hidden_dim=16)


def _small_cfg():
    return TrainConfig(
        epochs=2,
        batch_size=4,
        seed=9,
        mask_spec=MaskSpec(rate=0.5),
        train_stride=6,
    )


def test_criterion_8_determinism(tmp_path):
    ds = make_synthetic(3, 400, seed=5)
    artifacts = []
    for tag in ("a", "b"):
        result = fit(ds, SMALL_MODEL, _small_cfg())
        raw = held_out_windows(ds, SMALL_MODEL, _small_cfg())
        specs = [MaskSpec(rate=r, seed=derive(1, STREAM_EVAL_MASK)) for r in (0.3, 0.5)]
        entries = [
            evaluate(result.model, _masked(result.model, raw, spec), spec) for spec in specs
        ]
        report = tmp_path / f"report_{tag}.csv"
        write_sweep_csv(str(report), entries)
        log = tmp_path / f"log_{tag}.csv"
        write_training_log(str(log), result.log_rows)
        artifacts.append((report.read_bytes(), log.read_bytes()))
    bytes_ok = artifacts[0] == artifacts[1]

    full = fit(ds, SMALL_MODEL, _small_cfg(), max_steps=8)
    head = fit(ds, SMALL_MODEL, _small_cfg(), max_steps=5)
    state_path = tmp_path / "state.bin"
    save_train_state(str(state_path), head.state, SMALL_MODEL)
    loaded_state, loaded_cfg = load_train_state(str(state_path))
    assert loaded_cfg == SMALL_MODEL
    resumed = fit(ds, SMALL_MODEL, _small_cfg(), start_state=loaded_state, max_steps=8)
    resume_ok = (
        resumed.state.global_step == full.state.global_step == 8
        and all(
            np.array_equal(resumed.state.params[k], full.state.params[k])
            for k in full.state.params
        )
        and all(
            np.array_equal(resumed.state.adam_m[k], full.state.adam_m[k])
            for k in full.state.adam_m
        )
        and all(
            np.array_equal(resumed.state.adam_v[k], full.state.adam_v[k])
            for k in full.state.adam_v
        )
    )

    _check(
        8,
        bytes_ok and resume_ok,
        f"rerun reports byte-identical {bytes_ok}, "
        f"save/load/resume bit-exact over 3 steps {resume_ok}",
    )


# --------------------------------------------------------------------------
# criterion 9: documented metric values, insensitive to visible cells


def test_criterion_9_metric_known_values():
    x = np.array([1.0, -1.0, 2.0, 0.0])
    x_hat = np.array([1.0, 0.0, 0.0, 0.0])
    mae, mse, count = point_metrics(x, x_hat, np.ones(4))
    exact_ok = mae == 0.75 and mse == 1.25 and count == 4

    # same four scored cells plus one visible cell that may change freely
    x5 = np.append(x, 3.0)
    x5_hat = np.append(x_hat, -4.0)
    mask = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    base = point_metrics(x5, x5_hat, mask)
    x5_p, x5_hat_p = x5.copy(), x5_hat.copy()
    x5_p[4], x5_hat_p[4] = 123.0, -55.5
    perturb_ok = point_metrics(x5_p, x5_hat_p, mask) == base and base[:2] == (0.75, 1.25)

    _check(
        9,
        exact_ok and perturb_ok,
        f"mae {mae!r} mse {mse!r}, visible perturbation ignored {perturb_ok}",
    )
