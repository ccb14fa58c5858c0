"""Adam training loop with a dual encoder forward per step.

Each step runs the encoder twice: once on the artificially masked input
(gradients on, through sampling, decoding and the local/regularizer terms)
and once on the unmasked input with no tape active, producing constant
target embeddings (latent means only) for the global term.  The second pass is the
stop-gradient branch; nothing recorded, nothing differentiated.

Determinism contract: every random draw (parameter init, per-epoch masks,
shuffles, sampler noise, validation masks) comes from streams derived from
``TrainConfig.seed`` plus structural indices (epoch, batch).  No sequential
RNG state is carried across steps, so training can stop at any step
boundary and resume bit-exactly from the :class:`TrainState` it returns.

Parameters are named views of one flat buffer, ``ImputationModel.flat``.  A
step clips the flat gradient in place and :class:`Adam` updates the buffer,
and so every view, in place; snapshots are one flat copy each.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tape, Tensor
from .data import (
    Dataset,
    MaskSpec,
    Window,
    apply_mask,
    atomic_write,
    chrono_split,
    fit_normalizer,
    make_windows,
    normalize_window,
    stack_windows,
)
from .evaluation import masked_error_sums
from .losses import (
    GLO_INFONCE,
    LossBreakdown,
    LossWeights,
    cosine_align_loss,
    infonce_loss,
    loc_loss,
    reg_loss,
    total_objective,
)
from .model import (
    ImputationModel,
    ModelConfig,
    NumericError,
    flatten_params,
    param_views,
    reparameterize,
    save_checkpoint,
)
from .rng import (
    STREAM_MASK,
    STREAM_NOISE,
    STREAM_SHUFFLE,
    STREAM_VAL_MASK,
    SplitMix64,
    derive,
)


class TrainingError(RuntimeError):
    """Training cannot continue (repeated non-finite steps, bad config)."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    mask_spec: MaskSpec = field(default_factory=MaskSpec)
    early_stop_patience: int = 0          # 0 disables early stopping
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    train_stride: int | None = None       # None = half the window length
    val_stride: int | None = None         # None = window length (non-overlap)
    clip_norm: float = 5.0                # 0 disables clipping

    def validate(self, key=lambda field: field, n_vars: int | None = None) -> None:
        """Raise ValueError for an invalid setting, named by ``key(field)``
        with ``field`` the TrainConfig field, or the LossWeights field of a
        loss weight; by default the field name itself.  Given the data's
        ``n_vars``, also check what depends on it: the contrast term needs
        two latent rows, one per (window, variable), in a full batch."""
        if self.epochs < 1:
            raise ValueError(f"{key('epochs')} must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"{key('batch_size')} must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"{key('learning_rate')} must be > 0, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            b = getattr(self, name)
            if not (0.0 <= b < 1.0):
                raise ValueError(f"{key(name)} must be in [0, 1), got {b}")
        if self.adam_eps <= 0.0:
            raise ValueError(f"{key('adam_eps')} must be > 0, got {self.adam_eps}")
        if self.early_stop_patience < 0:
            raise ValueError(f"{key('early_stop_patience')} must be >= 0")
        if self.clip_norm < 0.0:
            raise ValueError(f"{key('clip_norm')} must be >= 0")
        for name in ("train_stride", "val_stride"):
            s = getattr(self, name)
            if s is not None and s < 1:
                raise ValueError(f"{key(name)} must be >= 1, got {s}")
        self.weights.validate(for_training=True, key=key)
        self.mask_spec.validate()
        if (
            n_vars is not None
            and self.weights.glo_variant == GLO_INFONCE
            and self.weights.glo > 0.0
            and self.batch_size * n_vars < 2
        ):
            raise ValueError(
                f"{key('batch_size')} must be >= 2 when the contrast term is active "
                "on one variable"
            )

    def strides(self, window_len: int) -> tuple[int, int]:
        """The train and the validation/test window strides, defaults filled in."""
        train = self.train_stride if self.train_stride is not None else max(1, window_len // 2)
        val = self.val_stride if self.val_stride is not None else window_len
        return train, val


ADAM_BLOCK = 16384  # elements per pass of Adam.step: 128 KiB temporaries stay in cache


class Adam:
    """Bias-corrected Adam (Kingma & Ba 2014) over one flat parameter buffer.

    :meth:`step` updates the parameters and the moments ``m`` and ``v`` (made
    on the first step) in place, ``ADAM_BLOCK`` elements at a time, with each
    element's float ops in textbook order, so blocking does not change a bit.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """One update of ``flat`` in place, from the gradient ``grad``."""
        if flat.shape != grad.shape:
            raise ValueError(f"shape mismatch: params {flat.shape}, grad {grad.shape}")
        if self.m is None:
            self.m = np.zeros_like(flat)
            self.v = np.zeros_like(flat)
        self.t += 1
        beta1, beta2 = self.beta1, self.beta2
        c1, c2 = 1.0 - beta1**self.t, 1.0 - beta2**self.t
        scratch = np.empty((2, min(ADAM_BLOCK, flat.size)))
        for lo in range(0, flat.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, flat.size)
            p, g, m, v = flat[lo:hi], grad[lo:hi], self.m[lo:hi], self.v[lo:hi]
            a, b = scratch[:, : hi - lo]
            m *= beta1  # m = beta1 * m + (1 - beta1) * g
            m += np.multiply(g, 1.0 - beta1, out=a)
            v *= beta2  # v = beta2 * v + (1 - beta2) * g * g
            np.multiply(g, 1.0 - beta2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(v, c2, out=b)  # sqrt(v / c2) + eps
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(m, c1, out=a)  # p -= lr * (m / c1) / b
            a *= self.lr
            a /= b
            p -= a


def clip_gradients(grad: np.ndarray, sizes: list[int], max_norm: float) -> bool:
    """Scale the flat ``grad`` in place so its L2 norm is at most ``max_norm``;
    return whether it was scaled.  ``max_norm`` 0 disables clipping.

    The squared norm adds one partial sum per parameter, whose sizes
    ``sizes`` lists in buffer order, so its rounding is that of a sum taken
    parameter by parameter.  When the squares of a finite ``grad`` overflow,
    it is first divided by its largest magnitude, whose squares cannot.
    """
    if max_norm <= 0.0:
        return False
    squares = grad * grad
    total = 0.0
    at = 0
    for size in sizes:
        total += float(np.sum(squares[at : at + size]))
        at += size
    norm = np.sqrt(total)
    if norm <= max_norm:
        return False
    if not np.isfinite(norm):
        grad /= np.max(np.abs(grad))
        norm = np.sqrt(float(np.sum(grad * grad)))
    grad *= max_norm / norm
    return True


def train_step(
    model: ImputationModel,
    batch: list[Window],
    weights: LossWeights,
    optimizer: Adam,
    step_seed: int,
    clip_norm: float = 5.0,
) -> tuple[LossBreakdown, bool]:
    """One optimizer step on a batch of normalized masked windows.

    Returns the loss breakdown and whether the update was applied; a
    non-finite loss or gradient aborts the step without touching parameters.
    """
    if not batch:
        raise ValueError("train_step: empty batch")
    x, m_obs, m_art = stack_windows(batch)
    x_masked_in = x * m_obs * m_art

    try:
        z_target = None
        if weights.glo > 0.0:
            # stop-gradient branch: no tape active, output is a plain constant
            z_target = model.encode(x * m_obs, mu_only=True).mu
            row_norms = np.sum(
                z_target.data.reshape(-1, z_target.shape[-1]) ** 2, axis=-1
            )
            if np.any(row_norms == 0.0) or (
                weights.glo_variant == GLO_INFONCE and len(row_norms) < 2
            ):
                # a fully dead relu row has no alignment signal, and a lone
                # row has no negatives to contrast with; skip the global term
                # this batch instead of failing on cos(a, 0) or on no negatives
                z_target = None
        with Tape() as tape:
            dist = model.encode(Tensor(x_masked_in))
            # recorded before the sampler, so the sweep makes the KL gradients
            # of mu and sigma only when it reaches them; each gets two terms,
            # and a two-term sum has the same bytes in either order
            reg = reg_loss(dist)
            z = reparameterize(dist, step_seed)
            x_hat = model.decode(z)
            loc = loc_loss(Tensor(x), x_hat, Tensor(m_obs))
            glo = z_proj = None
            if z_target is not None:
                z_proj = model.project(z)
                if weights.glo_variant == GLO_INFONCE:
                    glo = infonce_loss(z_proj, z_target, weights.temperature)
                else:
                    glo = cosine_align_loss(z_proj, z_target)
            total, breakdown = total_objective(weights, reg=reg, loc=loc, glo=glo)
    except NumericError:
        return LossBreakdown(float("nan"), float("nan"), float("nan"), float("nan")), False
    # the tape now holds the only references to the step's arrays, so each
    # dies as soon as the backward sweep has visited the last node reading it
    del x, m_obs, m_art, x_masked_in, z_target, dist, z, x_hat, z_proj, reg, loc, glo

    if not np.isfinite(breakdown.total):
        return breakdown, False
    params = list(model.params.values())
    grad = tape.backward(total).flat(params)
    if not np.isfinite(grad).all():
        return breakdown, False
    clip_gradients(grad, [t.data.size for t in params], clip_norm)
    optimizer.step(model.flat, grad)
    return breakdown, True


@dataclass
class EpochStats:
    epoch: int
    reg: float
    loc: float
    glo: float
    total: float
    val_mae: float
    n_steps: int


@dataclass
class TrainState:
    """Everything needed to resume training at an exact step boundary (the
    defaults are the state before the first step).  In a state that
    :func:`fit` returns, each named array group views one flat copy.

    ``epoch_sums`` and ``epoch_steps`` are the reg, loc, glo and total loss
    sums and the count of the finite steps so far in the epoch in progress,
    and ``skip_streak`` counts the non-finite steps in a row that end at the
    boundary, so a resumed fit reports the epoch stats, and raises the
    :class:`TrainingError`, of the same fit run without a stop."""

    params: dict[str, np.ndarray] = field(default_factory=dict)
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    adam_t: int = 0
    epoch: int = 0           # next epoch to run (or continue)
    batch_idx: int = 0       # next batch within that epoch
    global_step: int = 0
    best_val: float = float("inf")
    best_epoch: int = -1
    best_params: dict[str, np.ndarray] | None = None
    stall: int = 0           # epochs since the validation metric improved
    epoch_sums: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    epoch_steps: int = 0
    skip_streak: int = 0


@dataclass
class FitResult:
    model: ImputationModel           # best-on-validation parameters
    history: list[EpochStats]
    state: TrainState
    best_val_mae: float
    best_epoch: int
    log_rows: list[tuple[int, int, float, float, float, float]]


def validation_mae(model: ImputationModel, masked: list[Window]) -> float:
    """MAE on artificially hidden positions; falls back to all observed
    positions when the masks hid nothing (rate 0), from one encoder pass."""
    hid = any(np.any(w.m_obs * (1.0 - w.m_art)) for w in masked)
    abs_sum, _, count = masked_error_sums(model, masked, "eval" if hid else "observed")
    if count == 0:
        raise TrainingError("validation split has no observed positions")
    return abs_sum / count


@np.errstate(over="ignore", invalid="ignore")  # NumericError and isfinite catch the results
def fit(
    dataset: Dataset,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    start_state: TrainState | None = None,
    max_steps: int | None = None,
    checkpoint_path: str | None = None,
    progress: bool = False,
    log_path: str | None = None,
) -> FitResult:
    """Train on the chronological train split, select on the val split.

    ``max_steps`` stops after that many optimizer steps (counted across the
    whole run, including steps done before ``start_state`` was captured);
    the returned state resumes bit-exactly.  Given ``log_path``, the log
    rows of this call are written there (:func:`write_training_log`) as each
    epoch ends, before that epoch's checkpoint, and when ``max_steps`` stops
    the run, so a killed run leaves the whole log of its finished epochs.
    """
    cfg.validate(n_vars=model_cfg.n_vars)
    model_cfg.validate()

    window_len = model_cfg.window_len
    train_seg, val_seg, _ = chrono_split(dataset, window_len, cfg.split)
    train_stride, val_stride = cfg.strides(window_len)

    norm = fit_normalizer(make_windows(train_seg, window_len, train_stride))
    # normalize_window's float ops, once over the segment that the windows view
    train_x = norm.normalize(train_seg.values) * train_seg.native_mask
    train_windows = make_windows(train_seg, window_len, train_stride, values=train_x)

    val_spec = replace(cfg.mask_spec, seed=derive(cfg.seed, STREAM_VAL_MASK))
    val_windows = make_windows(val_seg, window_len, val_stride)
    val_masked = [apply_mask(normalize_window(w, norm), val_spec) for w in val_windows]

    state = replace(start_state or TrainState())  # fit's own copy: the caller's is never written
    # a state from before the first step has no parameters: draw them from the seed
    model = ImputationModel(
        model_cfg, params=state.params or None, seed=cfg.seed, normalizer=norm
    )

    optimizer = Adam(cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    optimizer.t = state.adam_t
    if state.adam_m:
        optimizer.m = flatten_params(model_cfg, state.adam_m)
        optimizer.v = flatten_params(model_cfg, state.adam_v)

    history: list[EpochStats] = []
    log_rows: list[tuple[int, int, float, float, float, float]] = []
    best_flat = flatten_params(model_cfg, state.best_params) if state.best_params else None

    def named_copy(flat: np.ndarray | None) -> dict[str, np.ndarray]:
        return {} if flat is None else param_views(model_cfg, flat.copy())

    def finish() -> FitResult:
        state.params, state.adam_m, state.adam_v, state.adam_t = (
            named_copy(model.flat), named_copy(optimizer.m), named_copy(optimizer.v), optimizer.t
        )
        state.best_params = named_copy(best_flat) or None
        if best_flat is not None:
            model.flat[...] = best_flat  # the live model, at its best parameters
        return FitResult(model, history, state, state.best_val, state.best_epoch, log_rows)

    patience = cfg.early_stop_patience
    # checked before every epoch, so a state that stopped early stays stopped
    while state.epoch < cfg.epochs and not (patience > 0 and state.stall >= patience):
        t0 = time.monotonic()
        epoch_spec = replace(cfg.mask_spec, seed=derive(cfg.seed, STREAM_MASK, state.epoch))
        masked = [apply_mask(w, epoch_spec) for w in train_windows]
        perm = SplitMix64(derive(cfg.seed, STREAM_SHUFFLE, state.epoch)).permutation(len(masked))
        batches = [
            [masked[j] for j in perm[i : i + cfg.batch_size]]
            for i in range(0, len(perm), cfg.batch_size)
        ]
        while state.batch_idx < len(batches):
            if max_steps is not None and state.global_step >= max_steps:
                if log_path is not None:
                    write_training_log(log_path, log_rows)
                return finish()
            step_seed = derive(cfg.seed, STREAM_NOISE, state.epoch, state.batch_idx)
            breakdown, stepped = train_step(
                model,
                batches[state.batch_idx],
                cfg.weights,
                optimizer,
                step_seed,
                clip_norm=cfg.clip_norm,
            )
            state.skip_streak = 0 if stepped else state.skip_streak + 1
            if not stepped and progress:
                print(
                    f"epoch {state.epoch} step {state.global_step}: non-finite loss, step skipped",
                    file=sys.stderr,
                )
            if state.skip_streak >= 3:
                raise TrainingError("three consecutive non-finite training steps; aborting")
            terms = (breakdown.reg, breakdown.loc, breakdown.glo, breakdown.total)
            log_rows.append((state.epoch, state.global_step, *terms))
            if np.isfinite(breakdown.total):
                state.epoch_sums = tuple(s + t for s, t in zip(state.epoch_sums, terms))
                state.epoch_steps += 1
            state.batch_idx += 1
            state.global_step += 1

        val_mae = validation_mae(model, val_masked)
        # reg, loc, glo and total, in EpochStats' field order
        means = [s / max(state.epoch_steps, 1) for s in state.epoch_sums]
        history.append(EpochStats(state.epoch, *means, val_mae, state.epoch_steps))
        if log_path is not None:
            write_training_log(log_path, log_rows)
        if val_mae < state.best_val:
            state.best_val, state.best_epoch, state.stall = val_mae, state.epoch, 0
            best_flat = model.flat.copy()
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, model)
        else:
            state.stall += 1
        if progress:
            dt = time.monotonic() - t0
            print(
                f"epoch {state.epoch}: train_total={means[3]:.6f} val_mae={val_mae:.6f} "
                f"({dt:.1f}s)",
                file=sys.stderr,
            )
        state.epoch += 1
        state.batch_idx, state.epoch_sums, state.epoch_steps = 0, (0.0, 0.0, 0.0, 0.0), 0

    return finish()


def write_training_log(path: str, rows: list[tuple[int, int, float, float, float, float]]) -> None:
    """Per-step loss CSV: epoch, step, reg, loc, glo, total."""
    with atomic_write(path) as fh:
        fh.write("epoch,step,reg,loc,glo,total\n")
        for epoch, step, reg, loc, glo, total in rows:
            fh.write(f"{epoch},{step},{reg!r},{loc!r},{glo!r},{total!r}\n")
