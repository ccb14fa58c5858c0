"""Adam training loop with a dual encoder forward per step.

Each step runs the encoder twice: once on the artificially masked input
(gradients on, through sampling, decoding and the local/regularizer terms)
and once on the unmasked input with no tape active, producing constant
target embeddings for the global term.  The second pass is the
stop-gradient branch; nothing recorded, nothing differentiated.

Determinism contract: every random draw (parameter init, per-epoch masks,
shuffles, sampler noise, validation masks) comes from streams derived from
``TrainConfig.seed`` plus structural indices (epoch, batch).  No sequential
RNG state is carried across steps, so training can stop at any step
boundary, serialize, and resume bit-exactly.
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
    GLO_COSINE,
    GLO_INFONCE,
    GLO_NONE,
    LossBreakdown,
    LossWeights,
    cosine_align_loss,
    infonce_loss,
    loc_loss,
    reg_loss,
    total_objective,
)
from .model import (
    CheckpointError,
    ImputationModel,
    ModelConfig,
    NumericError,
    check_params,
    read_container,
    reparameterize,
    save_checkpoint,
    write_container,
)
from .rng import (
    STREAM_MASK,
    STREAM_NOISE,
    STREAM_SHUFFLE,
    STREAM_VAL_MASK,
    SplitMix64,
    derive,
)

LOC_TARGET_OBSERVED = "observed"
LOC_TARGET_HIDDEN = "hidden"


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
    loc_target: str = LOC_TARGET_OBSERVED

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            b = getattr(self, name)
            if not (0.0 <= b < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {b}")
        if self.adam_eps <= 0.0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")
        if self.clip_norm < 0.0:
            raise ValueError("clip_norm must be >= 0")
        if self.loc_target not in (LOC_TARGET_OBSERVED, LOC_TARGET_HIDDEN):
            raise ValueError(
                f"loc_target must be 'observed' or 'hidden', got {self.loc_target!r}"
            )
        for s in (self.train_stride, self.val_stride):
            if s is not None and s < 1:
                raise ValueError(f"stride must be >= 1, got {s}")
        self.weights.validate(for_training=True)
        self.mask_spec.validate()
        if self.loc_target == LOC_TARGET_HIDDEN and self.mask_spec.rate == 0.0:
            raise ValueError("loc_target 'hidden' needs a mask rate > 0")
        if (
            self.weights.glo_variant == GLO_INFONCE
            and self.weights.glo > 0.0
            and self.batch_size < 2
        ):
            raise ValueError("batch_size must be >= 2 when the contrast term is active")


def adam_update(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update; ``t`` is the 1-based step number."""
    if param.shape != grad.shape:
        raise ValueError(f"shape mismatch: param {param.shape}, grad {grad.shape}")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class Adam:
    """Per-parameter moment tracking around :func:`adam_update`."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, tensor in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(tensor.data)
                self.v[name] = np.zeros_like(tensor.data)
            new, self.m[name], self.v[name] = adam_update(
                tensor.data,
                grads[name],
                self.m[name],
                self.v[name],
                self.t,
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
            )
            tensor.data = np.ascontiguousarray(new)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
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


def train_step(
    model: ImputationModel,
    batch: list[Window],
    weights: LossWeights,
    optimizer: Adam,
    step_seed: int,
    loc_target: str = LOC_TARGET_OBSERVED,
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
    use_glo = weights.glo_variant != GLO_NONE and weights.glo > 0.0

    if loc_target == LOC_TARGET_OBSERVED:
        target_mask = m_obs
    else:
        target_mask = m_obs * (1.0 - m_art)

    try:
        z_target = None
        if use_glo:
            # stop-gradient branch: no tape active, output is a plain constant
            z_target = model.encode(x * m_obs).mu.detach()
            row_norms = np.sum(
                z_target.data.reshape(-1, z_target.shape[-1]) ** 2, axis=-1
            )
            if np.any(row_norms == 0.0):
                # a fully dead relu row has no alignment signal; skip the
                # global term this batch instead of failing on cos(a, 0)
                z_target = None
        with Tape() as tape:
            for tensor in model.params.values():
                tape.watch(tensor)
            dist = model.encode(Tensor(x_masked_in))
            z = reparameterize(dist, step_seed)
            x_hat = model.decode(z)
            reg = reg_loss(dist)
            loc = loc_loss(Tensor(x), x_hat, Tensor(target_mask))
            glo = None
            if z_target is not None:
                z_proj = model.project(z)
                if weights.glo_variant == GLO_INFONCE:
                    glo = infonce_loss(z_proj, z_target, weights.temperature)
                else:
                    glo = cosine_align_loss(z_proj, z_target)
            total, breakdown = total_objective(weights, reg=reg, loc=loc, glo=glo)
    except NumericError:
        return LossBreakdown(float("nan"), float("nan"), float("nan"), float("nan")), False

    if not np.isfinite(breakdown.total):
        return breakdown, False
    grads_raw = tape.backward(total)
    grads = {name: grads_raw.of(t) for name, t in model.params.items()}
    if any(not np.all(np.isfinite(g)) for g in grads.values()):
        return breakdown, False
    grads = clip_gradients(grads, clip_norm)
    optimizer.step(model.params, grads)
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
    """Everything needed to resume training at an exact step boundary."""

    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int
    epoch: int           # next epoch to run (or continue)
    batch_idx: int       # next batch within that epoch
    global_step: int
    best_val: float
    best_epoch: int
    best_params: dict[str, np.ndarray] | None
    stall: int           # epochs since the validation metric improved


@dataclass
class FitResult:
    model: ImputationModel           # best-on-validation parameters
    history: list[EpochStats]
    state: TrainState
    best_val_mae: float
    best_epoch: int
    log_rows: list[tuple[int, int, float, float, float, float]]


def _copy_arrays(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in arrays.items()}


def _prepare_val_windows(
    segment: Dataset, window_len: int, stride: int, spec: MaskSpec, norm
) -> list[Window]:
    windows = make_windows(segment, window_len, stride)
    return [apply_mask(normalize_window(w, norm), spec) for w in windows]


def validation_mae(model: ImputationModel, masked: list[Window]) -> float:
    """MAE on artificially hidden positions; falls back to all observed
    positions when the masks hid nothing (rate 0)."""
    abs_sum, _, count = masked_error_sums(model, masked)
    if count > 0:
        return abs_sum / count
    abs_sum, _, count = masked_error_sums(model, masked, positions="observed")
    if count == 0:
        raise TrainingError("validation split has no observed positions")
    return abs_sum / count


def fit(
    dataset: Dataset,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    start_state: TrainState | None = None,
    max_steps: int | None = None,
    checkpoint_path: str | None = None,
    progress: bool = False,
) -> FitResult:
    """Train on the chronological train split, select on the val split.

    ``max_steps`` stops after that many optimizer steps (counted across the
    whole run, including steps done before ``start_state`` was captured);
    the returned state resumes bit-exactly.
    """
    cfg.validate()
    model_cfg.validate()

    window_len = model_cfg.window_len
    train_seg, val_seg, _ = chrono_split(dataset, window_len, cfg.split)
    train_stride = (
        cfg.train_stride if cfg.train_stride is not None else max(1, window_len // 2)
    )
    val_stride = cfg.val_stride if cfg.val_stride is not None else window_len

    train_windows_raw = make_windows(train_seg, window_len, train_stride)
    norm = fit_normalizer(train_windows_raw)
    train_windows = [normalize_window(w, norm) for w in train_windows_raw]

    val_spec = replace(cfg.mask_spec, seed=derive(cfg.seed, STREAM_VAL_MASK))
    val_masked = _prepare_val_windows(val_seg, window_len, val_stride, val_spec, norm)

    if start_state is None:
        model = ImputationModel(model_cfg, seed=cfg.seed, normalizer=norm)
        state = TrainState(
            params={},
            adam_m={},
            adam_v={},
            adam_t=0,
            epoch=0,
            batch_idx=0,
            global_step=0,
            best_val=float("inf"),
            best_epoch=-1,
            best_params=None,
            stall=0,
        )
    else:
        state = start_state
        params = {k: Tensor(v.copy(), trainable=True) for k, v in state.params.items()}
        model = ImputationModel(model_cfg, params=params, normalizer=norm)

    optimizer = Adam(cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    optimizer.t = state.adam_t
    optimizer.m = _copy_arrays(state.adam_m)
    optimizer.v = _copy_arrays(state.adam_v)

    history: list[EpochStats] = []
    log_rows: list[tuple[int, int, float, float, float, float]] = []
    best_params = _copy_arrays(state.best_params) if state.best_params else None
    best_val = state.best_val
    best_epoch = state.best_epoch
    stall = state.stall
    global_step = state.global_step
    aborted_in_a_row = 0

    def snapshot(epoch: int, batch_idx: int) -> TrainState:
        return TrainState(
            params={k: t.data.copy() for k, t in model.params.items()},
            adam_m=_copy_arrays(optimizer.m),
            adam_v=_copy_arrays(optimizer.v),
            adam_t=optimizer.t,
            epoch=epoch,
            batch_idx=batch_idx,
            global_step=global_step,
            best_val=best_val,
            best_epoch=best_epoch,
            best_params=_copy_arrays(best_params) if best_params else None,
            stall=stall,
        )

    def finish(epoch: int, batch_idx: int) -> FitResult:
        final_state = snapshot(epoch, batch_idx)
        if best_params is not None:
            final = ImputationModel(
                model_cfg,
                params={k: Tensor(v.copy(), trainable=True) for k, v in best_params.items()},
                normalizer=norm,
            )
        else:
            final = model
        return FitResult(
            model=final,
            history=history,
            state=final_state,
            best_val_mae=best_val,
            best_epoch=best_epoch,
            log_rows=log_rows,
        )

    epoch = state.epoch
    resume_batch = state.batch_idx
    while epoch < cfg.epochs:
        t0 = time.monotonic()
        epoch_spec = replace(cfg.mask_spec, seed=derive(cfg.seed, STREAM_MASK, epoch))
        masked = [apply_mask(w, epoch_spec) for w in train_windows]
        perm = SplitMix64(derive(cfg.seed, STREAM_SHUFFLE, epoch)).permutation(len(masked))
        batches = [
            [masked[j] for j in perm[i : i + cfg.batch_size]]
            for i in range(0, len(perm), cfg.batch_size)
        ]
        sums = np.zeros(4)
        n_steps = 0
        for batch_idx in range(resume_batch, len(batches)):
            if max_steps is not None and global_step >= max_steps:
                return finish(epoch, batch_idx)
            step_seed = derive(cfg.seed, STREAM_NOISE, epoch, batch_idx)
            breakdown, stepped = train_step(
                model,
                batches[batch_idx],
                cfg.weights,
                optimizer,
                step_seed,
                loc_target=cfg.loc_target,
                clip_norm=cfg.clip_norm,
            )
            if stepped:
                aborted_in_a_row = 0
            else:
                aborted_in_a_row += 1
                if progress:
                    print(
                        f"epoch {epoch} step {global_step}: non-finite loss, step skipped",
                        file=sys.stderr,
                    )
                if aborted_in_a_row >= 3:
                    raise TrainingError(
                        "three consecutive non-finite training steps; aborting"
                    )
            log_rows.append(
                (epoch, global_step, breakdown.reg, breakdown.loc, breakdown.glo, breakdown.total)
            )
            if np.isfinite(breakdown.total):
                sums += (breakdown.reg, breakdown.loc, breakdown.glo, breakdown.total)
                n_steps += 1
            global_step += 1
        resume_batch = 0

        val_mae = validation_mae(model, val_masked)
        means = sums / max(n_steps, 1)
        history.append(
            EpochStats(
                epoch=epoch,
                reg=float(means[0]),
                loc=float(means[1]),
                glo=float(means[2]),
                total=float(means[3]),
                val_mae=val_mae,
                n_steps=n_steps,
            )
        )
        if val_mae < best_val:
            best_val = val_mae
            best_epoch = epoch
            best_params = {k: t.data.copy() for k, t in model.params.items()}
            stall = 0
            if checkpoint_path is not None:
                best_model = ImputationModel(
                    model_cfg,
                    params={
                        k: Tensor(v.copy(), trainable=True) for k, v in best_params.items()
                    },
                    normalizer=norm,
                )
                save_checkpoint(checkpoint_path, best_model)
        else:
            stall += 1
        if progress:
            dt = time.monotonic() - t0
            print(
                f"epoch {epoch}: train_total={means[3]:.6f} val_mae={val_mae:.6f} "
                f"({dt:.1f}s)",
                file=sys.stderr,
            )
        epoch += 1
        if cfg.early_stop_patience > 0 and stall >= cfg.early_stop_patience:
            break

    return finish(epoch, 0)


def write_training_log(path: str, rows: list[tuple[int, int, float, float, float, float]]) -> None:
    """Per-step loss CSV: epoch, step, reg, loc, glo, total."""
    with atomic_write(path) as fh:
        fh.write("epoch,step,reg,loc,glo,total\n")
        for epoch, step, reg, loc, glo, total in rows:
            fh.write(f"{epoch},{step},{reg!r},{loc!r},{glo!r},{total!r}\n")


_STATE_COUNTERS = (
    "adam_t", "epoch", "batch_idx", "global_step", "best_val", "best_epoch", "stall"
)
_STATE_GROUPS = ("param", "m", "v", "best")


def save_train_state(path: str, state: TrainState, model_cfg: ModelConfig) -> None:
    """The checkpoint container plus the training section: the counters as
    header keys, then the current parameters, the Adam moments and the best
    parameters as arrays prefixed ``param.``, ``m.``, ``v.`` and ``best.``."""
    header = {key: getattr(state, key) for key in _STATE_COUNTERS}
    groups = (state.params, state.adam_m, state.adam_v, state.best_params or {})
    arrays = {
        f"{prefix}.{name}": arr
        for prefix, group in zip(_STATE_GROUPS, groups)
        for name, arr in group.items()
    }
    write_container(path, model_cfg, header, arrays)


def load_train_state(path: str) -> tuple[TrainState, ModelConfig]:
    model_cfg, header, arrays = read_container(path, train_state=True)
    groups: dict[str, dict[str, np.ndarray]] = {prefix: {} for prefix in _STATE_GROUPS}
    for name, arr in arrays.items():
        prefix, _, rest = name.partition(".")
        if prefix not in groups or not rest:
            raise CheckpointError(f"{path}: unexpected array {name!r}")
        groups[prefix][rest] = arr
    check_params(path, model_cfg, groups["param"])
    # Adam creates its moments on the first step; the best set on the first validation
    for prefix in ("m", "v", "best"):
        if groups[prefix]:
            check_params(path, model_cfg, groups[prefix])
    if set(groups["m"]) != set(groups["v"]):
        raise CheckpointError(f"{path}: optimizer arrays do not match parameters")
    try:
        counters = {key: header[key] for key in _STATE_COUNTERS}
    except KeyError as exc:
        raise CheckpointError(f"{path}: state header missing {exc}") from None
    state = TrainState(
        params=groups["param"],
        adam_m=groups["m"],
        adam_v=groups["v"],
        best_params=groups["best"] or None,
        **counters,
    )
    return state, model_cfg
