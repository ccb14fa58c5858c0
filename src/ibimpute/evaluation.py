"""Imputation metrics, the ablation grid, latent diagnostics.

Metrics are computed only at positions that are observed in the source but
artificially hidden, so the ground truth is known and the model never saw
the value.  Scores are in normalized space by default (source-scale scores
behind a flag).  Evaluation masks come from their own seed so every model
configuration is scored on identical hidden positions.

One error arithmetic serves every score: :func:`point_metrics` and
:func:`masked_error_sums`, which scores every evaluation and validation run,
both sum ``e = (x - x_hat) * sel`` (optionally rescaled per variable) through
``_error_sums``.

Every encoder pass here is :func:`latent_means`, μ-only, in chunks of 64
windows: :func:`masked_error_sums` decodes its output, :func:`alignment_score`
compares it with the full view, and :func:`write_latents` encodes nothing.
``ibimpute eval`` and ``export-latents`` encode the unmasked windows once per
command and each cell's masked windows once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    Dataset,
    MaskSpec,
    Window,
    apply_mask,
    atomic_write,
    chrono_split,
    make_windows,
    normalize_window,
    stack_windows,
)
from .model import ImputationModel
from .rng import STREAM_EVAL_MASK, derive

_CHUNK = 64  # windows per inference batch

ABLATION_FULL = "full"
ABLATION_NO_REG = "no_reg"
ABLATION_NO_GLO = "no_glo"
ABLATION_LOC_ONLY = "loc_only"
ABLATION_CONFIGS = (ABLATION_FULL, ABLATION_NO_REG, ABLATION_NO_GLO, ABLATION_LOC_ONLY)


class EvaluationError(ValueError):
    """A cell cannot be scored: no fitted normalizer, or nothing hidden."""


@dataclass(frozen=True)
class EvalEntry:
    """One scored (pattern, rate) cell; ``rate=None`` marks an average row."""

    pattern: str
    rate: float | None
    mae: float
    mse: float
    n_eval_points: int

    @property
    def rate_label(self) -> str:
        return "avg" if self.rate is None else repr(self.rate)


def _error_sums(
    x: np.ndarray, x_hat: np.ndarray, sel: np.ndarray, var_scale: np.ndarray | None = None
) -> tuple[float, float, int]:
    """(sum |e|, sum e^2, count) of ``e = (x - x_hat) * sel``, times
    ``var_scale`` per variable if given, over the positions where ``sel`` is 1."""
    diff = (x - x_hat) * sel
    if var_scale is not None:
        diff = diff * var_scale
    return float(np.abs(diff).sum()), float((diff * diff).sum()), int(sel.sum())


def point_metrics(
    x: np.ndarray, x_hat: np.ndarray, eval_mask: np.ndarray
) -> tuple[float, float, int]:
    """(MAE, MSE, count) over positions where ``eval_mask`` is 1."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    mask = np.asarray(eval_mask, dtype=np.float64)
    if x.shape != x_hat.shape or x.shape != mask.shape:
        raise ValueError(
            f"point_metrics: shapes differ: {x.shape}, {x_hat.shape}, {mask.shape}"
        )
    abs_sum, sq_sum, count = _error_sums(x, x_hat, mask)
    if count == 0:
        raise ValueError("point_metrics: no evaluation positions")
    return abs_sum / count, sq_sum / count, count


def latent_means(model: ImputationModel, windows: list[Window], full: bool = False) -> np.ndarray:
    """Latent means ``[W, N, d]`` of the windows' inputs ``x * m_obs * m_art`` (with
    ``full``, of ``x * m_obs``): one μ-only encoder pass per chunk of windows."""
    mus = []
    for i in range(0, len(windows), _CHUNK):
        x, m_obs, m_art = stack_windows(windows[i : i + _CHUNK])
        x_in = x * m_obs if full else x * m_obs * m_art
        mus.append(model.encode(x_in, mu_only=True).mu.data)
    return np.concatenate(mus)


def masked_error_sums(
    model: ImputationModel,
    masked: list[Window],
    positions: str = "eval",
    var_scale: np.ndarray | None = None,
    mu: np.ndarray | None = None,
) -> tuple[float, float, int]:
    """Accumulated (sum |err|, sum err^2, count) over many windows.

    ``positions`` selects "eval" (observed and artificially hidden) or
    "observed" (every ground-truth-known position).  ``var_scale`` optionally
    rescales errors per variable (used for source-scale metrics).  The
    windows are decoded from ``mu``, their :func:`latent_means`, which is
    computed here unless the caller has it.
    """
    if positions not in ("eval", "observed"):
        raise ValueError(f"unknown position selector {positions!r}")
    mu = latent_means(model, masked) if mu is None else mu
    abs_sum = 0.0
    sq_sum = 0.0
    count = 0
    for i in range(0, len(masked), _CHUNK):
        x, m_obs, m_art = stack_windows(masked[i : i + _CHUNK])
        x_hat = model.decode(mu[i : i + _CHUNK]).data
        sel = m_obs * (1.0 - m_art) if positions == "eval" else m_obs
        chunk_abs, chunk_sq, chunk_count = _error_sums(x, x_hat, sel, var_scale)
        abs_sum += chunk_abs
        sq_sum += chunk_sq
        count += chunk_count
    return abs_sum, sq_sum, count


def evaluate(
    model: ImputationModel,
    masked: list[Window],
    spec: MaskSpec,
    normalized: bool = True,
    mu: np.ndarray | None = None,
) -> EvalEntry:
    """Score one (pattern, rate) cell at the artificially hidden positions.

    ``masked`` holds windows normalized with the model's normalizer and then
    masked with ``spec``; they are reconstructed with inference semantics,
    from their :func:`latent_means` ``mu`` if given.
    """
    if model.normalizer is None:
        raise EvaluationError("evaluate requires a model with a fitted normalizer")
    scale = None if normalized else model.normalizer.std
    abs_sum, sq_sum, count = masked_error_sums(model, masked, var_scale=scale, mu=mu)
    if count == 0:
        raise EvaluationError(
            f"mask pattern={spec.pattern} rate={spec.rate} hid no observed values"
        )
    return EvalEntry(
        pattern=spec.pattern,
        rate=spec.rate,
        mae=abs_sum / count,
        mse=sq_sum / count,
        n_eval_points=count,
    )


def average_entry(pattern: str, entries: list[EvalEntry]) -> EvalEntry:
    """Unweighted mean over rate rows, in the style of a summary table row."""
    if not entries:
        raise ValueError("average_entry: no entries")
    return EvalEntry(
        pattern=pattern,
        rate=None,
        mae=float(np.mean([e.mae for e in entries])),
        mse=float(np.mean([e.mse for e in entries])),
        n_eval_points=int(sum(e.n_eval_points for e in entries)),
    )


def held_out_windows(dataset: Dataset, model_cfg, train_cfg) -> list[Window]:
    """Raw windows of the test split, at the validation stride
    (see :meth:`TrainConfig.strides`)."""
    _, _, test_seg = chrono_split(dataset, model_cfg.window_len, train_cfg.split)
    _, stride = train_cfg.strides(model_cfg.window_len)
    return make_windows(test_seg, model_cfg.window_len, stride)


def run_ablation(
    dataset: Dataset,
    model_cfg,
    train_cfg,
    rates: list[float],
    eval_seed: int = 1,
    normalized: bool = True,
    progress: bool = False,
) -> dict[str, list[EvalEntry]]:
    """Train and score the four weight configurations on shared data/masks:
    config name -> one entry per rate.

    Configurations: full (weights as given), no_reg (regularizer weight 0),
    no_glo (global weight 0), loc_only (both 0).  The local weight must be
    positive; without it none of the configurations fit the data.
    """
    from .training import fit

    base = train_cfg.weights
    if base.loc <= 0.0:
        raise ValueError("run_ablation: the local reconstruction weight must be > 0")
    variants = {
        ABLATION_FULL: base,
        ABLATION_NO_REG: replace(base, reg=0.0),
        ABLATION_NO_GLO: replace(base, glo=0.0),
        ABLATION_LOC_ONLY: replace(base, reg=0.0, glo=0.0),
    }
    test_raw = held_out_windows(dataset, model_cfg, train_cfg)
    # every variant fits the same normalizer (same data, split and strides),
    # so the windows masked for a rate after the first fit serve all four
    masked_by_rate: dict[float, list[Window]] = {}
    entries: dict[str, list[EvalEntry]] = {}
    for name, weights in variants.items():
        per_rate: list[EvalEntry] = []
        for rate in rates:
            cfg = replace(
                train_cfg,
                weights=weights,
                mask_spec=replace(train_cfg.mask_spec, rate=rate),
            )
            if progress:
                print(f"ablation: training config={name} rate={rate}", file=sys.stderr)
            result = fit(dataset, model_cfg, cfg, progress=progress)
            eval_spec = MaskSpec(
                pattern=cfg.mask_spec.pattern,
                rate=rate,
                block_len=cfg.mask_spec.block_len,
                seed=derive(eval_seed, STREAM_EVAL_MASK),
            )
            if rate not in masked_by_rate:
                masked_by_rate[rate] = [
                    apply_mask(normalize_window(w, result.model.normalizer), eval_spec)
                    for w in test_raw
                ]
            per_rate.append(evaluate(result.model, masked_by_rate[rate], eval_spec, normalized))
        entries[name] = per_rate
    return entries


def alignment_score(
    model: ImputationModel,
    masked: list[Window],
    mu: np.ndarray | None = None,
    full_mu: np.ndarray | None = None,
) -> float:
    """Mean cosine between masked-input and full-input latent means.

    One cosine per (window, variable) row.  Bit-identical rows score exactly
    1.0; a pair of zero rows counts as aligned (1.0); a single zero row
    contributes 0.0.  ``mu`` and ``full_mu``, the masked and the full
    :func:`latent_means` of ``masked`` if the caller has them, are read
    instead of encoding the windows again.
    """
    if not masked:
        raise ValueError("alignment_score: no windows")
    mu = latent_means(model, masked) if mu is None else mu
    full_mu = latent_means(model, masked, full=True) if full_mu is None else full_mu
    a, b = mu.reshape(-1, mu.shape[-1]), full_mu.reshape(-1, full_mu.shape[-1])
    dots = np.sum(a * b, axis=-1)
    na = np.sum(a * a, axis=-1)
    nb = np.sum(b * b, axis=-1)
    cos = np.zeros(len(dots))
    both_zero = (na == 0.0) & (nb == 0.0)
    ok = (na > 0.0) & (nb > 0.0)
    # sqrt(s * s) == s exactly in float64, so identical rows give exactly 1
    cos[ok] = dots[ok] / np.sqrt(na[ok] * nb[ok])
    cos[both_zero] = 1.0
    return float(cos.mean())


def _pca_components(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center and top-2 principal axes of [R, d] rows, deterministic signs."""
    center = embeddings.mean(axis=0)
    centered = embeddings - center
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2].copy()
    for row in comps:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0.0:
            row *= -1.0
    return center, comps


def write_latents(path: str, mu: np.ndarray, full_mu: np.ndarray) -> None:
    """Write 2-D projections of one cell's latent means to a CSV.

    ``mu`` and ``full_mu`` are the masked and the full :func:`latent_means`
    of the cell's windows, as for :func:`alignment_score`; nothing is encoded.
    Principal axes are fitted on the full-view embeddings only, then
    applied to both branches, so paired points are directly comparable.
    Columns: window, variable, branch {masked, original}, pc1, pc2.
    """
    n_vars = full_mu.shape[1]
    a, b = mu.reshape(-1, mu.shape[-1]), full_mu.reshape(-1, full_mu.shape[-1])
    if b.shape[0] < 3:
        raise ValueError(f"write_latents: need at least 3 embeddings, got {b.shape[0]}")
    if b.shape[1] < 2:
        raise ValueError("write_latents: need at least 2 latent dimensions")
    center, comps = _pca_components(b)
    with atomic_write(path) as fh:
        fh.write("window,variable,branch,pc1,pc2\n")
        for row, (pm, pf) in enumerate(zip((a - center) @ comps.T, (b - center) @ comps.T)):
            w_idx, v_idx = divmod(row, n_vars)
            fh.write(f"{w_idx},{v_idx},masked,{float(pm[0])!r},{float(pm[1])!r}\n")
            fh.write(f"{w_idx},{v_idx},original,{float(pf[0])!r},{float(pf[1])!r}\n")


def write_sweep_csv(path: str, rows: list[EvalEntry]) -> None:
    with atomic_write(path) as fh:
        fh.write("pattern,rate,mae,mse,n_points\n")
        for e in rows:
            fh.write(f"{e.pattern},{e.rate_label},{e.mae!r},{e.mse!r},{e.n_eval_points}\n")


def write_ablation_csv(path: str, entries: dict[str, list[EvalEntry]]) -> None:
    with atomic_write(path) as fh:
        fh.write("config,pattern,rate,mae,mse,n_points\n")
        for name in ABLATION_CONFIGS:
            for e in entries.get(name, []):
                fh.write(
                    f"{name},{e.pattern},{e.rate_label},{e.mae!r},{e.mse!r},{e.n_eval_points}\n"
                )
