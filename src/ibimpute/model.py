"""Variational imputation model: encoder, sampler, decoder, projector.

The encoder maps a zero-filled normalized window ``[T, N]`` to a
diagonal-Gaussian latent per variable, ``mu`` and ``sigma`` of shape
``[N, d_model]``.  It is a 2-layer MLP applied per variable to the length-T
series (weights shared across variables), with an optional single-head
self-attention block across variables between the layers.  The decoder maps
latents back to a ``[T, N]`` reconstruction; the projector is one affine map
used only by the cosine-alignment objective.

All forwards accept an extra leading batch dimension.  Inference never
samples: imputation uses ``z = mu``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, clip, exp, relu, softmax, transpose
from .data import Normalizer, TimeSeriesWindow
from .rng import STREAM_INIT, STREAM_NOISE, SplitMix64, derive

LOG_STD_BOUND = 13.8  # exp(+-13.8) keeps sigma within (1e-6, 1e6)

CHECKPOINT_MAGIC = b"IBCKPT1\n"
CHECKPOINT_VERSION = 1


class NumericError(RuntimeError):
    """Non-finite activations, reported with the layer that produced them."""


class CheckpointError(RuntimeError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    window_len: int
    n_vars: int
    d_model: int = 256
    hidden_dim: int = 256
    use_attention: bool = False

    def validate(self) -> None:
        for name in ("window_len", "n_vars", "d_model", "hidden_dim"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive int, got {v!r}")


@dataclass
class LatentDistribution:
    """Diagonal Gaussian over per-variable latents, plus an optional draw."""

    mu: Tensor      # [.., N, d_model]
    sigma: Tensor   # [.., N, d_model], strictly positive
    z: Tensor | None = None


def _param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """Ordered (name, shape, fan_in) triples; fan_in 0 means zero-init."""
    t, h, d = cfg.window_len, cfg.hidden_dim, cfg.d_model
    specs = [
        ("encoder.embed.w", (t, h), t),
        ("encoder.embed.b", (h,), 0),
    ]
    if cfg.use_attention:
        specs += [
            ("encoder.attn.wq", (h, h), h),
            ("encoder.attn.wk", (h, h), h),
            ("encoder.attn.wv", (h, h), h),
        ]
    specs += [
        ("encoder.hidden.w", (h, h), h),
        ("encoder.hidden.b", (h,), 0),
        ("encoder.mu.w", (h, d), h),
        ("encoder.mu.b", (d,), 0),
        ("encoder.log_std.w", (h, d), h),
        ("encoder.log_std.b", (d,), 0),
        ("decoder.hidden.w", (d, h), d),
        ("decoder.hidden.b", (h,), 0),
        ("decoder.out.w", (h, t), h),
        ("decoder.out.b", (t,), 0),
        ("projector.w", (d, d), d),
        ("projector.b", (d,), 0),
    ]
    return specs


def init_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases."""
    cfg.validate()
    params: dict[str, Tensor] = {}
    for idx, (name, shape, fan_in) in enumerate(_param_specs(cfg)):
        if fan_in == 0:
            data = np.zeros(shape)
        else:
            rng = SplitMix64(derive(seed, STREAM_INIT, idx))
            bound = 1.0 / math.sqrt(fan_in)
            u = rng.uniforms(int(np.prod(shape))).reshape(shape)
            data = (2.0 * u - 1.0) * bound
        params[name] = Tensor(data, trainable=True)
    return params


def _checked(name: str, t: Tensor) -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise NumericError(f"non-finite activations after layer {name!r}")
    return t


class ImputationModel:
    """Parameter container with the forward passes of every component."""

    def __init__(
        self,
        config: ModelConfig,
        params: dict[str, Tensor] | None = None,
        seed: int = 0,
        normalizer: Normalizer | None = None,
    ):
        config.validate()
        self.config = config
        self.params = params if params is not None else init_params(config, seed)
        self.normalizer = normalizer
        expected = {name for name, _, _ in _param_specs(config)}
        got = set(self.params)
        if got != expected:
            raise ValueError(
                f"parameter names do not match config: missing {sorted(expected - got)}, "
                f"unexpected {sorted(got - expected)}"
            )
        for name, shape, _ in _param_specs(config):
            if self.params[name].shape != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {self.params[name].shape}, "
                    f"expected {shape}"
                )

    @property
    def n_params(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def trainable(self) -> dict[str, Tensor]:
        return dict(self.params)

    def encode(self, x_input) -> LatentDistribution:
        """Zero-filled normalized window [.., T, N] -> diagonal Gaussian."""
        p = self.params
        x = x_input if isinstance(x_input, Tensor) else Tensor(x_input)
        if x.ndim < 2:
            raise ValueError(f"encode: expected [.., T, N], got shape {x.shape}")
        h = transpose(x)  # [.., N, T]: one row per variable series
        h = _checked("encoder.embed", relu(h @ p["encoder.embed.w"] + p["encoder.embed.b"]))
        if self.config.use_attention:
            q = h @ p["encoder.attn.wq"]
            k = h @ p["encoder.attn.wk"]
            v = h @ p["encoder.attn.wv"]
            scores = (q @ transpose(k)) * (1.0 / math.sqrt(self.config.hidden_dim))
            h = _checked("encoder.attn", h + softmax(scores) @ v)
        h = _checked("encoder.hidden", relu(h @ p["encoder.hidden.w"] + p["encoder.hidden.b"]))
        mu = _checked("encoder.mu", h @ p["encoder.mu.w"] + p["encoder.mu.b"])
        raw = _checked("encoder.log_std", h @ p["encoder.log_std.w"] + p["encoder.log_std.b"])
        sigma = exp(clip(raw, -LOG_STD_BOUND, LOG_STD_BOUND))
        return LatentDistribution(mu=mu, sigma=sigma)

    def decode(self, z) -> Tensor:
        """Latents [.., N, d_model] -> reconstruction [.., T, N]."""
        p = self.params
        zt = z if isinstance(z, Tensor) else Tensor(z)
        h = _checked("decoder.hidden", relu(zt @ p["decoder.hidden.w"] + p["decoder.hidden.b"]))
        out = _checked("decoder.out", h @ p["decoder.out.w"] + p["decoder.out.b"])
        return transpose(out)

    def project(self, z) -> Tensor:
        """Affine [.., N, d_model] -> [.., N, d_model] for alignment."""
        zt = z if isinstance(z, Tensor) else Tensor(z)
        return zt @ self.params["projector.w"] + self.params["projector.b"]

    def reconstruct(self, x_input) -> Tensor:
        """Deterministic inference forward: decode the latent mean."""
        return self.decode(self.encode(x_input).mu)

    def impute(self, window: TimeSeriesWindow) -> np.ndarray:
        """Fill hidden entries of one window; visible entries pass through.

        Requires a fitted normalizer (set by training or checkpoint load).
        Returns source-scale values, shape [T, N].
        """
        if self.normalizer is None:
            raise ValueError("impute requires a fitted normalizer")
        visible = window.m_obs * window.m_art
        x_in = self.normalizer.normalize(window.x) * visible
        x_hat = self.reconstruct(x_in).data
        x_hat = self.normalizer.denormalize(x_hat)
        return np.where(visible == 1.0, window.x, x_hat)


def reparameterize(dist: LatentDistribution, seed: int) -> Tensor:
    """Draw z = mu + sigma * eps with eps ~ N(0, I) from a seeded stream.

    Gradients flow to mu and sigma; eps is a constant.
    """
    rng = SplitMix64(derive(seed, STREAM_NOISE))
    eps = Tensor(rng.normals(dist.mu.shape))
    return dist.mu + dist.sigma * eps


def _write_named_arrays(fh, arrays: dict[str, np.ndarray]) -> None:
    fh.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        raw = np.ascontiguousarray(arr, dtype="<f8")
        nb = name.encode("utf-8")
        fh.write(struct.pack("<H", len(nb)))
        fh.write(nb)
        fh.write(struct.pack("<B", raw.ndim))
        for dim in raw.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(raw.tobytes())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError("truncated checkpoint file")
    return buf


def _read_named_arrays(fh) -> dict[str, np.ndarray]:
    (count,) = struct.unpack("<I", _read_exact(fh, 4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
        name = _read_exact(fh, name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
        shape = tuple(
            struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(ndim)
        )
        n_items = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(_read_exact(fh, 8 * n_items), dtype="<f8")
        arrays[name] = data.reshape(shape).astype(np.float64)
    return arrays


def _read_header(fh, path: str, kind: str) -> dict:
    """Read the length-prefixed JSON header; ``kind`` names it in errors."""
    (blob_len,) = struct.unpack("<I", _read_exact(fh, 4))
    try:
        header = json.loads(_read_exact(fh, blob_len).decode("utf-8"))
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt {kind} header")
    return header


def _config_from_header(header: dict) -> ModelConfig:
    """Rebuild the ModelConfig echoed in a header; a missing key raises KeyError."""
    return ModelConfig(
        window_len=header["window_len"],
        n_vars=header["n_vars"],
        d_model=header["d_model"],
        hidden_dim=header["hidden_dim"],
        use_attention=header["use_attention"],
    )


def save_checkpoint(path: str, model: ImputationModel) -> None:
    """Write magic, version, JSON config echo, then named float64 arrays."""
    cfg = model.config
    header = {
        "window_len": cfg.window_len,
        "n_vars": cfg.n_vars,
        "d_model": cfg.d_model,
        "hidden_dim": cfg.hidden_dim,
        "use_attention": cfg.use_attention,
        "has_normalizer": model.normalizer is not None,
    }
    arrays = {name: t.data for name, t in model.params.items()}
    if model.normalizer is not None:
        arrays["normalizer.mean"] = model.normalizer.mean
        arrays["normalizer.std"] = model.normalizer.std
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        _write_named_arrays(fh, arrays)


def load_checkpoint(path: str) -> ImputationModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version}"
            )
        header = _read_header(fh, path, "config")
        arrays = _read_named_arrays(fh)
    try:
        cfg = _config_from_header(header)
    except KeyError as exc:
        raise CheckpointError(f"{path}: config header missing {exc}") from None
    normalizer = None
    if header.get("has_normalizer"):
        if "normalizer.mean" not in arrays or "normalizer.std" not in arrays:
            raise CheckpointError(f"{path}: normalizer arrays missing")
        normalizer = Normalizer(
            mean=arrays.pop("normalizer.mean"), std=arrays.pop("normalizer.std")
        )
    params: dict[str, Tensor] = {}
    for name, shape, _ in _param_specs(cfg):
        if name not in arrays:
            raise CheckpointError(f"{path}: parameter {name!r} missing")
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arrays[name].shape}, "
                f"config implies {shape}"
            )
        params[name] = Tensor(arrays[name], trainable=True)
    extra = set(arrays) - set(params)
    if extra:
        raise CheckpointError(f"{path}: unexpected arrays {sorted(extra)}")
    return ImputationModel(cfg, params=params, normalizer=normalizer)
