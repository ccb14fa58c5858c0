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
from .data import Normalizer, Window, atomic_write
from .rng import STREAM_INIT, STREAM_NOISE, SplitMix64, derive

LOG_STD_BOUND = 13.8  # exp(+-13.8) keeps sigma within (1e-6, 1e6)

CHECKPOINT_MAGIC = b"IBCKPT1\n"
CHECKPOINT_VERSION = 1
_CONFIG_KEYS = ("window_len", "n_vars", "d_model", "hidden_dim", "use_attention")


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

    def impute(self, window: Window) -> np.ndarray:
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


def write_container(
    path: str, config: ModelConfig, header: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Write the one on-disk format: magic, version, a JSON header (the config
    echo plus ``header``), then named little-endian float64 arrays.

    The write is atomic (see :func:`data.atomic_write`), so a process killed
    mid-write leaves the previous file whole.
    """
    echo = {key: getattr(config, key) for key in _CONFIG_KEYS}
    blob = json.dumps({**echo, **header}, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            raw = np.ascontiguousarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack(f"<B{raw.ndim}I", raw.ndim, *raw.shape))
            fh.write(raw.tobytes())


def read_container(
    path: str, train_state: bool
) -> tuple[ModelConfig, dict, dict[str, np.ndarray]]:
    """Parse a file from :func:`write_container` into (config, header, arrays).

    A model checkpoint's header carries ``has_normalizer``; a train state's
    carries its step counters instead, and ``train_state`` says which one the
    caller expects.  Every length is checked against the bytes left before
    anything is sliced or allocated, so any corrupt input raises
    :class:`CheckpointError`.
    """
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())
    if buf[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    pos = len(CHECKPOINT_MAGIC)

    def take(n: int) -> memoryview:
        nonlocal pos
        if n > len(buf) - pos:
            raise CheckpointError(f"{path}: truncated checkpoint file")
        pos += n
        return buf[pos - n : pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    (version,) = unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    kind = "state" if train_state else "config"
    (blob_len,) = unpack("<I")
    try:
        header = json.loads(str(take(blob_len), "utf-8"))
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt {kind} header")
    try:
        config = ModelConfig(**{key: header[key] for key in _CONFIG_KEYS})
        config.validate()
    except KeyError as exc:
        raise CheckpointError(f"{path}: {kind} header missing {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: {kind} header: {exc}") from None
    if train_state and "has_normalizer" in header:
        raise CheckpointError(f"{path}: a model checkpoint, not a training-state file")
    if not train_state and "has_normalizer" not in header:
        raise CheckpointError(f"{path}: a training-state file, not a model checkpoint")

    arrays: dict[str, np.ndarray] = {}
    (count,) = unpack("<I")
    for _ in range(count):
        (name_len,) = unpack("<H")
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: corrupt array name") from None
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate array {name!r}")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            arrays[name] = data.reshape(shape).astype(np.float64)
        except ValueError:
            raise CheckpointError(f"{path}: array {name!r} has {ndim} dimensions") from None
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} bytes after the last array")
    return config, header, arrays


def check_params(path: str, config: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
    """Raise CheckpointError unless ``arrays`` holds exactly the parameters,
    with their shapes, that ``config`` implies."""
    specs = {name: shape for name, shape, _ in _param_specs(config)}
    for name, shape in specs.items():
        if name not in arrays:
            raise CheckpointError(f"{path}: parameter {name!r} missing")
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arrays[name].shape}, "
                f"config implies {shape}"
            )
    extra = set(arrays) - set(specs)
    if extra:
        raise CheckpointError(f"{path}: unexpected arrays {sorted(extra)}")


def save_checkpoint(path: str, model: ImputationModel) -> None:
    """Write the model's config, parameters and normalizer as one container."""
    arrays = {name: t.data for name, t in model.params.items()}
    if model.normalizer is not None:
        arrays["normalizer.mean"] = model.normalizer.mean
        arrays["normalizer.std"] = model.normalizer.std
    header = {"has_normalizer": model.normalizer is not None}
    write_container(path, model.config, header, arrays)


def load_checkpoint(path: str) -> ImputationModel:
    cfg, header, arrays = read_container(path, train_state=False)
    normalizer = None
    if header["has_normalizer"]:
        mean = arrays.pop("normalizer.mean", None)
        std = arrays.pop("normalizer.std", None)
        if mean is None or std is None:
            raise CheckpointError(f"{path}: normalizer arrays missing")
        if mean.shape != (cfg.n_vars,) or std.shape != (cfg.n_vars,):
            raise CheckpointError(
                f"{path}: normalizer arrays have shapes {mean.shape} and {std.shape}, "
                f"config implies ({cfg.n_vars},)"
            )
        normalizer = Normalizer(mean=mean, std=std)
    check_params(path, cfg, arrays)
    params = {
        name: Tensor(arrays[name], trainable=True) for name, _, _ in _param_specs(cfg)
    }
    return ImputationModel(cfg, params=params, normalizer=normalizer)
