"""Variational imputation model: encoder, sampler, decoder, projector.

The encoder maps a zero-filled normalized window ``[T, N]`` to a
diagonal-Gaussian latent per variable, ``mu`` and ``sigma`` of shape
``[N, d_model]``.  It is a 2-layer MLP applied per variable to the length-T
series, with weights shared across variables.  The decoder maps
latents back to a ``[T, N]`` reconstruction; the projector is one affine map
used only by the cosine-alignment objective.

All forwards accept an extra leading batch dimension.  Inference never
samples: imputation uses ``z = mu``, and every untaped pass (inference,
validation, scoring, the training target) skips the log-σ head.

The σ head is one affine node with an exp-of-clipped-log-σ epilogue, and the
sampler one node; each keeps only what its backward reads and does the float
ops of the op chain it replaced.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, custom_node, matmul, transpose
from .data import Normalizer, Window, atomic_write
from .rng import STREAM_INIT, STREAM_NOISE, SplitMix64, derive

LOG_STD_BOUND = 13.8  # exp(+-13.8) keeps sigma within (1e-6, 1e6)

CHECKPOINT_MAGIC = b"IBCKPT1\n"
CHECKPOINT_VERSION = 1
_CONFIG_KEYS = ("window_len", "n_vars", "d_model", "hidden_dim")
# a model checkpoint's header also echoes an attention switch, always false:
# the encoder has no attention block, and the echo keeps the file format
_ATTENTION_KEY = "use_attention"
# the container's kinds, as its reader names them; each reader refuses the other
MODEL_CHECKPOINT = "model checkpoint"
DATASET_CACHE = "dataset cache"
_HEADER_LABELS = {MODEL_CHECKPOINT: "config", DATASET_CACHE: "dataset"}


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

    def validate(self) -> None:
        for name in ("window_len", "n_vars", "d_model", "hidden_dim"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive int, got {v!r}")


@dataclass
class LatentDistribution:
    """Diagonal Gaussian over per-variable latents."""

    mu: Tensor              # [.., N, d_model]
    sigma: Tensor | None    # [.., N, d_model], strictly positive; None if skipped


def _param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """Ordered (name, shape, fan_in) triples; fan_in 0 means zero-init."""
    t, h, d = cfg.window_len, cfg.hidden_dim, cfg.d_model
    return [
        ("encoder.embed.w", (t, h), t),
        ("encoder.embed.b", (h,), 0),
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


def param_count(cfg: ModelConfig) -> int:
    """How many float64 values the flat parameter buffer holds."""
    return sum(math.prod(shape) for _, shape, _ in _param_specs(cfg))


def param_views(cfg: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Named C-contiguous views of ``flat``, laid end to end in spec order."""
    views: dict[str, np.ndarray] = {}
    at = 0
    for name, shape, _ in _param_specs(cfg):
        size = math.prod(shape)
        views[name] = flat[at : at + size].reshape(shape)
        at += size
    return views


def flatten_params(cfg: ModelConfig, params: dict[str, Tensor | np.ndarray]) -> np.ndarray:
    """A new flat buffer holding ``params`` (tensors or arrays, shapes as
    :func:`param_views` gives them) end to end in spec order."""
    return np.concatenate(
        [getattr(params[name], "data", params[name]) for name, _, _ in _param_specs(cfg)],
        axis=None,
        dtype=np.float64,
    )


def init_params(cfg: ModelConfig, seed: int) -> np.ndarray:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases,
    as one flat buffer (see :func:`param_views` for the names)."""
    cfg.validate()
    flat = np.zeros(param_count(cfg))
    views = param_views(cfg, flat)
    for idx, (name, shape, fan_in) in enumerate(_param_specs(cfg)):
        if fan_in > 0:
            rng = SplitMix64(derive(seed, STREAM_INIT, idx))
            bound = 1.0 / math.sqrt(fan_in)
            u = rng.uniforms(views[name].size).reshape(shape)
            views[name][...] = (2.0 * u - 1.0) * bound
    return flat


def _checked(name: str, t: Tensor) -> Tensor:
    if not np.isfinite(t.data).all():
        raise NumericError(f"non-finite activations after layer {name!r}")
    return t


class ImputationModel:
    """Parameter container with the forward passes of every component."""

    def __init__(
        self,
        config: ModelConfig,
        params: dict[str, Tensor | np.ndarray] | None = None,
        seed: int = 0,
        normalizer: Normalizer | None = None,
    ):
        """``params`` (tensors or arrays) are copied into the model's own
        flat buffer; without them the parameters are seeded by ``seed``."""
        config.validate()
        self.config = config
        self.normalizer = normalizer
        # every parameter end to end in spec order: the optimizer updates this
        # buffer in place, and ``self.params`` holds named views of it
        if params is None:
            self.flat = init_params(config, seed)
        else:
            mismatch = _param_mismatch(config, params)
            if mismatch:
                raise ValueError(mismatch)
            self.flat = flatten_params(config, params)
        self.params = {
            name: Tensor(view, trainable=True)
            for name, view in param_views(config, self.flat).items()
        }

    def _affine(self, name: str, x: Tensor, relu: bool = False, exp_bound=None) -> Tensor:
        """Layer ``name``: ``x @ w + b``, then ReLU or exp(clip(., ±exp_bound))
        if asked, as one node."""
        w, b = self.params[f"{name}.w"], self.params[f"{name}.b"]
        return _checked(name, matmul(x, w, bias=b, relu=relu, exp_bound=exp_bound))

    def encode(self, x_input, mu_only: bool = False) -> LatentDistribution:
        """Zero-filled normalized window [.., T, N] -> diagonal Gaussian.
        ``mu_only`` skips the log-σ head (sigma is None); mu keeps its bits."""
        x = x_input if isinstance(x_input, Tensor) else Tensor(x_input)
        if x.ndim < 2:
            raise ValueError(f"encode: expected [.., T, N], got shape {x.shape}")
        h = transpose(x)  # [.., N, T]: one row per variable series
        h = self._affine("encoder.embed", h, relu=True)
        h = self._affine("encoder.hidden", h, relu=True)
        mu = self._affine("encoder.mu", h)
        if mu_only:
            return LatentDistribution(mu=mu, sigma=None)
        sigma = self._affine("encoder.log_std", h, exp_bound=LOG_STD_BOUND)
        return LatentDistribution(mu=mu, sigma=sigma)

    def decode(self, z) -> Tensor:
        """Latents [.., N, d_model] -> reconstruction [.., T, N]."""
        zt = z if isinstance(z, Tensor) else Tensor(z)
        h = self._affine("decoder.hidden", zt, relu=True)
        out = self._affine("decoder.out", h)
        return transpose(out)

    def project(self, z) -> Tensor:
        """Affine [.., N, d_model] -> [.., N, d_model] for alignment."""
        zt = z if isinstance(z, Tensor) else Tensor(z)
        return matmul(zt, self.params["projector.w"], bias=self.params["projector.b"])

    def reconstruct(self, x_input) -> Tensor:
        """Deterministic inference forward: decode the latent mean."""
        return self.decode(self.encode(x_input, mu_only=True).mu)

    def impute(self, window: Window) -> np.ndarray:
        """Fill hidden entries of one window; visible entries pass through.

        Requires a fitted normalizer (set by training or checkpoint load).
        Returns source-scale values, shape [T, N].
        """
        if self.normalizer is None:
            raise ValueError("impute requires a fitted normalizer")
        visible = window.m_obs & window.m_art
        x_in = self.normalizer.normalize(window.x) * visible
        x_hat = self.reconstruct(x_in).data
        x_hat = self.normalizer.denormalize(x_hat)
        return np.where(visible, window.x, x_hat)


def reparameterize(dist: LatentDistribution, seed: int) -> Tensor:
    """Draw z = mu + sigma * eps with eps ~ N(0, I) from a seeded stream.

    Gradients flow to mu and sigma; eps is a constant.
    """
    rng = SplitMix64(derive(seed, STREAM_NOISE))
    eps = rng.normals(dist.mu.shape)
    z = dist.sigma.data * eps
    z += dist.mu.data  # mu + sigma * eps: the sum is the same either way round
    return custom_node(z, (dist.mu, dist.sigma),
                       lambda g, need: (g if need[0] else None, g * eps if need[1] else None))


def write_container(
    path: str, config: ModelConfig | None, header: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Write the one on-disk format: magic, version, a JSON header (the config
    echo, if there is a ``config``, plus ``header``), then named little-endian
    float64 arrays.  A model checkpoint echoes its :class:`ModelConfig`; a
    dataset cache has none to echo.

    The write is atomic (see :func:`data.atomic_write`), so a process killed
    mid-write leaves the previous file whole.
    """
    echo = {}
    if config is not None:
        echo = {key: getattr(config, key) for key in _CONFIG_KEYS}
        echo[_ATTENTION_KEY] = False
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
    path: str, kind: str
) -> tuple[ModelConfig | None, dict, dict[str, np.ndarray]]:
    """Parse a file from :func:`write_container` into (config, header, arrays).

    ``kind`` is the kind the caller expects, :data:`MODEL_CHECKPOINT` or
    :data:`DATASET_CACHE`, and a file of the other kind is refused: a header
    with ``dataset_key`` is a dataset cache's, any other a model checkpoint's.
    The config is None for a dataset cache.  Every length is
    checked against the bytes left before anything is sliced or allocated,
    so any corrupt input raises :class:`CheckpointError`.
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
    label = _HEADER_LABELS[kind]
    (blob_len,) = unpack("<I")
    try:
        header = json.loads(str(take(blob_len), "utf-8"))
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt {label} header")
    found = DATASET_CACHE if "dataset_key" in header else MODEL_CHECKPOINT
    if found != kind:
        raise CheckpointError(f"{path}: a {found}, not a {kind}")
    config = None
    if kind == MODEL_CHECKPOINT:
        try:
            config = ModelConfig(**{key: header[key] for key in _CONFIG_KEYS})
            config.validate()
            attention = header[_ATTENTION_KEY]
        except KeyError as exc:
            raise CheckpointError(f"{path}: {label} header missing {exc}") from None
        except ValueError as exc:
            raise CheckpointError(f"{path}: {label} header: {exc}") from None
        if attention is not False:
            raise CheckpointError(
                f"{path}: {label} header sets {_ATTENTION_KEY} {attention!r}; "
                "the encoder has no attention block"
            )

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


def _param_mismatch(config: ModelConfig, arrays: dict) -> str | None:
    """Why ``arrays`` are not exactly the parameters, with their shapes, that
    ``config`` implies; None when they are."""
    specs = {name: shape for name, shape, _ in _param_specs(config)}
    for name, shape in specs.items():
        if name not in arrays:
            return f"parameter {name!r} missing"
        if arrays[name].shape != shape:
            return f"parameter {name!r} has shape {arrays[name].shape}, config implies {shape}"
    extra = set(arrays) - set(specs)
    return f"unexpected arrays {sorted(extra)}" if extra else None


def save_checkpoint(path: str, model: ImputationModel) -> None:
    """Write the model's config, parameters and normalizer as one container."""
    arrays = {name: t.data for name, t in model.params.items()}
    if model.normalizer is not None:
        arrays["normalizer.mean"] = model.normalizer.mean
        arrays["normalizer.std"] = model.normalizer.std
    header = {"has_normalizer": model.normalizer is not None}
    write_container(path, model.config, header, arrays)


def load_checkpoint(path: str) -> ImputationModel:
    cfg, header, arrays = read_container(path, MODEL_CHECKPOINT)
    if "has_normalizer" not in header:
        raise CheckpointError(f"{path}: config header missing 'has_normalizer'")
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
    mismatch = _param_mismatch(cfg, arrays)
    if mismatch:
        raise CheckpointError(f"{path}: {mismatch}")
    return ImputationModel(cfg, params=arrays, normalizer=normalizer)
