"""Flat, typed key=value run configuration.

A run config is a text file of ``dotted.key = value`` lines (``#`` starts a
comment).  Every key is declared in one registry with a parser, so unknown
keys and malformed values fail loudly.  A run-level key states its default;
a key that a config object holds names its dataclass field, which gives the
default, and the builders pass the key's value there.  Any key can be
overridden on the command line.  The fully resolved config serializes to a
canonical, byte-stable echo for provenance.  :meth:`RunConfig.load_dataset` loads the
run's series, parsing a CSV source once per run directory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .data import LOADER_FORMAT, Dataset, MaskSpec, check_split_fractions, load_csv, make_synthetic
from .losses import LossWeights
from .model import DATASET_CACHE, CheckpointError, ModelConfig, read_container, write_container
from .training import TrainConfig

DATASET_CACHE_FILE = "dataset.bin"


class ConfigError(ValueError):
    """Unknown key, malformed value, or inconsistent configuration."""


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_float(s: str) -> float:
    try:
        value = float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return value


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected true/false, got {s!r}")


def _parse_str(s: str) -> str:
    return s


def _parse_floatlist(s: str) -> list[float]:
    if not s.strip():
        return []
    return [_parse_float(part.strip()) for part in s.split(",")]


def _parse_strlist(s: str) -> list[str]:
    if not s.strip():
        return []
    return [part.strip() for part in s.split(",")]


def _parse_optint(s: str):
    if s.lower() in ("none", ""):
        return None
    return _parse_int(s)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# key -> (parser, default) for a run-level setting, or (parser, class, field)
# for one a config object holds: its default is that dataclass field's, and
# the builders of RunConfig pass its value to that field
_REGISTRY: dict[str, tuple] = {
    "data.source": (_parse_str, "synthetic"),
    "data.synth_vars": (_parse_int, 7),
    "data.synth_steps": (_parse_int, 2000),
    "data.synth_seed": (_parse_int, 1),
    "data.synth_noise_std": (_parse_float, 0.1),
    "window.length": (_parse_int, 96),
    "window.train_stride": (_parse_optint, TrainConfig, "train_stride"),
    "window.val_stride": (_parse_optint, TrainConfig, "val_stride"),
    "model.d_model": (_parse_int, ModelConfig, "d_model"),
    "model.hidden_dim": (_parse_int, ModelConfig, "hidden_dim"),
    "model.attention": (_parse_bool, ModelConfig, "use_attention"),
    "train.epochs": (_parse_int, TrainConfig, "epochs"),
    "train.batch_size": (_parse_int, TrainConfig, "batch_size"),
    "train.learning_rate": (_parse_float, TrainConfig, "learning_rate"),
    "train.adam_beta1": (_parse_float, TrainConfig, "adam_beta1"),
    "train.adam_beta2": (_parse_float, TrainConfig, "adam_beta2"),
    "train.adam_eps": (_parse_float, TrainConfig, "adam_eps"),
    "train.seed": (_parse_int, TrainConfig, "seed"),
    "train.early_stop_patience": (_parse_int, TrainConfig, "early_stop_patience"),
    "train.clip_norm": (_parse_float, TrainConfig, "clip_norm"),
    "train.loc_target": (_parse_str, TrainConfig, "loc_target"),
    "train.split": (_parse_floatlist, TrainConfig, "split"),
    "train.weights.reg": (_parse_float, LossWeights, "reg"),
    "train.weights.loc": (_parse_float, LossWeights, "loc"),
    "train.weights.glo": (_parse_float, LossWeights, "glo"),
    "train.weights.glo_variant": (_parse_str, LossWeights, "glo_variant"),
    "train.weights.temperature": (_parse_float, LossWeights, "temperature"),
    "mask.pattern": (_parse_str, MaskSpec, "pattern"),
    "mask.rate": (_parse_float, MaskSpec, "rate"),
    "mask.block_len": (_parse_int, MaskSpec, "block_len"),
    "eval.rates": (_parse_floatlist, [0.1, 0.3, 0.5, 0.7, 0.9]),
    "eval.patterns": (_parse_strlist, ["point"]),
    "eval.seed": (_parse_int, 1),
    "eval.normalized": (_parse_bool, True),
    "output_dir": (_parse_str, "runs/out"),
}

# TrainConfig or LossWeights field -> its key, to name it in their errors
_TRAIN_KEYS = {
    entry[2]: key
    for key, entry in _REGISTRY.items()
    if len(entry) == 3 and entry[1] in (TrainConfig, LossWeights)
}


def _default(entry: tuple):
    """A key's default: its own, or its field's, a tuple given as the list
    its parser makes."""
    if len(entry) == 2:
        return entry[1]
    default = entry[1].__dataclass_fields__[entry[2]].default
    return list(default) if isinstance(default, tuple) else default


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings from config-file text."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def parse_override(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise ConfigError(f"override must look like key=value, got {item!r}")
    key, _, value = item.partition("=")
    return key.strip(), value.strip()


@dataclass
class RunConfig:
    """Fully resolved configuration: defaults, file values, then overrides."""

    values: dict[str, object]

    @classmethod
    def from_sources(
        cls, file_text: str | None = None, overrides: list[str] | None = None,
        source: str = "<config>",
    ) -> "RunConfig":
        raw = parse_config_text(file_text, source) if file_text is not None else {}
        for item in overrides or []:
            key, value = parse_override(item)
            raw[key] = value
        values: dict[str, object] = {}
        for key, entry in _REGISTRY.items():
            if key in raw:
                try:
                    values[key] = entry[0](raw.pop(key))
                except ConfigError as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from None
            else:
                values[key] = _default(entry)
        if raw:
            unknown = ", ".join(sorted(raw))
            raise ConfigError(f"unknown config keys: {unknown}")
        cfg = cls(values)
        cfg.validate()
        return cfg

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self) -> None:
        """The checks only a run config can make, then those of the model
        config, the split, the eval mask specs and the training config, whose
        errors become ConfigErrors; a training-config error names the key."""
        for key in ("data.source", "output_dir"):
            if not self.values[key]:
                raise ConfigError(f"{key} must not be empty")
        split = self.values["train.split"]
        if len(split) != 3:
            raise ConfigError(f"train.split needs 3 fractions, got {split}")
        for key in ("eval.rates", "eval.patterns"):
            if not self.values[key]:
                raise ConfigError(f"{key} needs at least one entry")
        for key in ("data.synth_vars", "data.synth_steps"):
            if self.values[key] < 1:
                raise ConfigError(f"{key} must be >= 1, got {self.values[key]}")
        if self.values["data.synth_noise_std"] < 0.0:
            raise ConfigError("data.synth_noise_std must be >= 0")
        for r in self.values["eval.rates"]:
            if not (0.0 < r < 1.0):
                raise ConfigError(f"eval.rates entries must lie in (0, 1), got {r}")
        try:
            model_cfg = self.model_config(n_vars=1)  # the data sets n_vars later
            model_cfg.validate()
            check_split_fractions(split)
            for pattern in self.values["eval.patterns"]:
                replace(self.mask_spec(), pattern=pattern).validate(model_cfg.window_len)
            self.train_config().validate(key=_TRAIN_KEYS.__getitem__)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def resolved_text(self) -> str:
        lines = [f"{key} = {_fmt(self.values[key])}" for key in sorted(_REGISTRY)]
        return "\n".join(lines) + "\n"

    def load_dataset(self) -> Dataset:
        """The run's series, then the checks that need its width.

        A CSV ``data.source`` is parsed once per run directory: the parse is
        kept in ``<output_dir>/dataset.bin``, keyed by the sha256 of the CSV's
        bytes and :data:`data.LOADER_FORMAT`, and later calls return it
        instead of parsing again.  Any unreadable, corrupt or stale file is a
        miss, never an error: the CSV is parsed as if the file were absent and
        the parse replaces it.  A CSV that fails to parse writes nothing.
        """
        source = self.values["data.source"]
        if source == "synthetic":
            ds = make_synthetic(
                n_vars=self.values["data.synth_vars"],
                t_total=self.values["data.synth_steps"],
                seed=self.values["data.synth_seed"],
                noise_std=self.values["data.synth_noise_std"],
            )
        else:
            ds = _load_csv_cached(source, Path(self.values["output_dir"]) / DATASET_CACHE_FILE)
        try:
            self.train_config().validate(key=_TRAIN_KEYS.__getitem__, n_vars=ds.n_vars)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return ds

    def _held(self, cls) -> dict[str, object]:
        """The values of the keys that set fields of ``cls``, by field."""
        return {
            entry[2]: self.values[key]
            for key, entry in _REGISTRY.items()
            if len(entry) == 3 and entry[1] is cls
        }

    def model_config(self, n_vars: int) -> ModelConfig:
        return ModelConfig(
            window_len=self.values["window.length"], n_vars=n_vars, **self._held(ModelConfig)
        )

    def mask_spec(self, seed: int = 0) -> MaskSpec:
        return MaskSpec(seed=seed, **self._held(MaskSpec))

    def train_config(self) -> TrainConfig:
        held = self._held(TrainConfig)
        held["split"] = tuple(held["split"])
        return TrainConfig(
            weights=LossWeights(**self._held(LossWeights)), mask_spec=self.mask_spec(), **held
        )


def _sha256_of(path) -> str:
    """The hex sha256 of a file's bytes, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _payload_sha256(names: list[str], values, native_mask) -> str:
    """The hex sha256 of a parse: its names, its shape and both arrays' bytes,
    the mask's as float64, the form the container keeps."""
    digest = hashlib.sha256(json.dumps([names, list(values.shape)]).encode("utf-8"))
    digest.update(values.tobytes())
    digest.update(native_mask.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()


def _load_csv_cached(source: str, cache: Path) -> Dataset:
    """``load_csv(source)``, or the parse kept in ``cache`` under the same key."""
    try:
        digest = _sha256_of(source)
    except OSError:
        return load_csv(source)  # which reports the unreadable file as it always has
    key = f"{digest}/{LOADER_FORMAT}"
    try:
        _, header, arrays = read_container(str(cache), DATASET_CACHE)
        names, values, mask = header["variable_names"], arrays["values"], arrays["native_mask"]
        hit = header["dataset_key"] == key and header["payload_sha256"] == _payload_sha256(
            names, values, mask
        )
    except (OSError, CheckpointError, KeyError):
        hit = False  # no cache, or one damaged past reading
    if hit:
        return Dataset(values, mask, names)
    ds = load_csv(source)
    header = {
        "dataset_key": key,
        "payload_sha256": _payload_sha256(ds.variable_names, ds.values, ds.native_mask),
        "variable_names": ds.variable_names,
    }
    try:
        # keep the parse only if the bytes parsed are the bytes hashed
        if _sha256_of(source) == digest:
            cache.parent.mkdir(parents=True, exist_ok=True)
            write_container(
                str(cache), None, header, {"values": ds.values, "native_mask": ds.native_mask}
            )
    except OSError:
        pass  # the cache only saves time; a run directory that cannot take it still runs
    return ds
