"""Flat, typed key=value run configuration.

A run config is a text file of ``dotted.key = value`` lines (``#`` starts a
comment).  Every key is declared in a registry with a type and a default, so
unknown keys and malformed values fail loudly.  Any key can be overridden on
the command line.  The fully resolved config serializes to a canonical,
byte-stable echo for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .data import Dataset, MaskSpec, check_split_fractions, load_csv, make_synthetic
from .losses import LossWeights
from .model import ModelConfig
from .training import LOC_TARGET_OBSERVED, TrainConfig


class ConfigError(ValueError):
    """Unknown key, malformed value, or inconsistent configuration."""


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None


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


# key -> (parser, default)
_REGISTRY: dict[str, tuple] = {
    "data.source": (_parse_str, "synthetic"),
    "data.synth_vars": (_parse_int, 7),
    "data.synth_steps": (_parse_int, 2000),
    "data.synth_seed": (_parse_int, 1),
    "data.synth_noise_std": (_parse_float, 0.1),
    "window.length": (_parse_int, 96),
    "window.train_stride": (_parse_optint, None),
    "window.val_stride": (_parse_optint, None),
    "model.d_model": (_parse_int, 256),
    "model.hidden_dim": (_parse_int, 256),
    "model.attention": (_parse_bool, False),
    "train.epochs": (_parse_int, 30),
    "train.batch_size": (_parse_int, 64),
    "train.learning_rate": (_parse_float, 0.001),
    "train.adam_beta1": (_parse_float, 0.9),
    "train.adam_beta2": (_parse_float, 0.999),
    "train.adam_eps": (_parse_float, 1e-8),
    "train.seed": (_parse_int, 0),
    "train.early_stop_patience": (_parse_int, 0),
    "train.clip_norm": (_parse_float, 5.0),
    "train.loc_target": (_parse_str, LOC_TARGET_OBSERVED),
    "train.split": (_parse_floatlist, [0.6, 0.2, 0.2]),
    "train.weights.reg": (_parse_float, 0.01),
    "train.weights.loc": (_parse_float, 1.0),
    "train.weights.glo": (_parse_float, 0.1),
    "train.weights.glo_variant": (_parse_str, "cosine"),
    "train.weights.temperature": (_parse_float, 0.1),
    "mask.pattern": (_parse_str, "point"),
    "mask.rate": (_parse_float, 0.5),
    "mask.block_len": (_parse_int, 4),
    "eval.rates": (_parse_floatlist, [0.1, 0.3, 0.5, 0.7, 0.9]),
    "eval.patterns": (_parse_strlist, ["point"]),
    "eval.seed": (_parse_int, 1),
    "eval.normalized": (_parse_bool, True),
    "output_dir": (_parse_str, "runs/out"),
}


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
        for key, (parser, default) in _REGISTRY.items():
            if key in raw:
                try:
                    values[key] = parser(raw.pop(key))
                except ConfigError as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from None
            else:
                values[key] = default
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
        errors become ConfigErrors."""
        split = self.values["train.split"]
        if len(split) != 3:
            raise ConfigError(f"train.split needs 3 fractions, got {split}")
        for key in ("eval.rates", "eval.patterns"):
            if not self.values[key]:
                raise ConfigError(f"{key} needs at least one entry")
        for r in self.values["eval.rates"]:
            if not (0.0 < r < 1.0):
                raise ConfigError(f"eval.rates entries must lie in (0, 1), got {r}")
        try:
            model_cfg = self.model_config(n_vars=1)  # the data sets n_vars later
            model_cfg.validate()
            check_split_fractions(split)
            for pattern in self.values["eval.patterns"]:
                replace(self.mask_spec(), pattern=pattern).validate(model_cfg.window_len)
            self.train_config().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def resolved_text(self) -> str:
        lines = [f"{key} = {_fmt(self.values[key])}" for key in sorted(_REGISTRY)]
        return "\n".join(lines) + "\n"

    def load_dataset(self) -> Dataset:
        source = self.values["data.source"]
        if source == "synthetic":
            return make_synthetic(
                n_vars=self.values["data.synth_vars"],
                t_total=self.values["data.synth_steps"],
                seed=self.values["data.synth_seed"],
                noise_std=self.values["data.synth_noise_std"],
            )
        return load_csv(source)

    def model_config(self, n_vars: int) -> ModelConfig:
        return ModelConfig(
            window_len=self.values["window.length"],
            n_vars=n_vars,
            d_model=self.values["model.d_model"],
            hidden_dim=self.values["model.hidden_dim"],
            use_attention=self.values["model.attention"],
        )

    def mask_spec(self, seed: int = 0) -> MaskSpec:
        return MaskSpec(
            pattern=self.values["mask.pattern"],
            rate=self.values["mask.rate"],
            block_len=self.values["mask.block_len"],
            seed=seed,
        )

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            reg=self.values["train.weights.reg"],
            loc=self.values["train.weights.loc"],
            glo=self.values["train.weights.glo"],
            glo_variant=self.values["train.weights.glo_variant"],
            temperature=self.values["train.weights.temperature"],
        )

    def train_config(self) -> TrainConfig:
        split = self.values["train.split"]
        return TrainConfig(
            epochs=self.values["train.epochs"],
            batch_size=self.values["train.batch_size"],
            learning_rate=self.values["train.learning_rate"],
            adam_beta1=self.values["train.adam_beta1"],
            adam_beta2=self.values["train.adam_beta2"],
            adam_eps=self.values["train.adam_eps"],
            seed=self.values["train.seed"],
            weights=self.loss_weights(),
            mask_spec=self.mask_spec(),
            early_stop_patience=self.values["train.early_stop_patience"],
            split=(split[0], split[1], split[2]),
            train_stride=self.values["window.train_stride"],
            val_stride=self.values["window.val_stride"],
            clip_norm=self.values["train.clip_norm"],
            loc_target=self.values["train.loc_target"],
        )
