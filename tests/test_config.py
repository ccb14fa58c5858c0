import hashlib

import numpy as np
import pytest

from ibimpute import config
from ibimpute.config import (
    DATASET_CACHE_FILE,
    ConfigError,
    RunConfig,
    parse_config_text,
    parse_override,
)
from ibimpute.data import CsvFormatError, MaskSpec, load_csv
from ibimpute.model import (
    DATASET_CACHE,
    CheckpointError,
    ImputationModel,
    ModelConfig,
    load_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from ibimpute.training import TrainConfig


class TestParseConfigText:
    def test_basic_lines(self):
        raw = parse_config_text("a.b = 1\nc.d=hello\n")
        assert raw == {"a.b": "1", "c.d": "hello"}

    def test_comments_and_blanks(self):
        raw = parse_config_text("# full line\n\na.b = 2  # trailing\n")
        assert raw == {"a.b": "2"}

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a.b = 1\nnot a pair\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match="duplicate key 'a.b'"):
            parse_config_text("a.b = 1\na.b = 2\n")


class TestParseOverride:
    def test_splits_on_first_equals(self):
        assert parse_override("train.split=0.6,0.2,0.2") == ("train.split", "0.6,0.2,0.2")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_override("train.epochs")


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.from_sources()
        assert cfg["data.source"] == "synthetic"
        assert cfg["window.length"] == 96
        assert cfg["model.d_model"] == 256
        assert cfg["train.epochs"] == 30
        assert cfg["train.weights.glo_variant"] == "cosine"
        assert cfg["eval.rates"] == [0.1, 0.3, 0.5, 0.7, 0.9]
        assert cfg["window.train_stride"] is None

    def test_file_values_override_defaults(self):
        cfg = RunConfig.from_sources("train.epochs = 5\neval.normalized = false\n")
        assert cfg["train.epochs"] == 5
        assert cfg["eval.normalized"] is False

    def test_cli_overrides_beat_file(self):
        cfg = RunConfig.from_sources("train.epochs = 5\n", overrides=["train.epochs=9"])
        assert cfg["train.epochs"] == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: train.epoch"):
            RunConfig.from_sources("train.epoch = 5\n")

    def test_malformed_value_names_key(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            RunConfig.from_sources("train.epochs = soon\n")

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigError, match="train.split"):
            RunConfig.from_sources("train.split = 0.5,0.5\n")

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError, match="glo_variant"):
            RunConfig.from_sources("train.weights.glo_variant = off\n")

    def test_variant_none_points_at_the_glo_weight(self):
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_sources("train.weights.glo_variant = none\n")
        assert str(excinfo.value) == (
            "train.weights.glo_variant must be one of ('infonce', 'cosine'), got 'none'; "
            "set train.weights.glo = 0 to turn the global term off"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("train.epochs = 0\n", "epochs must be >= 1"),
        ],
    )
    def test_train_section_errors_are_config_errors(self, text, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_sources(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("train.epochs = 0\n", "train.epochs must be >= 1, got 0"),
            ("train.batch_size = 0\n", "train.batch_size must be >= 1, got 0"),
            ("train.learning_rate = 0\n", "train.learning_rate must be > 0, got 0.0"),
            ("train.adam_beta1 = 1\n", "train.adam_beta1 must be in [0, 1), got 1.0"),
            ("train.adam_beta2 = -0.5\n", "train.adam_beta2 must be in [0, 1), got -0.5"),
            ("train.adam_eps = 0\n", "train.adam_eps must be > 0, got 0.0"),
            ("train.early_stop_patience = -1\n", "train.early_stop_patience must be >= 0"),
            ("train.clip_norm = -1\n", "train.clip_norm must be >= 0"),
            ("window.train_stride = 0\n", "window.train_stride must be >= 1, got 0"),
            ("window.val_stride = 0\n", "window.val_stride must be >= 1, got 0"),
            ("train.weights.reg = -1\n", "loss weight train.weights.reg must be >= 0"),
            ("train.weights.loc = -1\n", "loss weight train.weights.loc must be >= 0"),
            ("train.weights.glo = -1\n", "loss weight train.weights.glo must be >= 0"),
            ("train.weights.glo_variant = off\n",
             "train.weights.glo_variant must be one of ('infonce', 'cosine'), got 'off'; "
             "set train.weights.glo = 0 to turn the global term off"),
            ("train.weights.temperature = 0\n", "train.weights.temperature must be > 0, got 0.0"),
            ("train.weights.loc = 0\ntrain.weights.glo = 0\n",
             "training needs a data-fit term: "
             "loss weight train.weights.loc or train.weights.glo must be positive"),
        ],
    )
    def test_train_section_errors_name_the_key(self, text, message):
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_sources(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("eval.patterns = foo\n", "unknown mask pattern 'foo'"),
            ("eval.patterns = block\nmask.block_len = 97\n", "exceeds window length 96"),
            ("eval.patterns =\n", "eval.patterns needs at least one entry"),
            ("eval.rates =\n", "eval.rates needs at least one entry"),
            ("model.d_model = 0\n", "d_model must be a positive int"),
            ("model.hidden_dim = 0\n", "hidden_dim must be a positive int"),
            ("window.length = 0\n", "window_len must be a positive int"),
            ("train.split = 0.5,0.3,0.3\n", "fractions must sum to 1"),
        ],
    )
    def test_checks_of_built_objects_are_config_errors(self, text, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_sources(text)

    @pytest.mark.parametrize(
        "text, keys, what",
        [
            ("data.synth_steps = 200000\n", "data.synth_vars and data.synth_steps",
             "synthetic series needs 12600000 bytes"),
            ("data.synth_vars = 1000\n", "data.synth_vars and data.synth_steps",
             "synthetic series needs 18000000 bytes"),
            ("window.length = 4096\n", "window.length, model.d_model and model.hidden_dim",
             "float64 parameter buffer needs 19443712 bytes"),
            ("model.d_model = 1024\n", "window.length, model.d_model and model.hidden_dim",
             "float64 parameter buffer needs 15629056 bytes"),
            ("model.hidden_dim = 1024\n", "window.length, model.d_model and model.hidden_dim",
             "float64 parameter buffer needs 16808704 bytes"),
        ],
        ids=["synth_steps", "synth_vars", "window_length", "d_model", "hidden_dim"],
    )
    def test_sizes_beyond_physical_memory_are_refused(self, monkeypatch, text, keys, what):
        monkeypatch.setattr(config, "_physical_memory", lambda: 10 << 20)
        RunConfig.from_sources()  # the defaults fit
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_sources(text)
        want = f"{keys}: the {what}, more than the 10485760 bytes of physical memory"
        assert str(excinfo.value) == want
        # a CSV source's series is sized by the file, not by the synthetic keys
        if keys.startswith("data."):
            RunConfig.from_sources(text + "data.source = series.csv\n")

    def test_bad_eval_rate_rejected(self):
        with pytest.raises(ConfigError, match="eval.rates"):
            RunConfig.from_sources("eval.rates = 0.5,1.5\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("eval.patterns = point,block,point\n",
             "eval.patterns repeats an entry: point,block,point"),
            ("eval.rates = 0.5,0.50\n", "eval.rates repeats an entry: 0.5,0.5"),
        ],
    )
    def test_repeated_eval_entries_are_refused(self, text, message):
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_sources(text)
        assert str(excinfo.value) == message

    def test_training_block_mask_must_fit_the_window(self):
        RunConfig.from_sources("mask.pattern = point\nmask.block_len = 200\n")
        with pytest.raises(ConfigError) as excinfo:
            RunConfig.from_sources("mask.pattern = block\nmask.block_len = 200\n")
        assert str(excinfo.value) == "block_len 200 exceeds window length 96"

    @pytest.mark.parametrize("split", ["0.6,0.4,0.0", "-0.2,0.6,0.6"])
    def test_every_split_fraction_must_be_positive(self, split):
        with pytest.raises(ConfigError, match=r"empty split: every fraction must be > 0"):
            RunConfig.from_sources(f"train.split = {split}\n")

    def test_optional_stride_parses_none_and_int(self):
        cfg = RunConfig.from_sources("window.train_stride = none\n")
        assert cfg["window.train_stride"] is None
        cfg = RunConfig.from_sources("window.train_stride = 12\n")
        assert cfg["window.train_stride"] == 12


class TestResolvedText:
    def test_sorted_and_round_trips(self):
        cfg = RunConfig.from_sources("train.epochs = 3\n")
        text = cfg.resolved_text()
        keys = [ln.split(" = ")[0] for ln in text.splitlines()]
        assert keys == sorted(keys)
        again = RunConfig.from_sources(text)
        assert again.values == cfg.values

    def test_canonical_formatting(self):
        cfg = RunConfig.from_sources(
            "eval.normalized = no\ntrain.split = 0.60,0.20,0.20\n"
        )
        text = cfg.resolved_text()
        assert "eval.normalized = false" in text
        assert "train.split = 0.6,0.2,0.2" in text
        assert "window.val_stride = none" in text

    def test_byte_stable(self):
        a = RunConfig.from_sources("train.epochs = 3\n").resolved_text()
        b = RunConfig.from_sources(overrides=["train.epochs=3"]).resolved_text()
        assert a == b


class TestDerivedObjects:
    def test_defaults_are_the_dataclass_defaults(self):
        cfg = RunConfig.from_sources()
        assert cfg.model_config(n_vars=3) == ModelConfig(window_len=96, n_vars=3)
        assert cfg.mask_spec(seed=4) == MaskSpec(seed=4)
        assert cfg.train_config() == TrainConfig()

    def test_model_config(self):
        cfg = RunConfig.from_sources("model.d_model = 8\nwindow.length = 24\n")
        mc = cfg.model_config(n_vars=3)
        assert (mc.window_len, mc.n_vars, mc.d_model) == (24, 3, 8)

    def test_mask_spec_seed_passthrough(self):
        cfg = RunConfig.from_sources("mask.pattern = block\nmask.rate = 0.3\n")
        spec = cfg.mask_spec(seed=77)
        assert (spec.pattern, spec.rate, spec.seed) == ("block", 0.3, 77)

    def test_train_config_carries_weights(self):
        cfg = RunConfig.from_sources("train.weights.glo = 0.25\ntrain.epochs = 2\n")
        tc = cfg.train_config()
        assert tc.epochs == 2
        assert tc.weights.glo == 0.25
        tc.validate()

    def test_synthetic_dataset_loading(self):
        cfg = RunConfig.from_sources(
            "data.synth_vars = 2\ndata.synth_steps = 50\ndata.synth_seed = 4\n"
        )
        ds = cfg.load_dataset()
        assert ds.values.shape == (50, 2)

    def test_csv_dataset_loading(self, tmp_path):
        p = tmp_path / "input.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        cfg = RunConfig.from_sources(f"data.source = {p}\noutput_dir = {tmp_path / 'run'}\n")
        ds = cfg.load_dataset()
        assert ds.values.shape == (2, 2)
        assert ds.variable_names == ["a", "b"]

    def test_contrast_batch_counts_latent_rows(self):
        # InfoNCE contrasts latent rows, one per (window, variable): a
        # one-window batch has negatives once there are two variables
        text = "train.batch_size = 1\ntrain.weights.glo_variant = infonce\n"
        two = RunConfig.from_sources(text + "data.synth_vars = 2\ndata.synth_steps = 50\n")
        assert two.load_dataset().n_vars == 2
        one = RunConfig.from_sources(text + "data.synth_vars = 1\ndata.synth_steps = 50\n")
        with pytest.raises(ConfigError) as excinfo:
            one.load_dataset()
        assert str(excinfo.value) == (
            "train.batch_size must be >= 2 when the contrast term is active on one variable"
        )


# cells that parse to -0.0, a subnormal, a huge value, gaps, padded names and
# a quoted comma
CACHE_CSV = b''' a ,b,"c,d"\r\n-0.0,4.9e-324,\r\n,-0,1.7976931348623157e308\r\n3.25,,-1e-300\r\n'''


def _cached_run(tmp_path, csv_bytes=CACHE_CSV):
    """A run config on a CSV source, the CSV's path and the cache's path."""
    src = tmp_path / "input.csv"
    src.write_bytes(csv_bytes)
    cfg = RunConfig.from_sources(f"data.source = {src}\noutput_dir = {tmp_path / 'run'}\n")
    return cfg, src, tmp_path / "run" / DATASET_CACHE_FILE


def _same_parse(ds, path) -> bool:
    ref = load_csv(str(path))
    return (
        ds.values.tobytes() == ref.values.tobytes()
        and ds.native_mask.tobytes() == ref.native_mask.tobytes()
        and ds.values.shape == ref.values.shape
        and ds.variable_names == ref.variable_names
    )


def _no_parse(path, raw=None):
    raise AssertionError("parsed the CSV on a cache hit")


class TestDatasetCache:
    """``RunConfig.load_dataset`` keeps a CSV's parse in the run directory."""

    def test_hit_returns_the_parse_bit_for_bit(self, tmp_path, monkeypatch):
        cfg, src, cache = _cached_run(tmp_path)
        assert not cache.exists()
        first = cfg.load_dataset()
        assert cache.is_file()
        monkeypatch.setattr(config, "load_csv", _no_parse)
        hit = cfg.load_dataset()
        assert _same_parse(first, src) and _same_parse(hit, src)
        assert np.signbit(hit.values[0, 0]) and hit.values[0, 1] == 5e-324
        assert hit.variable_names == ["a", "b", "c,d"]

    def test_cache_keeps_the_float64_mask_bytes(self, tmp_path, monkeypatch):
        # the mask is bool in memory but kept, and hashed, as float64 0s and
        # 1s: these are the bytes a cache had while masks were float64 in
        # memory, so such a cache is still a hit
        cfg, _, cache = _cached_run(tmp_path)
        assert cfg.load_dataset().native_mask.dtype == bool
        digest = hashlib.sha256(cache.read_bytes()).hexdigest()
        assert digest == "c6f0f58621df28247afcc1be0402bf3549f3c8e09d94adaf2c426326364d7727"
        assert read_container(str(cache), DATASET_CACHE)[2]["native_mask"].dtype == np.float64
        monkeypatch.setattr(config, "load_csv", _no_parse)
        assert cfg.load_dataset().native_mask.dtype == bool

    def test_one_byte_edit_invalidates(self, tmp_path, monkeypatch):
        cfg, src, cache = _cached_run(tmp_path)
        cfg.load_dataset()
        before = cache.read_bytes()
        src.write_bytes(CACHE_CSV.replace(b"3.25", b"3.26"))
        ds = cfg.load_dataset()
        assert ds.values[2, 0] == 3.26 and _same_parse(ds, src)
        assert cache.read_bytes() != before
        monkeypatch.setattr(config, "load_csv", _no_parse)
        assert _same_parse(cfg.load_dataset(), src)

    def test_new_loader_format_invalidates(self, tmp_path, monkeypatch):
        cfg, src, cache = _cached_run(tmp_path)
        cfg.load_dataset()
        before = cache.read_bytes()
        monkeypatch.setattr(config, "LOADER_FORMAT", config.LOADER_FORMAT + 1)
        assert _same_parse(cfg.load_dataset(), src)
        assert cache.read_bytes() != before

    def _damage_is_a_miss(self, cfg, src, cache, good: bytes, damaged: bytes):
        cache.write_bytes(damaged)
        assert _same_parse(cfg.load_dataset(), src)
        assert cache.read_bytes() == good  # re-parsed and rewritten

    def test_truncated_cache_is_reparsed_and_rewritten(self, tmp_path):
        cfg, src, cache = _cached_run(tmp_path)
        cfg.load_dataset()
        good = cache.read_bytes()
        for n in range(len(good)):
            self._damage_is_a_miss(cfg, src, cache, good, good[:n])

    def test_bit_flipped_cache_is_reparsed_and_rewritten(self, tmp_path):
        cfg, src, cache = _cached_run(tmp_path)
        cfg.load_dataset()
        good = cache.read_bytes()
        for at in range(len(good)):
            damaged = bytearray(good)
            damaged[at] ^= 1 << (at % 8)
            self._damage_is_a_miss(cfg, src, cache, good, bytes(damaged))

    def test_other_kinds_are_misses_and_refuse_a_cache(self, tmp_path):
        cfg, src, cache = _cached_run(tmp_path)
        cfg.load_dataset()
        good = cache.read_bytes()
        model_cfg = ModelConfig(window_len=3, n_vars=3, d_model=2, hidden_dim=2)
        other = tmp_path / "other.bin"
        save_checkpoint(str(other), ImputationModel(model_cfg, seed=1))
        self._damage_is_a_miss(cfg, src, cache, good, other.read_bytes())
        with pytest.raises(CheckpointError, match="a dataset cache, not a model checkpoint"):
            load_checkpoint(str(cache))

    def test_reshaped_payload_is_a_miss(self, tmp_path):
        # the same bytes and header, read back as a 3 x 4 parse of a 4 x 3 file
        cfg, src, cache = _cached_run(tmp_path, b"a,b,c\n1,2,3\n4,5,6\n7,8,9\n0,1,2\n")
        cfg.load_dataset()
        good = cache.read_bytes()
        _, header, arrays = read_container(str(cache), DATASET_CACHE)
        reshaped = {name: arr.reshape(3, 4) for name, arr in arrays.items()}
        write_container(str(cache), None, header, reshaped)
        self._damage_is_a_miss(cfg, src, cache, good, cache.read_bytes())

    def test_malformed_csv_leaves_no_cache(self, tmp_path):
        cfg, src, cache = _cached_run(tmp_path, b"a,b\n1,2\n3,x\n")
        with pytest.raises(CsvFormatError) as excinfo:
            cfg.load_dataset()
        assert str(excinfo.value) == f"{src}: line 3: non-numeric cell 'x' in column 'b'"
        assert not cache.parent.exists()

    def test_unwritable_run_directory_still_loads(self, tmp_path):
        cfg, src, cache = _cached_run(tmp_path)
        cache.parent.write_text("a file where the run directory should be")
        assert _same_parse(cfg.load_dataset(), src)
