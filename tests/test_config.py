import pytest

from ibimpute.config import (
    ConfigError,
    RunConfig,
    parse_config_text,
    parse_override,
)


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
        cfg = RunConfig.from_sources("train.epochs = 5\nmodel.attention = true\n")
        assert cfg["train.epochs"] == 5
        assert cfg["model.attention"] is True

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("train.epochs = 0\n", "epochs must be >= 1"),
            ("train.loc_target = hidden\nmask.rate = 0\n", "needs a mask rate > 0"),
            ("train.loc_target = masked\n", "loc_target must be 'observed' or 'hidden'"),
        ],
    )
    def test_train_section_errors_are_config_errors(self, text, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_sources(text)

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

    def test_bad_eval_rate_rejected(self):
        with pytest.raises(ConfigError, match="eval.rates"):
            RunConfig.from_sources("eval.rates = 0.5,1.5\n")

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
            "model.attention = yes\ntrain.split = 0.60,0.20,0.20\n"
        )
        text = cfg.resolved_text()
        assert "model.attention = true" in text
        assert "train.split = 0.6,0.2,0.2" in text
        assert "window.val_stride = none" in text

    def test_byte_stable(self):
        a = RunConfig.from_sources("train.epochs = 3\n").resolved_text()
        b = RunConfig.from_sources(overrides=["train.epochs=3"]).resolved_text()
        assert a == b


class TestDerivedObjects:
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
        cfg = RunConfig.from_sources(f"data.source = {p}\n")
        ds = cfg.load_dataset()
        assert ds.values.shape == (2, 2)
        assert ds.variable_names == ["a", "b"]
