import contextlib
import dataclasses
from pathlib import Path

import pytest
import yaml

from soundscene import config as config_mod
from soundscene.config import (
    ConfigError,
    PipelineConfig,
    PlannerEndpoint,
    SamplerConfig,
    config_from_dict,
    load_config,
)


def write_yaml(tmp_path, text):
    p = tmp_path / "run.yaml"
    p.write_text(text, encoding="utf-8")
    return p


FULL_CONFIG = """
dataset_seed: 42
output_dir: data/run1
speech_manifest: pools/speech.jsonl
background_manifest: pools/bg.jsonl
priors:
  p_single_speaker: 0.5
  utterance_count_pmf: {1: 0.25, 2: 0.75}
  snr_range_db: [0.0, 6.0]
sampler:
  T: 50
  t1: 10
  w_low: 1.0
  w_high: 4.0
  mode: deterministic
  seed: 9
planner:
  url: https://planner.example/v1/chat/completions
  model: plan-large
  timeout: 5.0
"""

MALFORMED_VALUES = [
    ("sampler: {T: '100'}", "sampler.T"),
    ("sampler: {w_low: '3'}", "sampler.w_low"),
    ("sampler: {seed: true}", "sampler.seed"),
    ("sampler: {seed: -1}", "sampler.seed"),
    ("sampler: {w_high: -1}", "sampler.w_high"),
    ("sampler: {T: 0}", "sampler.T"),
    ("sampler: {t1: 101}", "sampler.t1"),
    ("sampler: {T: 10, t1: -1}", "sampler.t1"),
    ("sampler: {w_low: .nan}", "sampler.w_low"),
    ("sampler: {w_high: .inf}", "sampler.w_high"),
    ("sampler: {mode: ddim}", "sampler.mode"),
    ("sampler: {schedule: cosine}", "sampler.schedule"),
    ("planner: {url: 'https://x', model: ''}", "planner.model"),
    ("planner: {url: 'https://x', model: m, timeout: 0}", "planner.timeout"),
    ("planner: {url: 'https://x', model: m, timeout: .nan}", "planner.timeout"),
    ("planner: {url: u, model: m, timeout: '30'}", "planner.timeout"),
    ("planner: {model: m}", "planner.url"),
    ("planner: {url: 'file:///etc/passwd', model: m}", "planner.url"),
    ("planner: {url: planner.example/v1/chat, model: m}", "planner.url"),
    ("planner: {url: 'ftp://planner.example/v1', model: m}", "planner.url"),
    ("planner: {url: 'https:///v1/chat', model: m}", "planner.url"),
    ("planner: {url: 'https://x', model: m, api_key_env: ''}", "planner.api_key_env"),
    ("planner: {url: 'https://x', model: m, api_key_env: '  '}", "planner.api_key_env"),
    ("dataset_seed: 42.9", "dataset_seed"),
    ("dataset_seed: '42'", "dataset_seed"),
    ("dataset_seed: -1", "dataset_seed"),
    ("speech_manifest: 5", "speech_manifest"),
    ("output_dir: null", "output_dir"),
    ("priors: {p_single_speaker: .nan}", "priors.p_single_speaker"),
    ("sampler: {w_low: 1" + "0" * 400 + "}", "sampler.w_low"),
    ("priors: {snr_range_db: [0, x]}", r"priors.snr_range_db\[1\]"),
    ("priors: {utterance_count_pmf: {1.5: 1.0}}", "priors.utterance_count_pmf key"),
    ("priors: {p_single_speaker: 2.0}", "priors.p_single_speaker"),
    ("sampler: 5", "sampler"),
]

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example.yaml"


@contextlib.contextmanager
def plain_value_error(match):
    """A settings class built directly raises ValueError itself; only the
    loader turns it into a ConfigError naming ``section.key``."""
    with pytest.raises(ValueError, match=match) as info:
        yield
    assert type(info.value) is ValueError


class TestDefaults:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, ""))
        assert cfg.dataset_seed == 0
        assert cfg.output_dir == "out"
        assert cfg.planner is None

    def test_sampler_defaults(self):
        sc = SamplerConfig()
        assert (sc.T, sc.t1) == (100, 88)
        assert (sc.w_low, sc.w_high) == (3.0, 9.0)
        assert sc.mode == "ancestral"

    def test_priors_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, "dataset_seed: 3"))
        assert cfg.priors.p_single_speaker == 0.791
        assert cfg.priors.snr_range_db == (2.0, 10.0)


class TestFullLoad:
    def test_all_sections(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, FULL_CONFIG))
        assert cfg.dataset_seed == 42
        assert cfg.speech_manifest == "pools/speech.jsonl"
        assert cfg.priors.p_single_speaker == 0.5
        assert cfg.priors.utterance_count_pmf == {1: 0.25, 2: 0.75}
        assert cfg.priors.snr_range_db == (0.0, 6.0)
        assert cfg.sampler == SamplerConfig(
            T=50, t1=10, w_low=1.0, w_high=4.0,
            mode="deterministic", seed=9,
        )
        assert cfg.planner == PlannerEndpoint(
            url="https://planner.example/v1/chat/completions",
            model="plan-large",
            timeout=5.0,
        )
        assert cfg.planner.api_key_env == "PLANNER_API_KEY"

    def test_pmf_keys_may_be_yaml_strings(self):
        cfg = config_from_dict(
            {"priors": {"utterance_count_pmf": {"1": 0.5, "2": 0.5}}}
        )
        assert cfg.priors.utterance_count_pmf == {1: 0.5, 2: 0.5}

    def test_int_accepted_for_float_field(self):
        cfg = config_from_dict({"sampler": {"w_low": 3}, "priors": {"snr_range_db": [0, 6]}})
        assert cfg.sampler.w_low == 3
        assert cfg.priors.snr_range_db == (0, 6)

    def test_example_config_matches_schema(self):
        cfg = load_config(EXAMPLE_CONFIG)
        assert cfg.sampler == SamplerConfig()
        assert cfg.speech_manifest == "demo/speech_manifest.jsonl"

    def test_example_config_names_every_sampler_field(self):
        # a sampler setting added or dropped later cannot go stale in the example
        raw = yaml.safe_load(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        assert sorted(raw["sampler"]) == sorted(f.name for f in dataclasses.fields(SamplerConfig))


class TestValidation:
    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset_sed"):
            load_config(write_yaml(tmp_path, "dataset_sed: 1"))

    def test_unknown_sampler_key(self):
        with pytest.raises(ConfigError, match="sampler.*steps"):
            config_from_dict({"sampler": {"steps": 10}})

    def test_unknown_priors_key(self):
        with pytest.raises(ConfigError, match="priors"):
            config_from_dict({"priors": {"snr": [0, 1]}})

    def test_token_in_planner_section_rejected(self):
        with pytest.raises(ConfigError, match="no token"):
            config_from_dict(
                {"planner": {"url": "https://x", "model": "m", "api_key": "sk-123"}}
            )

    def test_t1_out_of_range(self):
        with plain_value_error("t1"):
            SamplerConfig(T=100, t1=101)
        with plain_value_error("t1"):
            SamplerConfig(T=100, t1=-1)

    def test_t1_boundaries_allowed(self):
        assert SamplerConfig(t1=0).t1 == 0
        assert SamplerConfig(t1=100).t1 == 100

    def test_bad_mode(self):
        with plain_value_error("mode"):
            SamplerConfig(mode="ddim")

    def test_bad_oov_policy(self):
        # tokenize takes its policy and lexicon as flags; the config keys are gone
        for text in ("oov_policy: skip", "lexicon_path: lex.dict"):
            with pytest.raises(ConfigError, match="unknown keys"):
                config_from_dict(yaml.safe_load(text))
        assert "oov_policy" not in {f.name for f in dataclasses.fields(PipelineConfig)}

    @pytest.mark.parametrize("text, key", MALFORMED_VALUES)
    def test_malformed_value_names_key(self, text, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(yaml.safe_load(text))

    def test_planner_needs_url_and_model(self):
        with plain_value_error("url"):
            PlannerEndpoint(url="", model="m")
        with plain_value_error("model"):
            PlannerEndpoint(url="https://x", model="")

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", -1])
    def test_dataset_seed_built_directly_is_an_integer(self, seed):
        # refused at construction, not by SeedSequence at the first scene
        with pytest.raises(ConfigError, match="dataset_seed must be an integer >= 0"):
            PipelineConfig(dataset_seed=seed)

    def test_pmf_key_must_be_ascii_digits(self):
        # U+0661 ARABIC-INDIC DIGIT ONE is a decimal character, but not a count
        with pytest.raises(ConfigError, match="priors.utterance_count_pmf key"):
            config_from_dict({"priors": {"utterance_count_pmf": {"\u0661": 1.0}}})

    def test_pmf_count_given_twice(self):
        with pytest.raises(ConfigError, match="priors.utterance_count_pmf gives a key twice"):
            config_from_dict({"priors": {"utterance_count_pmf": {"1": 1.0, 1: 1.0}}})

    def test_bad_pmf_probability_wrapped(self):
        with pytest.raises(ConfigError, match="priors"):
            config_from_dict({"priors": {"utterance_count_pmf": {1: 0.4}}})

    def test_snr_range_must_be_pair(self):
        with pytest.raises(ConfigError, match="snr_range_db"):
            config_from_dict({"priors": {"snr_range_db": [1.0]}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.yaml")

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_bytes(b"dataset_seed: 1\n# caf\xe9\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert str(err.value) == (f"cannot read config {p}: 'utf-8' codec can't decode byte 0xe9"
                                  " in position 21: invalid continuation byte")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(write_yaml(tmp_path, "a: [unclosed"))

    @pytest.mark.parametrize("text, reason", [
        ("dataset_seed: 2001-13-01", "month must be in 1..12"),
        ("dataset_seed: 2001-02-30", "day is out of range for month"),
        ('dataset_seed: !!int "abc"', "invalid literal for int() with base 10: 'abc'"),
        ('dataset_seed: !!float "abc"', "could not convert string to float: 'abc'"),
    ])
    def test_value_the_yaml_loader_cannot_build_names_the_file(self, tmp_path, text, reason):
        p = write_yaml(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert str(err.value) == f"{p}: invalid YAML: {reason}"

    def test_non_mapping_root(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_config(write_yaml(tmp_path, "- 1\n- 2\n"))

    def test_error_names_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="run.yaml"):
            load_config(write_yaml(tmp_path, "sampler: {mode: ddim}"))


HAS_LIBYAML = hasattr(yaml, "CSafeLoader")

YAML_INPUTS = [
    "",
    "dataset_seed: 3",
    FULL_CONFIG,
    EXAMPLE_CONFIG.read_text(encoding="utf-8"),
    "dataset_sed: 1",
    "oov_policy: skip",
    "lexicon_path: lex.dict",
    "- 1\n- 2\n",
    "sampler: {mode: ddim}",
] + [text for text, _ in MALFORMED_VALUES]


class TestYamlLoader:
    """load_config parses with libyaml's CSafeLoader when PyYAML has it;
    it must read every config exactly as the pure-Python SafeLoader does."""

    def test_prefers_libyaml(self):
        want = yaml.CSafeLoader if HAS_LIBYAML else yaml.SafeLoader
        assert config_mod._yaml_loader() is want

    @pytest.mark.skipif(not HAS_LIBYAML, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("text", YAML_INPUTS, ids=range(len(YAML_INPUTS)))
    def test_loaders_build_equal_objects(self, text):
        py = yaml.load(text, Loader=yaml.SafeLoader)
        c = yaml.load(text, Loader=yaml.CSafeLoader)
        # repr compares types exactly (1 vs 1.0) and treats NaN as equal
        assert repr(c) == repr(py)

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_load_config_same_under_each_loader(self, tmp_path, monkeypatch, loader):
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML built without libyaml")
        monkeypatch.setattr(config_mod, "_yaml_loader", lambda: getattr(yaml, loader))
        assert load_config(EXAMPLE_CONFIG) == config_from_dict(
            yaml.safe_load(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        )
        assert load_config(write_yaml(tmp_path, FULL_CONFIG)) == config_from_dict(
            yaml.safe_load(FULL_CONFIG)
        )
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(write_yaml(tmp_path, "a: [unclosed"))
