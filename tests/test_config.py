"""Run-configuration round-trips, validation, and file IO."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturesynth.config import (
    EvalConfig,
    RunConfig,
    SampleConfig,
    ScheduleConfig,
    load_run_config,
    save_run_config,
    toy_run_config,
)
from gesturesynth.errors import ConfigError, ParseError


def key_paths(d, prefix=()):
    """Every key path of a nested dict: the sections and all their leaves."""
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)


class TestSectionValidation:
    def test_schedule_build(self):
        sched = ScheduleConfig(n_steps=20, beta_end=0.05).build()
        assert sched.n_steps == 20
        assert sched.beta[-1] == pytest.approx(0.05)

    def test_sample_window_too_small(self):
        with pytest.raises(ConfigError):
            SampleConfig(window=1)

    def test_sample_overlap_must_fit_window(self):
        with pytest.raises(ConfigError):
            SampleConfig(window=10, overlap=10)
        with pytest.raises(ConfigError):
            SampleConfig(window=10, overlap=-1)

    def test_sample_variance_mode_checked(self):
        with pytest.raises(ConfigError):
            SampleConfig(variance="exact")
        SampleConfig(variance="posterior")  # accepted

    def test_eval_repeats_positive(self):
        with pytest.raises(ConfigError):
            EvalConfig(repeats=0)

    def test_eval_delta_positive(self):
        with pytest.raises(ConfigError):
            EvalConfig(srgr_delta=0.0)

    def test_eval_latent_stride_not_negative(self):
        with pytest.raises(ConfigError, match="latent_stride"):
            EvalConfig(latent_stride=-1)
        EvalConfig(latent_stride=0)  # 0 means disjoint windows


class TestRunConfig:
    def test_toy_config_is_consistent(self):
        cfg = toy_run_config()
        assert cfg.corpus.n_joints == cfg.model.n_joints
        assert cfg.corpus.d_audio == cfg.model.d_audio_raw

    def test_dict_round_trip(self):
        cfg = toy_run_config()
        rebuilt = RunConfig.from_dict(cfg.to_dict())
        assert rebuilt.to_dict() == cfg.to_dict()

    def test_file_round_trip(self, tmp_path):
        cfg = toy_run_config(master_seed=42)
        path = tmp_path / "run.json"
        save_run_config(cfg, path)
        loaded = load_run_config(path)
        assert loaded.to_dict() == cfg.to_dict()
        assert loaded.master_seed == 42

    def test_saved_file_is_plain_json(self, tmp_path):
        path = tmp_path / "run.json"
        save_run_config(toy_run_config(), path)
        data = json.loads(path.read_text())
        assert set(data) == {
            "model", "schedule", "corpus", "training", "extractor",
            "evaluation", "sample", "master_seed",
        }

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="sections"):
            RunConfig.from_dict({"optimizer": {}})

    def test_unknown_nested_key_rejected(self):
        d = toy_run_config().to_dict()
        d["schedule"]["warmup"] = 10
        with pytest.raises(ConfigError, match="warmup"):
            RunConfig.from_dict(d)

    def test_unknown_model_key_rejected(self):
        d = toy_run_config().to_dict()
        d["model"]["n_layers"] = 3
        with pytest.raises(ConfigError):
            RunConfig.from_dict(d)

    def test_partial_dict_uses_defaults(self):
        cfg = RunConfig.from_dict({"master_seed": 9})
        assert cfg.master_seed == 9
        assert cfg.schedule == ScheduleConfig()

    def test_cross_link_joint_mismatch(self):
        cfg = toy_run_config()
        cfg.model = dataclasses.replace(cfg.model, n_joints=9)
        with pytest.raises(ConfigError, match="n_joints"):
            cfg.validate_cross_links()

    def test_cross_link_audio_mismatch(self):
        cfg = toy_run_config()
        cfg.model = dataclasses.replace(
            cfg.model, d_audio=24, d_audio_raw=24
        )
        with pytest.raises(ConfigError, match="d_audio"):
            cfg.validate_cross_links()

    def test_cross_link_window_exceeds_model(self):
        cfg = toy_run_config()
        cfg.training = dataclasses.replace(cfg.training, n_clip=99)
        with pytest.raises(ConfigError, match="n_max"):
            cfg.validate_cross_links()

    @given(path=st.sampled_from(sorted(key_paths(toy_run_config().to_dict()))),
           value=JSON_VALUES)
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_any_json_value_loads_or_is_config_error(self, path, value):
        d = json.loads(json.dumps(toy_run_config().to_dict()))
        *sections, key = path
        node = d
        for name in sections:
            node = node[name]
        node[key] = value
        try:
            RunConfig.from_dict(d).validate_cross_links()
        except ConfigError:
            pass

    def test_saved_file_keeps_given_numbers(self, tmp_path):
        d = toy_run_config().to_dict()
        d["corpus"]["fps"] = 15
        d["training"]["lr"] = 1
        given_path, saved = tmp_path / "run.json", tmp_path / "saved.json"
        given_path.write_text(json.dumps(d, sort_keys=True, indent=1) + "\n")
        save_run_config(load_run_config(given_path), saved)
        assert saved.read_bytes() == given_path.read_bytes()
        assert b'"fps": 15,' in saved.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_run_config(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"master_seed": }')
        with pytest.raises(ParseError):
            load_run_config(path)

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="nested"):
            load_run_config(path)

    def test_loaded_file_is_cross_checked(self, tmp_path):
        cfg = toy_run_config()
        d = cfg.to_dict()
        d["model"]["n_joints"] = 12
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError):
            load_run_config(path)
