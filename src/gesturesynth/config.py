"""Unified run configuration: one JSON file drives every command.

Each section is its own dataclass; unknown keys are rejected at every
level so a typo in a config file fails loudly instead of silently using a
default.  The file round-trips losslessly through save/load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import CorpusConfig, toy_corpus_config
from .diffusion import NoiseSchedule, make_schedule
from .errors import ConfigError
from .metrics import ExtractorConfig
from .model import ModelConfig, toy_config
from .motion import JsonConfig, _read_json, _write_json
from .training import TrainConfig


@dataclass(frozen=True)
class ScheduleConfig(JsonConfig):
    n_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    kind: str = "linear"

    def build(self) -> NoiseSchedule:
        return make_schedule(n_steps=self.n_steps, beta_start=self.beta_start,
                             beta_end=self.beta_end, kind=self.kind)


@dataclass(frozen=True)
class SampleConfig(JsonConfig):
    window: int = 34       # frames generated per clip
    overlap: int = 4       # frames each window takes, pinned, from the previous window's tail
    variance: str = "beta"

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError("sample window must be >= 2 frames")
        if not 0 <= self.overlap < self.window:
            raise ConfigError(
                f"overlap {self.overlap} must lie in [0, window {self.window})"
            )
        if self.variance not in ("beta", "posterior"):
            raise ConfigError(f"unknown variance mode {self.variance!r}")


@dataclass(frozen=True)
class EvalConfig(JsonConfig):
    repeats: int = 10
    srgr_delta: float = 0.2
    latent_stride: int = 0  # 0 -> disjoint windows (stride = clip length)

    def __post_init__(self):
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.srgr_delta <= 0:
            raise ConfigError("srgr_delta must be positive")
        if self.latent_stride < 0:
            raise ConfigError("latent_stride must be >= 0")


@dataclass
class RunConfig(JsonConfig):
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    sample: SampleConfig = field(default_factory=SampleConfig)
    master_seed: int = 0

    def validate_cross_links(self):
        """Checks spanning sections: the corpus must feed the model."""
        for corpus_key, model_key in (("d_audio", "d_audio_raw"), ("n_joints", "n_joints"),
                                      ("n_emotions", "n_emotions"), ("n_speakers", "n_speakers")):
            ours, theirs = getattr(self.corpus, corpus_key), getattr(self.model, model_key)
            if ours != theirs:
                raise ConfigError(f"corpus {corpus_key} {ours} != model {model_key} {theirs}")
        if self.training.window > self.model.n_max:
            raise ConfigError(
                f"training window {self.training.window} exceeds model n_max "
                f"{self.model.n_max}"
            )
        return self


def save_run_config(config: RunConfig, path) -> None:
    _write_json(path, config.to_dict())


def load_run_config(path) -> RunConfig:
    return RunConfig.from_dict(_read_json(path)).validate_cross_links()


def toy_run_config(**overrides) -> RunConfig:
    """Desk-scale defaults: small dims, short schedule, fast smoke settings."""
    base = dict(
        model=toy_config(),
        schedule=ScheduleConfig(n_steps=50, beta_end=0.05),
        corpus=toy_corpus_config(),
        training=TrainConfig(batch_size=4, n_steps=50, lr=1e-3, seed=0),
        extractor=ExtractorConfig(clip_length=34, n_steps=300),
        evaluation=EvalConfig(repeats=2),
        sample=SampleConfig(window=34, overlap=4),
        master_seed=0,
    )
    base.update(overrides)
    return RunConfig(**base).validate_cross_links()
