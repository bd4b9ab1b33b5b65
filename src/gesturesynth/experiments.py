"""Study harnesses: emotion transfer, conditioning-mode comparison, ablations.

These orchestrate train/generate/evaluate cycles at small scale so the
qualitative claims — the label override steers generated style, every
conditioning mode trains, each ablated variant still converges — can be
checked end to end on the synthetic corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, SampleConfig
from .errors import ConfigError, ContractError
from .metrics import train_extractor
from .model import GestureDenoiser
from .motion import frames_of
from .pipeline import evaluate, generate_chains
from .rng import stream
from .training import train


class GestureEmotionClassifier:
    """Nearest-class-mean classifier over simple motion statistics.

    Features are the per-channel time mean and time standard deviation of a
    sequence — enough to separate the synthetic emotions, which differ in
    resting posture and stroke amplitude.  Trained on real samples only, so
    it judges generated motion independently of the generative model.
    """

    def __init__(self):
        self.class_means = None
        self.feat_mean = None
        self.feat_scale = None
        self.labels = None

    @staticmethod
    def features(seq) -> np.ndarray:
        frames = frames_of(seq)
        flat = frames.reshape(frames.shape[0], -1)
        return np.concatenate([flat.mean(axis=0), flat.std(axis=0)])

    def fit(self, sequences, labels):
        if len(sequences) != len(labels) or not sequences:
            raise ContractError("need equally many sequences and labels")
        x = np.stack([self.features(s) for s in sequences])
        y = np.asarray(labels, dtype=int)
        self.feat_mean = x.mean(axis=0)
        self.feat_scale = np.maximum(x.std(axis=0), 1e-6)
        z = (x - self.feat_mean) / self.feat_scale
        self.labels = np.unique(y)
        self.class_means = np.stack([z[y == c].mean(axis=0) for c in self.labels])
        return self

    def predict(self, seq) -> int:
        if self.class_means is None:
            raise ContractError("classifier is not fitted")
        z = (self.features(seq) - self.feat_mean) / self.feat_scale
        dists = np.linalg.norm(self.class_means - z, axis=1)
        return int(self.labels[np.argmin(dists)])

    def accuracy(self, sequences, labels) -> float:
        preds = [self.predict(s) for s in sequences]
        return float(np.mean(np.asarray(preds) == np.asarray(labels)))


@dataclass
class TransferResult:
    accuracy: float
    confusion: np.ndarray  # rows: intended label, cols: predicted
    clips_per_emotion: int

    def summary(self) -> str:
        lines = [f"emotion transfer accuracy: {self.accuracy:.3f}"]
        for intended, row in enumerate(self.confusion):
            lines.append(f"  intended {intended}: predicted counts {row.tolist()}")
        return "\n".join(lines)


def emotion_transfer_eval(
    model: GestureDenoiser,
    classifier: GestureEmotionClassifier,
    audio_features,
    schedule,
    *,
    stats=None,
    sample_cfg=None,
    clips_per_emotion: int = 20,
    master_seed: int = 0,
) -> TransferResult:
    """Generate from one shared audio under every label override and classify.

    The audio is held fixed across emotions, so any systematic style change
    is attributable to the override alone.
    """
    if clips_per_emotion < 1:
        raise ConfigError(f"clips_per_emotion must be >= 1, got {clips_per_emotion}")
    n_emotions = model.config.n_emotions
    chains = [dict(audio_features=audio_features, emotion=e, speaker=0,
                   seed_labels=("transfer", e, k), fps=15.0)
              for e in range(n_emotions) for k in range(clips_per_emotion)]
    generated = generate_chains(model, chains, schedule, stats=stats,
                                sample_cfg=sample_cfg or SampleConfig(),
                                master_seed=master_seed)
    confusion = np.zeros((n_emotions, n_emotions), dtype=int)
    for c, seq in zip(chains, generated):
        confusion[c["emotion"], classifier.predict(seq)] += 1
    accuracy = float(np.trace(confusion)) / confusion.sum()
    return TransferResult(accuracy=accuracy, confusion=confusion,
                          clips_per_emotion=clips_per_emotion)


# ---------------------------------------------------------------------------
# comparative harnesses
# ---------------------------------------------------------------------------


ABLATION_VARIANTS = ("full", "no_rec", "no_spatial", "no_emotion")


def ablate(model_cfg, train_cfg, variant):
    """(model_cfg, train_cfg) with one ablation variant applied.

    ``no_rec`` drops the reconstruction loss, ``no_emotion`` the emotion
    conditioning and its loss, ``no_spatial`` the joint-correlation branch;
    ``full`` changes nothing.
    """
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}")
    if variant == "no_spatial":
        model_cfg = replace(model_cfg, use_spatial_branch=False)
    elif variant != "full":
        flag = "use_rec" if variant == "no_rec" else "use_emotion"
        train_cfg = replace(train_cfg, weights=replace(train_cfg.weights, **{flag: False}))
    return model_cfg, train_cfg


def _study(run_cfg: RunConfig, splits, table, metrics, extractor, eval_samples) -> dict:
    """Train and score one model per ``name -> (tag, model_cfg, train_cfg)`` entry.

    Each model draws its init from the stream keyed by its tag; each row
    holds the report's ``metrics`` and the final training loss.
    """
    if extractor is None:
        extractor = train_extractor(
            [s.motion for s in splits.train], run_cfg.extractor
        )
    schedule = run_cfg.schedule.build()
    out = {}
    for name, (tag, model_cfg, train_cfg) in table.items():
        model = GestureDenoiser(model_cfg, stream(run_cfg.master_seed, "init", tag))
        result = train(model, splits.train, schedule, train_cfg)
        report = evaluate(
            model, extractor, splits.val if eval_samples is None else eval_samples,
            schedule, stats=result.stats, eval_cfg=run_cfg.evaluation,
            sample_cfg=run_cfg.sample, master_seed=run_cfg.master_seed,
        )
        out[name] = {**{k: getattr(report, k) for k in metrics},
                     "final_loss": result.rows[-1]["total"]}
    return out


def compare_conditioning_modes(run_cfg: RunConfig, splits,
                               modes=("adaln", "in_context_token",
                                      "cross_attention"),
                               extractor=None, eval_samples=None) -> dict:
    """Train one model per conditioning mode under identical seeds; score each."""
    table = {mode: (f"mode-{mode}", replace(run_cfg.model, emotion_mode=mode),
                    run_cfg.training) for mode in modes}
    return _study(run_cfg, splits, table, ("fgd", "srgr", "beat_align"),
                  extractor, eval_samples)


def ablation_grid(run_cfg: RunConfig, splits, extractor=None,
                  variants=ABLATION_VARIANTS, eval_samples=None) -> dict:
    """Train the flag combinations and report FGD/SRGR for each."""
    table = {variant: (f"ablate-{variant}",
                       *ablate(run_cfg.model, run_cfg.training, variant))
             for variant in variants}
    return _study(run_cfg, splits, table, ("fgd", "srgr"), extractor, eval_samples)


def format_comparison(table: dict, title: str) -> str:
    lines = [title]
    for name in table:
        cells = ", ".join(f"{k}={v:.4f}" for k, v in table[name].items())
        lines.append(f"  {name}: {cells}")
    return "\n".join(lines) + "\n"
