"""The gesture denoiser: predicts the noise in a corrupted motion clip.

The network decomposes the input along two axes.  A joint branch collapses
time with a learned weighting, embeds each joint, prepends a learnable
correlation token, and runs self-attention across joints — the token's output
summarizes inter-joint structure for the whole clip.  A temporal branch
embeds whole frames, adds a learnable positional encoding, and runs
self-attention across time.  The correlation token is then broadcast onto
every frame, a fusion stack mixes the result, audio enters through
cross-attention (queries from gesture features, keys/values from audio), and
an emotion embedding conditions the result through one of four mechanisms.
A final per-frame affine head maps back to joint rotations.

The diffusion timestep and speaker id are injected everywhere through the
conditional norms of the transformer blocks; at initialization those heads
are zero, so the conditioning starts out exactly neutral.

Emotion is inferred from the audio itself: mean-pooled audio features pass
through a linear classifier, and the winning label indexes a learned
embedding table.  During training the ground-truth label indexes the table
while the classifier learns from cross-entropy; at inference the predicted
label is used unless the caller overrides it (which is how emotion transfer
works).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, gelu, no_grad, take_rows
from .errors import ConfigError, ContractError, DimensionError
from .layers import (
    CrossAttention,
    Linear,
    Module,
    ScaleShift,
    TransformerBlock,
    TransformerStack,
    sinusoidal_table,
    timestep_features,
)
from .motion import DatasetStats, JsonConfig, _HeaderReader, _json_object, _write_container

EMOTION_MODES = ("adaln", "in_context_token", "in_context_content", "cross_attention")


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    n_joints: int = 47
    n_max: int = 150
    d_audio: int = 128
    d_audio_raw: int = 128
    d_joint: int = 64
    d_temporal: int = 512
    d_fusion: int = 512
    d_cond: int = 256
    depth_joint: int = 4
    depth_temporal: int = 8
    depth_fusion: int = 2
    heads_joint: int = 4
    heads_temporal: int = 8
    heads_fusion: int = 8
    ffn_mult: int = 4
    n_emotions: int = 8
    n_speakers: int = 4
    emotion_mode: str = "adaln"
    use_spatial_branch: bool = True

    def __post_init__(self):
        if self.emotion_mode not in EMOTION_MODES:
            raise ConfigError(
                f"emotion_mode {self.emotion_mode!r} not in {EMOTION_MODES}"
            )
        for name in ("depth_joint", "depth_temporal", "depth_fusion",
                     "heads_joint", "heads_temporal", "heads_fusion"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for dim, heads in (
            ("d_joint", "heads_joint"),
            ("d_temporal", "heads_temporal"),
            ("d_fusion", "heads_fusion"),
        ):
            if getattr(self, dim) % getattr(self, heads) != 0:
                raise ConfigError(
                    f"{dim}={getattr(self, dim)} not divisible by "
                    f"{heads}={getattr(self, heads)}"
                )
        if self.d_fusion != self.d_temporal:
            # the correlation token is added onto temporal features and flows
            # straight into the fusion stack, so the dims must agree
            raise ConfigError("d_fusion must equal d_temporal")
        if self.d_cond % 2 != 0 or self.d_joint % 2 != 0:
            raise ConfigError("d_cond and d_joint must be even (sinusoidal features)")
        if self.n_emotions < 2:
            raise ConfigError("need at least 2 emotion classes")
        if min(self.n_joints, self.n_max, self.n_speakers) < 1:
            raise ConfigError("n_joints, n_max and n_speakers must be positive")


def toy_config(**overrides) -> ModelConfig:
    """Small configuration for fast experiments and tests."""
    base = dict(
        n_joints=6,
        n_max=36,
        d_audio=20,
        d_audio_raw=20,
        d_joint=16,
        d_temporal=32,
        d_fusion=32,
        d_cond=16,
        depth_joint=1,
        depth_temporal=2,
        depth_fusion=1,
        heads_joint=2,
        heads_temporal=4,
        heads_fusion=4,
        ffn_mult=2,
        n_emotions=4,
        n_speakers=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


@dataclass
class Condition:
    """Conditioning inputs for one clip or a batch of clips.

    `audio` is (M, D_raw) or (B, M, D_raw) raw features at the source rate.
    `emotion_label` None means "use the classifier's argmax"; an explicit
    label (or per-clip array) overrides it.
    """

    audio: np.ndarray
    emotion_label: object = None
    speaker: object = 0


class GestureDenoiser(Module):
    def __init__(self, config: ModelConfig, rng):
        c = self.config = config
        self.audio_align = Linear(c.d_audio_raw, c.d_audio, rng)
        self.emotion_phi = Linear(c.d_audio, c.n_emotions, rng)
        self.emotion_table = Tensor(
            rng.normal(0.0, 0.02, size=(c.n_emotions, c.d_fusion)), requires_grad=True
        )
        self.time_mlp_in = Linear(c.d_cond, c.d_cond, rng)
        self.time_mlp_out = Linear(c.d_cond, c.d_cond, rng)
        self.speaker_table = Tensor(
            rng.normal(0.0, 0.02, size=(c.n_speakers, c.d_cond)), requires_grad=True
        )
        # joint branch: learned time collapse starts as the plain mean
        self.time_collapse = Tensor(np.zeros(c.n_max), requires_grad=True)
        self.joint_embed = Linear(3, c.d_joint, rng)
        self.correlation_token = Tensor(
            rng.normal(0.0, 0.02, size=(1, 1, c.d_joint)), requires_grad=True
        )
        self._joint_pe = sinusoidal_table(c.n_joints + 1, c.d_joint)
        self.joint_stack = TransformerStack(
            c.depth_joint, c.d_joint, c.heads_joint, c.d_cond, rng, ffn_mult=c.ffn_mult
        )
        # temporal branch
        self.frame_embed = Linear(c.n_joints * 3, c.d_temporal, rng)
        self.temporal_pe = Tensor(
            rng.normal(0.0, 0.02, size=(c.n_max, c.d_temporal)), requires_grad=True
        )
        self.temporal_stack = TransformerStack(
            c.depth_temporal, c.d_temporal, c.heads_temporal, c.d_cond, rng,
            ffn_mult=c.ffn_mult,
        )
        # fusion and audio entry
        self.token_proj = Linear(c.d_joint, c.d_temporal, rng)
        self.fusion_stack = TransformerStack(
            c.depth_fusion, c.d_fusion, c.heads_fusion, c.d_cond, rng,
            ffn_mult=c.ffn_mult,
        )
        self.audio_attn = CrossAttention(c.d_fusion, c.d_audio, c.heads_fusion, rng)
        # emotion conditioning (mode fixed by config); built before the output
        # head, which fixes the init draws, but assigned after it, which keeps
        # the parameter order that Adam and gradient checks walk
        if c.emotion_mode == "adaln":
            emotion = "emotion_mod", ScaleShift(c.d_fusion, c.d_fusion, rng)
        elif c.emotion_mode == "in_context_token":
            emotion = "emotion_block", TransformerBlock(
                c.d_fusion, c.heads_fusion, c.d_cond, rng, ffn_mult=c.ffn_mult
            )
        elif c.emotion_mode == "in_context_content":
            emotion = "emotion_proj", Linear(c.d_fusion, c.d_fusion, rng)
        else:  # cross_attention
            emotion = "emotion_attn", CrossAttention(
                c.d_fusion, c.d_fusion, c.heads_fusion, rng
            )
        self.out_head = Linear(c.d_fusion, c.n_joints * 3, rng)
        setattr(self, *emotion)

    # ------------------------------------------------------------------
    # audio pathway
    # ------------------------------------------------------------------

    @staticmethod
    def _interp_time(raw: np.ndarray, n_frames: int) -> np.ndarray:
        """Linear interpolation from M source positions to n_frames targets."""
        m = raw.shape[-2]
        if m == n_frames:
            return raw
        pos = np.linspace(0.0, m - 1.0, n_frames)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, m - 1)
        frac = (pos - lo)[:, None]
        return raw[..., lo, :] * (1.0 - frac) + raw[..., hi, :] * frac

    def _align_tensor(self, raw: np.ndarray, n_frames: int) -> Tensor:
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape[-1] != self.config.d_audio_raw:
            raise ContractError(
                f"audio features have {raw.shape[-1]} channels, model expects "
                f"{self.config.d_audio_raw}"
            )
        m = raw.shape[-2]
        if m < 2 and (m, n_frames) != (1, 1):  # only a lone frame aligns to itself
            raise ConfigError(f"resampling audio needs at least 2 source frames, got {m}")
        return self.audio_align(Tensor(self._interp_time(raw, n_frames)))

    def classify_audio(self, raw: np.ndarray, n_frames: int):
        """Raw (B, M, D_raw) audio aligned to n_frames, and its mean frame's (B, E) logits."""
        aligned = self._align_tensor(raw, n_frames)
        logits = self.emotion_phi(aligned.mean(axis=1, keepdims=True))
        return aligned, logits.reshape(-1, self.config.n_emotions)

    # ------------------------------------------------------------------
    # branches
    # ------------------------------------------------------------------

    def _joint_branch(self, x: Tensor, cond) -> Tensor:
        b, n, j = x.shape[0], x.shape[1], x.shape[2]
        weights = self.time_collapse[:n].reshape(n, 1) + (1.0 / n)
        flat = x.reshape(b, n, j * 3)
        collapsed = flat.transpose(0, 2, 1) @ weights  # (B, J*3, 1)
        joints = collapsed.reshape(b, j, 3)
        emb = self.joint_embed(joints)  # (B, J, d_joint)
        token = self.correlation_token + Tensor(np.zeros((b, 1, 1)))
        seq = concat([token, emb], axis=1) + Tensor(self._joint_pe)
        seq = self.joint_stack(seq, cond)
        return seq[:, :1, :]

    def _temporal_branch(self, flat: Tensor, cond) -> Tensor:
        n = flat.shape[1]
        h = self.frame_embed(flat) + self.temporal_pe[:n]
        return self.temporal_stack(h, cond)

    def _condition_emotion(self, g: Tensor, e: Tensor, cond) -> Tensor:
        """Condition (B, N, d) features on (B, 1, d) emotion embeddings."""
        mode = self.config.emotion_mode
        if mode == "adaln":
            return self.emotion_mod(g, e)
        if mode == "in_context_token":
            n = g.shape[1]
            seq = self.emotion_block(concat([g, e], axis=1), cond)
            return seq[:, :n, :]
        if mode == "in_context_content":
            return g + self.emotion_proj(e)
        return self.emotion_attn(g, e)

    # ------------------------------------------------------------------
    # full forward
    # ------------------------------------------------------------------

    def _batch(self, x_t, condition):
        x = np.asarray(x_t, dtype=np.float64)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[2] != self.config.n_joints or x.shape[3] != 3:
            raise ContractError(
                f"denoiser input must be (B, N, {self.config.n_joints}, 3), got {x.shape}"
            )
        if x.shape[1] > self.config.n_max:
            raise ConfigError(
                f"clip length {x.shape[1]} exceeds the model's n_max={self.config.n_max}"
            )
        b = x.shape[0]
        audio = np.asarray(condition.audio, dtype=np.float64)
        if audio.ndim == 2:
            audio = np.broadcast_to(audio, (b,) + audio.shape)
        if audio.ndim != 3 or audio.shape[0] != b:
            raise ContractError(
                f"condition audio must be (B, M, D) with B={b}, got {audio.shape}"
            )
        labels = condition.emotion_label
        if labels is not None:
            labels = np.broadcast_to(np.asarray(labels, dtype=int), (b,)).copy()
            if np.any((labels < 0) | (labels >= self.config.n_emotions)):
                raise ConfigError(
                    f"emotion labels must lie in [0, {self.config.n_emotions})"
                )
        speakers = np.broadcast_to(np.asarray(condition.speaker, dtype=int), (b,)).copy()
        if np.any((speakers < 0) | (speakers >= self.config.n_speakers)):
            raise ConfigError(f"speaker ids must lie in [0, {self.config.n_speakers})")
        return x, audio, labels, speakers

    def forward(self, x_t, t, condition: Condition):
        """Batched forward pass.

        Returns (eps_hat, emotion_logits, labels_used): the first two are
        graph Tensors, the labels are the concrete indices that selected the
        emotion embedding (ground truth when provided, argmax otherwise).
        """
        x, audio, labels, speakers = self._batch(x_t, condition)
        b, n = x.shape[0], x.shape[1]
        aligned, logits = self.classify_audio(audio, n)
        if labels is None:
            labels = np.argmax(logits.data, axis=1)
        # per-item vectors are (B, 1, d): each item's products are then its own
        e = take_rows(self.emotion_table, labels[:, None])

        t_arr = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=int)), (b,))
        t_feat = Tensor(timestep_features(t_arr, self.config.d_cond)[:, None, :])
        cond = self.time_mlp_out(gelu(self.time_mlp_in(t_feat)))
        cond = cond + take_rows(self.speaker_table, speakers[:, None])

        xt = Tensor(x)
        frames = self._temporal_branch(xt.reshape(b, n, -1), cond)
        if self.config.use_spatial_branch:
            g = frames + self.token_proj(self._joint_branch(xt, cond))
        else:
            g = frames
        g = self.fusion_stack(g, cond)
        g = self.audio_attn(g, aligned)
        g = self._condition_emotion(g, e, cond)
        eps = self.out_head(g).reshape(b, n, self.config.n_joints, 3)
        return eps, logits, labels

    def denoise(self, x_t, t, condition: Condition) -> np.ndarray:
        """Noise prediction as a plain array; accepts (N,J,3) or (B,N,J,3)."""
        with no_grad():
            eps, _, _ = self.forward(x_t, t, condition)
        return eps.data[0] if np.ndim(x_t) == 3 else eps.data


def randomize_parameters(model: GestureDenoiser, rng, scale: float = 0.05) -> None:
    """Fill every parameter (including zero-init heads) with small noise.

    Sensitivity probes need all pathways active, which the neutral
    initialization deliberately is not.
    """
    for _, p in sorted(model.params().items()):
        p.data = rng.normal(0.0, scale, size=p.data.shape)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "GSYNCKPT"


def save_checkpoint(model, path, *, stats=None, meta=None, extra_arrays=None):
    """Write parameters, config, normalization stats and metadata to one file."""
    arrays = {name: p.data for name, p in model.params().items()}
    for name, arr in (extra_arrays or {}).items():
        arrays[f"extra.{name}"] = np.asarray(arr, dtype=np.float64)
    names = sorted(arrays)
    lines = [
        "config " + json.dumps(model.config.to_dict(), sort_keys=True),
        "stats " + ("none" if stats is None else json.dumps(stats.to_dict(), sort_keys=True)),
        "meta " + json.dumps(meta or {}, sort_keys=True),
        f"params {len(names)}",
    ]
    for name in names:
        shape = np.shape(arrays[name])
        dims = " ".join(str(s) for s in shape)
        lines.append(f"param {name} {len(shape)} {dims}".rstrip())
    _write_container(path, _CKPT_MAGIC, lines, *(arrays[name] for name in names))


class _ZeroDraws:
    """Init RNG stand-in for a model whose parameters are all about to be loaded."""

    @staticmethod
    def uniform(low=0.0, high=1.0, size=None):
        return np.zeros(size)

    normal = uniform


@dataclass
class CheckpointBundle:
    model: GestureDenoiser
    stats: object
    meta: dict
    extra_arrays: dict


def load_checkpoint(path, *, expect_config: ModelConfig = None) -> CheckpointBundle:
    """Rebuild a model from a checkpoint; config mismatches are rejected."""
    reader = _HeaderReader(path, _CKPT_MAGIC)
    specs = {"stats": None}
    for key, decode in (("config", ModelConfig.from_dict),
                        ("stats", DatasetStats.from_dict), ("meta", _json_object)):
        body, start = reader.keyed(key)
        if key == "stats" and body == "none":
            continue
        try:
            specs[key] = decode(json.loads(body))
        except (json.JSONDecodeError, RecursionError, ConfigError, DimensionError) as exc:
            reader.fail(f"bad {key} line: {exc}", at=start)
    (n_params,) = reader.expect_fields([("params", int)])
    entries = []
    for _ in range(n_params):
        text, start = reader.line()
        parts = text.split()
        if len(parts) < 3 or parts[0] != "param" or not all(p.isdigit() for p in parts[2:]):
            reader.fail(f"malformed param line {text!r}", at=start)
        name, ndim = parts[1], int(parts[2])
        shape = tuple(int(s) for s in parts[3 : 3 + ndim])
        if len(shape) != ndim:
            reader.fail(f"param {name} declares {ndim} dims, lists {len(shape)}", at=start)
        entries.append((name, shape))
    sizes = [int(np.prod(shape, dtype=np.int64)) for _, shape in entries]
    flat = reader.blob(sum(sizes))

    config, stats, meta = specs["config"], specs["stats"], specs["meta"]
    if expect_config is not None and config != expect_config:
        raise ConfigError(
            "checkpoint model configuration does not match the requested one"
        )

    model = GestureDenoiser(config, _ZeroDraws())
    params = model.params()
    extra = {}
    for (name, shape), part in zip(entries, np.split(flat, np.cumsum(sizes)[:-1])):
        block = part.reshape(shape).copy()
        if name.startswith("extra."):
            extra[name[len("extra.") :]] = block
        elif name in params:
            if params[name].data.shape != shape:
                reader.fail(f"parameter {name} has shape {shape}, model expects "
                            f"{params[name].data.shape}", at=0)
            params[name].data = block
        else:
            reader.fail(f"unknown parameter {name!r}", at=0)
    missing = set(params) - {name for name, _ in entries}
    if missing:
        reader.fail(f"checkpoint is missing parameters: {sorted(missing)[:5]}", at=0)
    return CheckpointBundle(model=model, stats=stats, meta=meta, extra_arrays=extra)
