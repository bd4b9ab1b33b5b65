"""Gesture data model: skeletons, sequences, windowing, stitching, and file IO.

Motion is stored as per-joint axis-angle rotations, one (x, y, z) triple per
joint per frame, so a sequence is an N x J x 3 float64 array.  Audio features
ride alongside as an N x D array aligned frame-for-frame with the motion.

The on-disk container is deliberately dumb: a magic/version line, a short
ASCII header (shape, fps, joint names, parents), a ``data float64 le <bytes>``
line and ``end_header``, followed by a raw little-endian float64 blob.  Motion,
audio and checkpoint files (``model.save_checkpoint``) share this framing, and
``_HeaderReader`` is its one reader.  Anything can parse it, and round-trips
are lossless at 64-bit precision.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DimensionError, ConfigError, ParseError

_FINGERS = ("thumb", "index", "middle", "ring", "pinky")

JOINT_GROUPS = ("none", "all", "body", "left_hand", "right_hand", "hands")


@dataclass(frozen=True)
class SkeletonSpec:
    """Joint names plus parent indices (-1 marks a root)."""

    joint_names: tuple
    parent_index: tuple

    def __post_init__(self):
        names = tuple(self.joint_names)
        parents = tuple(int(p) for p in self.parent_index)
        object.__setattr__(self, "joint_names", names)
        object.__setattr__(self, "parent_index", parents)
        if len(names) != len(set(names)):
            raise ConfigError("skeleton joint names must be unique")
        if len(parents) != len(names):
            raise ConfigError(
                f"skeleton has {len(names)} names but {len(parents)} parent entries"
            )
        for i, p in enumerate(parents):
            if p != -1 and not (0 <= p < i):
                # parents must precede children, which also rules out cycles
                raise ConfigError(
                    f"joint {i} ({names[i]!r}) has invalid parent index {p}"
                )

    @property
    def joint_count(self):
        return len(self.joint_names)


def _hand_joints(side):
    names, parents = [], []
    for finger in _FINGERS:
        segments = 3 if finger == "thumb" else 4
        for k in range(1, segments + 1):
            names.append(f"{side}_{finger}_{k}")
            parents.append(f"{side}_{finger}_{k - 1}" if k > 1 else f"{side}_forearm")
    return names, parents


def default_skeleton() -> SkeletonSpec:
    """47-joint upper body: 9 body joints plus 19 joints per hand."""
    parent_name = {
        "spine": None,
        "neck": "spine",
        "head": "neck",
        "left_shoulder": "spine",
        "left_upper_arm": "left_shoulder",
        "left_forearm": "left_upper_arm",
        "right_shoulder": "spine",
        "right_upper_arm": "right_shoulder",
        "right_forearm": "right_upper_arm",
    }
    for side in ("left", "right"):
        parent_name.update(zip(*_hand_joints(side)))
    names = list(parent_name)  # joints in insertion order: body, then each hand
    index = {n: i for i, n in enumerate(names)}
    parents = [-1 if parent_name[n] is None else index[parent_name[n]] for n in names]
    return SkeletonSpec(tuple(names), tuple(parents))


def generic_skeleton(joint_count: int) -> SkeletonSpec:
    """Unnamed chain skeleton for reduced-size experiments."""
    if joint_count < 1:
        raise ConfigError(f"skeleton needs at least one joint, got {joint_count}")
    names = tuple(f"joint_{i}" for i in range(joint_count))
    parents = tuple(i - 1 for i in range(joint_count))
    return SkeletonSpec(names, parents)


_DEFAULT_JOINT_COUNT = default_skeleton().joint_count


def skeleton_for(joint_count: int) -> SkeletonSpec:
    """The default skeleton when it has `joint_count` joints, else a generic chain."""
    if joint_count == _DEFAULT_JOINT_COUNT:
        return default_skeleton()
    return generic_skeleton(joint_count)


def joint_group_mask(skeleton: SkeletonSpec, group: str) -> np.ndarray:
    """Boolean mask of length J selecting a named joint group.

    Hands are recognized by name convention (side prefix plus a finger
    segment), so the groups work for any skeleton that follows it.
    """
    def hand(side):
        return np.array([n.startswith(side + "_") and any(f"_{f}_" in n for f in _FINGERS)
                         for n in skeleton.joint_names], dtype=bool)

    left, right = hand("left"), hand("right")
    masks = {"none": np.zeros_like(left), "all": np.ones_like(left), "body": ~(left | right),
             "left_hand": left, "right_hand": right, "hands": left | right}
    if group not in masks:
        raise ConfigError(f"unknown joint group {group!r}; expected one of {JOINT_GROUPS}")
    return masks[group]


def _frame_rate(data, rate, what):
    """The checks both sequence types share; returns `rate` as a float."""
    if data.shape[0] < 1:
        raise DimensionError(f"{what} sequence needs at least one frame")
    if not np.all(np.isfinite(data)):
        raise DimensionError(f"{what} data contain non-finite values")
    rate = float(rate)
    if not (np.isfinite(rate) and rate > 0):
        raise ConfigError(f"{what} frame rate must be finite and > 0, got {rate!r}")
    return rate


@dataclass
class GestureSequence:
    """N x J x 3 axis-angle rotations at a fixed frame rate."""

    frames: np.ndarray
    fps: float = 15.0
    skeleton: SkeletonSpec = field(default_factory=default_skeleton)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3 or self.frames.shape[2] != 3:
            raise DimensionError(
                f"gesture frames must be (N, J, 3), got {self.frames.shape}"
            )
        if self.frames.shape[1] != self.skeleton.joint_count:
            raise DimensionError(
                f"frames have {self.frames.shape[1]} joints but skeleton defines "
                f"{self.skeleton.joint_count}"
            )
        self.fps = _frame_rate(self.frames, self.fps, "gesture")

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def n_joints(self):
        return self.frames.shape[1]

    def channels(self) -> np.ndarray:
        """View the sequence as (N, J*3) flat channels."""
        return self.frames.reshape(self.n_frames, -1)

    def with_frames(self, frames) -> "GestureSequence":
        return GestureSequence(frames, fps=self.fps, skeleton=self.skeleton)


def frames_of(x) -> np.ndarray:
    """The (N, J, 3) frames of a GestureSequence; anything else as an array."""
    return x.frames if isinstance(x, GestureSequence) else np.asarray(x)


@dataclass
class AudioFeatureSequence:
    """N x D audio feature matrix aligned with a gesture sequence."""

    features: np.ndarray
    source_rate_hz: float = 15.0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DimensionError(
                f"audio features must be (N, D), got {self.features.shape}"
            )
        self.source_rate_hz = _frame_rate(self.features, self.source_rate_hz, "audio")

    @property
    def n_frames(self):
        return self.features.shape[0]


# ---------------------------------------------------------------------------
# JSON configs and container IO
# ---------------------------------------------------------------------------

def _is_number(value):
    """A finite JSON number; booleans are not numbers."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


class JsonConfig:
    """Base of every config dataclass: the one codec between it and JSON.

    Every field has a default, and the default fixes what JSON the field
    takes: a nested config takes an object (decoded the same way), a tuple a
    list of numbers (as long as the default, when that is non-empty), a float
    any finite number (an int stays an int, so a file saves back byte for byte), and
    any other field a value of exactly the default's type.  Missing keys keep
    their defaults; unknown keys and wrong types raise ConfigError.
    """

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        _json_object(d, cls.__name__)
        known = {f.name: f for f in fields(cls)}
        unknown = set(d) - set(known)
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} keys {sorted(unknown)}; "
                f"its sections/fields are {sorted(known)}"
            )
        return cls(**{key: _decode_field(cls, known[key], value) for key, value in d.items()})


def _json_object(d, what="value"):
    """d itself when it is a JSON object; otherwise a ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(d).__name__}")
    return d


def _decode_field(owner, f, value):
    default = f.default_factory() if f.default is MISSING else f.default
    if isinstance(default, JsonConfig):
        return type(default).from_dict(value)
    if isinstance(default, tuple):
        ok = (isinstance(value, (list, tuple)) and all(map(_is_number, value))
              and (not default or len(value) == len(default)))
        want = "a list of numbers" + (f" of length {len(default)}" if default else "")
    elif isinstance(default, float):
        ok, want = _is_number(value), "a number"
    else:
        ok, want = type(value) is type(default), f"of type {type(default).__name__}"
    if not ok:
        raise ConfigError(f"{owner.__name__}.{f.name} must be {want}, got {value!r}")
    return tuple(value) if isinstance(default, tuple) else value


def _read_json(path):
    """Parse a JSON file; a missing, non-UTF-8 or malformed file is a ParseError."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    try:
        return json.loads(path.read_bytes())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}", offset=exc.pos) from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


@contextmanager
def _atomic_open(path, mode="w", **kwargs):
    """A temporary file beside `path`: moved onto it once written, removed on error."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path, obj):
    """The one JSON file layout: sorted keys, one-space indent, final newline."""
    with _atomic_open(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


_MOTION_MAGIC = "GSYNMOT"
_AUDIO_MAGIC = "GSYNAUD"
_VERSION = "v1"


class _HeaderReader:
    """Reads and checks the container framing line by line; errors carry byte offsets."""

    def __init__(self, path, magic):
        self.data = Path(path).read_bytes()
        self.path = path
        self.offset = 0
        text, start = self.line()
        parts = text.split()
        if len(parts) != 2 or parts[0] != magic:
            self.fail(f"not a {magic} container (header {text!r})", at=start)
        if parts[1] != _VERSION:
            self.fail(f"unsupported container version {parts[1]!r}", at=start)

    def fail(self, message, at):
        raise ParseError(f"{self.path}: {message}", offset=at)

    @contextmanager
    def as_parse_error(self):
        """A ConfigError or DimensionError raised inside becomes a ParseError at offset 0."""
        try:
            yield
        except (ConfigError, DimensionError) as exc:
            self.fail(str(exc), at=0)

    def line(self):
        start = self.offset
        end = self.data.find(b"\n", start)
        if end < 0:
            self.fail("truncated header (missing newline)", at=start)
        raw = self.data[start:end]
        self.offset = end + 1
        try:
            return raw.decode("ascii"), start
        except UnicodeDecodeError:
            self.fail("header is not ASCII", at=start)

    def keyed(self, key):
        """(rest of the line, its offset) for a line that must begin with '<key> '."""
        text, start = self.line()
        if not text.startswith(key + " "):
            self.fail(f"expected {key} line, found {text!r}", at=start)
        return text[len(key) + 1 :], start

    def expect_fields(self, spec):
        """Parse a line like 'frames 10 joints 47' against [(key, conv), ...]."""
        text, start = self.line()
        parts = text.split()
        if len(parts) != 2 * len(spec):
            self.fail(f"malformed header line {text!r}", at=start)
        out = []
        for i, (key, conv) in enumerate(spec):
            if parts[2 * i] != key:
                self.fail(f"expected field {key!r}, found {parts[2 * i]!r}", at=start)
            try:
                out.append(conv(parts[2 * i + 1]))
            except ValueError:
                self.fail(f"bad value for {key!r}: {parts[2 * i + 1]!r}", at=start)
        return out

    def blob(self, count):
        """The data and end_header lines, then exactly `count` float64 values."""
        text, start = self.line()
        parts = text.split()
        if len(parts) != 4 or parts[:3] != ["data", "float64", "le"]:
            self.fail(f"malformed data line {text!r}", at=start)
        try:
            nbytes = int(parts[3])
        except ValueError:
            self.fail(f"bad byte count {parts[3]!r}", at=start)
        text, start = self.line()
        if text != "end_header":
            self.fail(f"expected end_header, found {text!r}", at=start)
        blob_start = self.offset
        blob = self.data[blob_start:]
        if nbytes != count * 8:
            self.fail(
                f"header declares {nbytes} data bytes but shape needs {count * 8}",
                at=blob_start,
            )
        if len(blob) != nbytes:
            self.fail(
                f"expected {nbytes} data bytes, file holds {len(blob)}", at=blob_start
            )
        return np.frombuffer(blob, dtype="<f8")


def _write_container(path, magic, header_lines, *arrays):
    """Magic, header, data and end_header lines, then the arrays' float64 bytes."""
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    lines = [f"{magic} {_VERSION}", *header_lines,
             f"data float64 le {len(blob)}", "end_header", ""]
    with _atomic_open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("ascii") + blob)


def save_motion(seq: GestureSequence, path) -> None:
    """Write a gesture sequence to the self-describing motion container."""
    header = [
        f"frames {seq.n_frames} joints {seq.n_joints} fps {seq.fps!r}",
        "names " + " ".join(seq.skeleton.joint_names),
        "parents " + " ".join(str(p) for p in seq.skeleton.parent_index),
    ]
    _write_container(path, _MOTION_MAGIC, header, seq.frames)


def load_motion(path) -> GestureSequence:
    """Read a motion container; malformed input raises ParseError with a byte offset."""
    reader = _HeaderReader(path, _MOTION_MAGIC)
    n, j, fps = reader.expect_fields([("frames", int), ("joints", int), ("fps", float)])
    if n < 1:
        reader.fail("frame count must be at least 1", at=0)
    lists = {}
    for key, conv in (("names", str), ("parents", int)):
        body, start = reader.keyed(key)
        try:
            lists[key] = tuple(conv(v) for v in body.split())
        except ValueError:
            reader.fail(f"{key} must be integers", at=start)
        if len(lists[key]) != j:
            reader.fail(f"header declares {j} joints but lists {len(lists[key])} {key}",
                        at=start)
    flat = reader.blob(n * j * 3)
    with reader.as_parse_error():
        return GestureSequence(flat.reshape(n, j, 3).copy(), fps=fps,
                               skeleton=SkeletonSpec(lists["names"], lists["parents"]))


def save_audio(seq: AudioFeatureSequence, path) -> None:
    """Write audio features to the companion container format."""
    n, d = seq.features.shape
    header = [f"frames {n} channels {d} rate {seq.source_rate_hz!r}"]
    _write_container(path, _AUDIO_MAGIC, header, seq.features)


def load_audio(path) -> AudioFeatureSequence:
    reader = _HeaderReader(path, _AUDIO_MAGIC)
    n, d, rate = reader.expect_fields(
        [("frames", int), ("channels", int), ("rate", float)]
    )
    if n < 1:
        reader.fail("frame count must be at least 1", at=0)
    flat = reader.blob(n * d)
    with reader.as_parse_error():
        return AudioFeatureSequence(flat.reshape(n, d).copy(), source_rate_hz=rate)


def export_motion_csv(seq: GestureSequence, path) -> None:
    """One row per frame, columns <joint>_x, <joint>_y, <joint>_z."""
    header = [
        f"{name}_{axis}" for name in seq.skeleton.joint_names for axis in "xyz"
    ]
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame"] + header)
        for i, row in enumerate(seq.channels()):
            writer.writerow([i] + [repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# windowing / stitching
# ---------------------------------------------------------------------------


def window_starts(length: int, n_clip: int, stride: int):
    """Clip start offsets 0, stride, 2*stride, ... with the remainder dropped."""
    if stride < 1 or n_clip < 1:
        raise ConfigError(f"n_clip and stride must be positive, got {n_clip}, {stride}")
    if length < n_clip:
        return []
    return list(range(0, length - n_clip + 1, stride))


def window(seq: GestureSequence, n_clip: int = 34, stride: int = 10):
    """Cut a sequence into fixed-length clips; short input warns and yields []."""
    starts = window_starts(seq.n_frames, n_clip, stride)
    if not starts:
        warnings.warn(
            f"sequence of {seq.n_frames} frames is shorter than the "
            f"{n_clip}-frame clip window; no clips produced",
            stacklevel=2,
        )
        return []
    return [seq.with_frames(seq.frames[s : s + n_clip].copy()) for s in starts]


def stitch(clips, overlap: int) -> GestureSequence:
    """Join clips at their pins: the first whole, each later one from frame `overlap`.

    Each clip's first ``overlap`` frames repeat the previous clip's tail (the
    pin), so they are taken once, from the earlier clip.
    """
    if not clips:
        raise ConfigError("stitch needs at least one clip")
    if overlap < 0:
        raise ConfigError(f"overlap must be non-negative, got {overlap}")
    first = clips[0]
    seams = len(clips) > 1  # a join of one clip is a copy, whatever its length
    for clip in clips:
        if seams and overlap >= clip.n_frames:
            raise ConfigError(
                f"overlap {overlap} must be smaller than every clip "
                f"(found a {clip.n_frames}-frame clip)"
            )
        if clip.n_joints != first.n_joints:
            raise DimensionError(
                f"cannot stitch clips with {first.n_joints} and {clip.n_joints} joints"
            )
    parts = [first.frames] + [clip.frames[overlap:] for clip in clips[1:]]
    return first.with_frames(np.concatenate(parts, axis=0))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass
class DatasetStats:
    """Per-channel mean and standard deviation over a training corpus."""

    mean: np.ndarray
    std: np.ndarray

    STD_FLOOR = 1e-6

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        std = np.asarray(self.std, dtype=np.float64).reshape(-1)
        if std.shape != self.mean.shape:
            raise DimensionError(
                f"stats mean has {self.mean.shape[0]} channels, std {std.shape[0]}"
            )
        self.std = np.maximum(std, self.STD_FLOOR)

    @classmethod
    def compute(cls, arrays) -> "DatasetStats":
        """Fit stats over a list of (N_i, C) arrays stacked along time."""
        stacked = np.concatenate([np.asarray(a, dtype=np.float64) for a in arrays], axis=0)
        return cls(stacked.mean(axis=0), stacked.std(axis=0))

    @property
    def n_channels(self):
        return self.mean.shape[0]

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d):
        if not (isinstance(d, dict) and set(d) == {"mean", "std"} and all(
                isinstance(v, list) and all(map(_is_number, v)) for v in d.values())):
            raise ConfigError("stats must be an object of numeric mean and std lists")
        return cls(np.asarray(d["mean"]), np.asarray(d["std"]))


def _channelwise(seq, stats: DatasetStats, fn):
    """Apply fn to the (frames, channels) view of a sequence or an array."""
    if isinstance(seq, GestureSequence):
        return seq.with_frames(_channelwise(seq.frames, stats, fn))
    arr = np.asarray(seq, dtype=np.float64)
    flat = arr.reshape(arr.shape[0], -1) if arr.ndim != 2 else arr
    if flat.shape[1] != stats.n_channels:
        raise DimensionError(
            f"data has {flat.shape[1]} channels but stats were fit on {stats.n_channels}"
        )
    return fn(flat).reshape(arr.shape)


def normalize(seq, stats: DatasetStats):
    """Map data to zero mean / unit variance per channel under `stats`."""
    return _channelwise(seq, stats, lambda flat: (flat - stats.mean) / stats.std)


def denormalize(seq, stats: DatasetStats):
    """Inverse of :func:`normalize`."""
    return _channelwise(seq, stats, lambda flat: flat * stats.std + stats.mean)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def mask_ratio_bounds(ratio_range):
    """(lo, hi) as floats; a ConfigError unless 0 <= lo <= hi < 1."""
    lo, hi = float(ratio_range[0]), float(ratio_range[1])
    if not (0.0 <= lo <= hi < 1.0):
        raise ConfigError(f"mask ratio range must lie within [0, 1), got ({lo}, {hi})")
    return lo, hi


def random_proportional_mask(n, ratio_range, rng, mode: str = "suffix") -> np.ndarray:
    """Mark round(ratio * n) frames masked, ratio drawn uniformly from ratio_range.

    `suffix` masks a contiguous tail (emulating shorter sequences); `scatter`
    masks a uniform random subset.  True means masked.
    """
    lo, hi = mask_ratio_bounds(ratio_range)
    if mode not in ("suffix", "scatter"):
        raise ConfigError(f"unknown mask mode {mode!r}")
    ratio = lo if lo == hi else float(rng.uniform(lo, hi))
    count = int(round(ratio * n))
    mask = np.zeros(n, dtype=bool)
    if count == 0:
        return mask
    if mode == "suffix":
        mask[n - count :] = True
    else:
        mask[rng.choice(n, size=count, replace=False)] = True
    return mask
