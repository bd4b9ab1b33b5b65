"""Spans around the calls into each gesturesynth module, installed from outside.

The tracer replaces public callables with timing wrappers in the namespaces
their callers look them up from (class attributes, module globals of the
calling module, and sub-module attributes of one model instance), and puts
every original back on ``uninstall``.  Each span records its name, start,
end, parent span and operation id, plus two counters read at its start and
end: Tensor constructions and matmul FLOP.  The MFLOP figure is computed
from operand shapes in ``Tensor.__matmul__`` (2*m*k*n per matrix product),
not measured.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from gesturesynth import autodiff, diffusion, layers, optim, pipeline, training
from gesturesynth.model import GestureDenoiser

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, OP, T0, T1, F0, F1, NOTE = range(10)

# (layer, owner, attribute, span name): callables wrapped on install.
TARGETS = [
    ("autodiff", autodiff.Tensor, "backward", "autodiff.backward"),
    ("layers", layers.MultiHeadSelfAttention, "__call__", "layers.self_attention"),
    ("layers", layers.CrossAttention, "__call__", "layers.cross_attention"),
    ("layers", layers.FeedForward, "__call__", "layers.feedforward"),
    ("layers", layers.ConditionalNorm, "__call__", "layers.conditional_norm"),
    ("model", GestureDenoiser, "forward", "model.forward"),
    ("model", GestureDenoiser, "denoise", "model.denoise"),
    ("diffusion", pipeline, "sample", "diffusion.chain"),
    ("diffusion", pipeline, "seed_pose_sample", "diffusion.chain"),
    ("diffusion", diffusion, "reverse_step", "diffusion.reverse_step"),
    ("training", training, "loss_mse", "training.loss"),
    ("training", training, "loss_rec", "training.loss"),
    ("training", training, "loss_ce", "training.loss"),
    ("training", training, "total_loss", "training.loss"),
    ("optim", optim.Adam, "step", "optim.step"),
    ("optim", optim.Adam, "zero_grad", "optim.step"),
    ("pipeline", pipeline, "generate_motion", "pipeline.generate_motion"),
    ("pipeline", pipeline, "predict_emotion", "pipeline.predict_emotion"),
    ("pipeline", pipeline, "evaluate", "pipeline.evaluate"),
    ("motion", pipeline, "stitch", "motion.stitch"),
    ("metrics", pipeline, "extract_latents", "metrics.extract_latents"),
    ("metrics", pipeline, "fgd", "metrics.fgd"),
    ("metrics", pipeline, "srgr", "metrics.srgr"),
    ("metrics", pipeline, "kinematic_beats", "metrics.beats"),
    ("metrics", pipeline, "audio_beats", "metrics.beats"),
    ("metrics", pipeline, "beat_align", "metrics.beats"),
]

# Model sub-module attributes wrapped on the traced instance.
MODEL_PARTS = [
    ("audio_align", "model.audio_align"),
    ("joint_stack", "model.joint_stack"),
    ("temporal_stack", "model.temporal_stack"),
    ("fusion_stack", "model.fusion_stack"),
    ("audio_attn", "model.audio_attn"),
    ("emotion_phi", "model.emotion"),
    ("_condition_emotion", "model.emotion"),
    ("out_head", "model.out_head"),
]

_ABSENT = object()

LAYERS = ("autodiff", "layers", "model", "diffusion", "training", "optim",
          "pipeline", "motion", "metrics")


class _Part:
    """Stands in for a model sub-module: times calls, forwards attributes."""

    def __init__(self, inner, call):
        self._inner = inner
        self._call = call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _batch_of(args, kwargs):
    x = np.shape(args[1] if len(args) > 1 else kwargs["x_t"])
    return {"batch": 1 if len(x) == 3 else x[0]}


def _pin_of(args, kwargs):
    # seed_pose_sample(denoiser, condition, seed_pose, n_frames, ...)
    seed = args[2] if len(args) > 2 else kwargs["seed_pose"]
    n_frames = args[3] if len(args) > 3 else kwargs["n_frames"]
    frames = getattr(seed, "frames", seed)
    return {"pinned": int(np.shape(frames)[0]), "frames": int(n_frames)}


def _frames_of(args, kwargs):
    # sample(denoiser, condition, n_frames, ...)
    n_frames = args[2] if len(args) > 2 else kwargs["n_frames"]
    return {"pinned": 0, "frames": int(n_frames)}


NOTES = {
    (GestureDenoiser, "denoise"): _batch_of,
    (pipeline, "seed_pose_sample"): _pin_of,
    (pipeline, "sample"): _frames_of,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.tensors = 0
        self.flops = 0  # an int, so sums repeat exactly
        self.failed = Counter()
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _span(self, name, layer, fn, note=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    self.tensors, 0, self.flops, 0,
                    note(args, kwargs) if note else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed[layer] += 1
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                span[T1] = self.tensors
                span[F1] = self.flops

        return wrapper

    def run_op(self, op_id, fn):
        """Run one benchmark operation as a root span."""
        self.op = op_id
        return self._span("op", "benchmark", fn)()

    # -- install / uninstall ------------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, model):
        for layer, owner, attr, name in TARGETS:
            fn = getattr(owner, attr)
            self._replace(owner, attr,
                          self._span(name, layer, fn, NOTES.get((owner, attr))))
        tracer = self
        tensor_init = autodiff.Tensor.__init__
        tensor_matmul = autodiff.Tensor.__matmul__

        def counted_init(obj, *args, **kwargs):
            tracer.tensors += 1
            tensor_init(obj, *args, **kwargs)

        def counted_matmul(a, b):
            out = tensor_matmul(a, b)
            ka, kb = a.data.shape, np.shape(getattr(b, "data", b))
            batch = math.prod(out.data.shape[:-2])
            tracer.flops += 2 * batch * ka[-2] * ka[-1] * kb[-1]
            return out

        self._replace(autodiff.Tensor, "__init__", counted_init)
        self._replace(autodiff.Tensor, "__matmul__", counted_matmul)
        for attr, name in MODEL_PARTS:
            inner = getattr(model, attr)
            self._restore.append((model, attr, vars(model).get(attr, _ABSENT)))
            setattr(model, attr, _Part(inner, self._span(name, "model", inner)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if original is _ABSENT:
                delattr(owner, attr)  # a method: drop the instance override
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "note": s[NOTE],
                }) + "\n")

    def self_times(self):
        """{span name: [calls, total ms, self ms]} over every recorded span."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[NAME], [0, 0.0, 0.0])
            dur = s[END] - s[START]
            row[0] += 1
            row[1] += dur * 1e3
            row[2] += (dur - child[i]) * 1e3
        return out

    def counts_by_op(self, steps_per_op):
        """Count metrics of each traced op; they must repeat exactly."""
        ops = sorted({s[OP] for s in self.spans})
        return {op: _counts(self.spans, steps_per_op, op) for op in ops}

    def layer_metrics(self, steps_per_op):
        return _layer_metrics(self.spans, steps_per_op, self.failed)


def _by_name(spans, op=None):
    out = defaultdict(list)
    for s in spans:
        if op is None or s[OP] == op:
            out[s[NAME]].append(s)
    return out


def _dur(spans):
    return sum(s[END] - s[START] for s in spans)


def _ratio(num, den):
    return num / den if den else 0.0


def _train_forwards(spans, by):
    """Forward passes of training steps: those not inside a denoise call."""
    return [s for s in by["model.forward"] if spans[s[PARENT]][NAME] != "model.denoise"]


def _counts(spans, steps_per_op, op=None):
    """Count metrics over all ops, or over the one op given."""
    by = _by_name(spans, op)
    ops = by["op"]
    den, chains = by["model.denoise"], by["diffusion.chain"]
    steps = steps_per_op * len(ops) if _train_forwards(spans, by) else 0
    return {
        "autodiff.tensors_per_step": _ratio(sum(s[T1] - s[T0] for s in ops), steps),
        "model.denoise_calls": _ratio(len(den), len(ops)),
        "model.denoise_batch_mean": _ratio(sum(s[NOTE]["batch"] for s in den), len(den)),
        "autodiff.tensors_per_denoise": _ratio(sum(s[T1] - s[T0] for s in den), len(den)),
        "autodiff.matmul_mflop_per_denoise": _ratio(sum(s[F1] - s[F0] for s in den) / 1e6,
                                                    len(den)),
        "diffusion.steps_per_chain": _ratio(len(by["diffusion.reverse_step"]), len(chains)),
        "diffusion.pinned_share": _ratio(sum(s[NOTE]["pinned"] for s in chains),
                                         sum(s[NOTE]["frames"] for s in chains)),
        "pipeline.windows_per_call": _ratio(len(chains), len(by["pipeline.generate_motion"])),
    }


def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(spans, steps_per_op, failed):
    by = _by_name(spans)
    ops = by["op"]
    fwd = by["model.forward"]
    den = by["model.denoise"]
    gens = by["pipeline.generate_motion"]
    evals = by["pipeline.evaluate"]
    chains = by["diffusion.chain"]
    ms = 1e3
    m = {}

    train_fwd = _train_forwards(spans, by)
    steps = steps_per_op * len(ops) if train_fwd else 0
    m["model.forward_ms"] = _ratio(_dur(fwd) * ms, len(fwd))
    step_parts = {"autodiff.backward": "autodiff.backward_ms", "optim.step": "optim.step_ms",
                  "training.loss": "training.loss_ms"}
    for name, metric in step_parts.items():
        m[metric] = _ratio(_dur(by[name]) * ms, steps)
    inside = _dur(train_fwd) + sum(_dur(by[name]) for name in step_parts)
    m["training.other_ms"] = _ratio((_dur(ops) - inside) * ms, steps)
    intervals = []
    for op in ops:
        starts = [s[START] for s in train_fwd if s[OP] == op[OP]]
        intervals += [(b - a) * ms for a, b in zip(starts, starts[1:] + [op[END]])]
    m["training.step_ms_p50"] = _pct(intervals, 50)
    m["training.step_ms_p90"] = _pct(intervals, 90)

    # sampling
    den_ms = [(s[END] - s[START]) * ms for s in den]
    m["model.denoise_ms_p50"] = _pct(den_ms, 50)
    m["model.denoise_ms_p90"] = _pct(den_ms, 90)
    m.update(_counts(spans, steps_per_op))
    for name in dict.fromkeys(name for _, name in MODEL_PARTS):
        # audio_align and emotion_phi also run in predict_emotion, outside forward
        inside = [s for s in by[name] if _inside(spans, s, "model.forward")]
        m[name + "_ms"] = _ratio(_dur(inside) * ms, len(fwd))
    for name in ("layers.self_attention", "layers.cross_attention",
                 "layers.feedforward", "layers.conditional_norm"):
        m[name + "_ms"] = _ratio(_dur(by[name]) * ms, len(fwd))
    m["diffusion.chain_ms"] = _ratio(_dur(chains) * ms, len(chains))
    m["diffusion.chain_overhead_ms"] = _ratio((_dur(chains) - _dur(den)) * ms, len(chains))
    m["diffusion.reverse_step_ms"] = _ratio(_dur(by["diffusion.reverse_step"]) * ms,
                                            len(by["diffusion.reverse_step"]))
    m["pipeline.predict_emotion_ms"] = _ratio(_dur(by["pipeline.predict_emotion"]) * ms, len(gens))
    m["motion.stitch_ms"] = _ratio(_dur(by["motion.stitch"]) * ms, len(gens))
    for name in ("metrics.extract_latents", "metrics.fgd", "metrics.srgr", "metrics.beats"):
        m[name + "_ms"] = _ratio(_dur(by[name]) * ms, len(evals))
    m["pipeline.denoise_share"] = _ratio(_dur(den), _dur(ops))
    for layer in LAYERS:
        m[layer + ".failed"] = failed[layer]
    return m


def _inside(spans, span, name):
    p = span[PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
