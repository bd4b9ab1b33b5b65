"""Command-line surface: corpus generation, training, sampling, editing,
evaluation, and export.

Every command is driven by one JSON run-configuration file plus a master
seed, and repeated invocations with the same seed write byte-identical
output files.  Exit codes: 0 ok, 2 argument/config error, 3 numeric or
training failure, 4 file IO error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_run_config, save_run_config
from .corpus import generate_corpus, load_corpus, save_corpus
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    MetricError,
    NumericError,
    ParseError,
    TrainingError,
)
from .experiments import ABLATION_VARIANTS, ablate
from .metrics import extract_latents, train_extractor
from .model import GestureDenoiser, load_checkpoint
from .motion import (_atomic_open, _write_json, export_motion_csv, load_audio,
                     load_motion, save_motion)
from .pipeline import edit_motion, evaluate, generate_motion, predict_emotion
from .rng import stream
from .training import train, validation_losses


def _run_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_run_config(args.config)
    return RunConfig()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _run_config(args)
    corpus_cfg = cfg.corpus
    if args.seed is not None:
        corpus_cfg = dataclasses.replace(corpus_cfg, master_seed=args.seed)
    splits = generate_corpus(corpus_cfg, args.samples)
    save_corpus(corpus_cfg, splits, args.out)
    print(
        f"wrote {args.samples} samples to {args.out} "
        f"(train {len(splits.train)}, val {len(splits.val)}, "
        f"test {len(splits.test)})"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    cfg.corpus, splits = load_corpus(args.corpus)
    for variant in ABLATION_VARIANTS[1:]:  # every variant but "full" is a flag
        if getattr(args, variant):
            cfg.model, cfg.training = ablate(cfg.model, cfg.training, variant)
    cfg.validate_cross_links()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_run_config(cfg, out / "config.json")

    model = GestureDenoiser(cfg.model, stream(cfg.master_seed, "init"))
    result = train(model, splits.train, cfg.schedule.build(), cfg.training,
                   out_dir=out, resume_from=args.resume)
    report = {"final_step": result.rows[-1]["step"],
              "train_total": result.rows[-1]["total"]}
    if splits.val:
        report["val"] = validation_losses(model, splits.val, cfg.schedule.build(),
                                          cfg.training, result.stats)
    _write_json(out / "val_metrics.json", report)
    print(f"trained {result.rows[-1]['step']} steps; "
          f"final loss {result.rows[-1]['total']:.4f}; "
          f"checkpoint {result.final_checkpoint}")
    return 0


def cmd_sample(args) -> int:
    cfg = _run_config(args)
    bundle = load_checkpoint(args.checkpoint)
    audio = load_audio(args.audio)
    seed_pose = None
    if args.seed_pose:
        seed_seq = load_motion(args.seed_pose)
        k = min(cfg.sample.overlap or 4, seed_seq.n_frames)
        seed_pose = seed_seq.frames[-k:]
    label = args.emotion
    if label is None:
        label = predict_emotion(bundle.model, audio.features)
    seq = generate_motion(
        bundle.model, audio.features, cfg.schedule.build(),
        stats=bundle.stats, sample_cfg=cfg.sample, emotion=label,
        speaker=args.speaker, seed_pose=seed_pose,
        master_seed=args.seed, fps=audio.source_rate_hz,
    )
    save_motion(seq, args.out)
    print(f"wrote {seq.n_frames} frames to {args.out} (emotion {label})")
    return 0


def cmd_edit(args) -> int:
    cfg = _run_config(args)
    bundle = load_checkpoint(args.checkpoint)
    reference = load_motion(args.reference)
    audio = load_audio(args.audio)
    seq = edit_motion(
        bundle.model, reference, args.mask, audio.features,
        cfg.schedule.build(), stats=bundle.stats, emotion=args.emotion,
        speaker=args.speaker, master_seed=args.seed,
        variance=cfg.sample.variance,
    )
    save_motion(seq, args.out)
    print(f"wrote edited motion ({args.mask}) to {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _run_config(args)
    bundle = load_checkpoint(args.checkpoint)
    _, splits = load_corpus(args.corpus)
    if not splits.test:
        raise ConfigError(f"corpus {args.corpus} has an empty test split")
    eval_cfg = cfg.evaluation
    if args.repeats is not None:
        eval_cfg = dataclasses.replace(eval_cfg, repeats=args.repeats)
    extractor = train_extractor([s.motion for s in splits.train], cfg.extractor)
    report = evaluate(
        bundle.model, extractor, splits.test, cfg.schedule.build(),
        stats=bundle.stats, eval_cfg=eval_cfg, sample_cfg=cfg.sample,
        master_seed=args.seed,
    )
    print(report.text(), end="")
    if args.out:
        report.write_csv(args.out)
    return 0


def _svg_stick_figure(frame, skeleton, x_range, y_range) -> str:
    """One frontal (XY-plane) stick-figure frame as a standalone SVG."""
    lo_x, hi_x = x_range
    lo_y, hi_y = y_range
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-6)
    margin = 0.1 * span
    width = hi_x - lo_x + 2 * margin
    height = hi_y - lo_y + 2 * margin

    def sx(v):
        return f"{v - lo_x + margin:.4f}"

    def sy(v):
        # SVG y grows downward; flip so larger y plots higher
        return f"{hi_y - v + margin:.4f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width:.4f} {height:.4f}">'
    ]
    for j, parent in enumerate(skeleton.parent_index):
        if parent < 0:
            continue
        parts.append(
            f'<line x1="{sx(frame[j, 0])}" y1="{sy(frame[j, 1])}" '
            f'x2="{sx(frame[parent, 0])}" y2="{sy(frame[parent, 1])}" '
            f'stroke="black" stroke-width="{0.01 * span:.4f}"/>'
        )
    radius = f"{0.015 * span:.4f}"
    for j in range(frame.shape[0]):
        parts.append(
            f'<circle cx="{sx(frame[j, 0])}" cy="{sy(frame[j, 1])}" '
            f'r="{radius}" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_export(args) -> int:
    seq = load_motion(args.motion)
    if args.format == "csv":
        export_motion_csv(seq, args.out)
        print(f"wrote {seq.n_frames} rows to {args.out}")
        return 0
    if args.format == "svg-frames":
        if args.frames < 1 or args.frames > seq.n_frames:
            raise ConfigError(
                f"--frames must be in [1, {seq.n_frames}], got {args.frames}"
            )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        keyframes = np.unique(
            np.linspace(0, seq.n_frames - 1, args.frames).round().astype(int)
        )
        x_range = (seq.frames[:, :, 0].min(), seq.frames[:, :, 0].max())
        y_range = (seq.frames[:, :, 1].min(), seq.frames[:, :, 1].max())
        for f in keyframes:
            svg = _svg_stick_figure(seq.frames[f], seq.skeleton, x_range, y_range)
            with _atomic_open(out / f"frame_{f:05d}.svg") as fh:
                fh.write(svg)
        print(f"wrote {len(keyframes)} stick-figure frames to {out}")
        return 0
    if args.format == "latents":
        if not args.corpus:
            raise ConfigError("--format latents needs --corpus to fit the extractor")
        cfg = _run_config(args)
        _, splits = load_corpus(args.corpus)
        extractor = train_extractor([s.motion for s in splits.train],
                                    cfg.extractor)
        latents = extract_latents(extractor, [seq])
        with _atomic_open(args.out) as fh:
            fh.write(",".join(f"z{i}" for i in range(latents.shape[1])) + "\n")
            for row in latents:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        print(f"wrote {latents.shape[0]} x {latents.shape[1]} latents to {args.out}")
        return 0
    raise ConfigError(f"unknown export format {args.format!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gesturesynth",
        description="Emotion-conditioned diffusion synthesis of co-speech "
                    "gestures: data, training, sampling, editing, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--config", help="run configuration JSON file")
    p.add_argument("--samples", type=int, default=400, help="corpus size")
    p.add_argument("--seed", type=int, default=None,
                   help="override the corpus master seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the denoiser on a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output run directory")
    p.add_argument("--config", help="run configuration JSON file")
    p.add_argument("--resume", help="checkpoint file to resume from")
    p.add_argument("--no-rec", action="store_true",
                   help="drop the clean-pose reconstruction loss")
    p.add_argument("--no-emotion", action="store_true",
                   help="train without emotion conditioning or its loss")
    p.add_argument("--no-jcformer-spatial", action="store_true", dest="no_spatial",
                   help="bypass the joint-correlation (spatial) branch")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="synthesize motion for audio features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--audio", required=True, help="audio feature file")
    p.add_argument("--out", required=True, help="output motion file")
    p.add_argument("--config", help="run configuration JSON file")
    p.add_argument("--emotion", type=int, default=None,
                   help="override the predicted emotion label")
    p.add_argument("--seed-pose", help="motion file whose tail seeds the clip")
    p.add_argument("--speaker", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("edit", help="regenerate selected joints of a motion")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--reference", required=True, help="motion file to edit")
    p.add_argument("--mask", required=True,
                   help="joint group or comma-separated joint names")
    p.add_argument("--audio", required=True, help="audio feature file")
    p.add_argument("--out", required=True, help="output motion file")
    p.add_argument("--config", help="run configuration JSON file")
    p.add_argument("--emotion", type=int, default=None)
    p.add_argument("--speaker", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("eval", help="score a checkpoint on a corpus test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--config", help="run configuration JSON file")
    p.add_argument("--repeats", type=int, default=None,
                   help="sampling repetitions to average over")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", help="write the report as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="convert a motion file for inspection")
    p.add_argument("--format", required=True,
                   choices=("csv", "svg-frames", "latents"))
    p.add_argument("--motion", required=True, help="motion file")
    p.add_argument("--out", required=True, help="output file or directory")
    p.add_argument("--frames", type=int, default=8,
                   help="keyframe count for svg-frames")
    p.add_argument("--corpus", help="corpus directory (latents extractor)")
    p.add_argument("--config", help="run configuration JSON file")
    p.set_defaults(func=cmd_export)

    return parser


# the exit code of each error the commands report; anything else is a bug
_EXIT_CODES = {ParseError: 4, ConfigError: 2, ContractError: 2, DimensionError: 2,
              MetricError: 2, TrainingError: 3, NumericError: 3, OSError: 4}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
