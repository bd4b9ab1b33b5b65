"""End-to-end command-line runs in a temporary workspace.

One module-scoped workspace generates a corpus and trains a tiny model
once; the command tests reuse those artifacts.  Training here is a few
steps — enough to give the conditioning pathways nonzero weights, not
enough to produce good motion.
"""

import json
import shutil

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gesturesynth.cli import main
from gesturesynth.config import (
    EvalConfig,
    SampleConfig,
    ScheduleConfig,
    load_run_config,
    save_run_config,
    toy_run_config,
)
from gesturesynth.corpus import load_corpus, toy_corpus_config
from gesturesynth.experiments import ablate
from gesturesynth.metrics import ExtractorConfig
from gesturesynth.model import load_checkpoint, save_checkpoint
from gesturesynth import motion as motion_module
from gesturesynth.motion import load_motion
from gesturesynth.training import TrainConfig, read_loss_log
from test_pipeline import fail_chains
from test_training import half_then_fail


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a config file, a generated corpus, and a trained run."""
    root = tmp_path_factory.mktemp("cli")
    cfg = toy_run_config(
        schedule=ScheduleConfig(n_steps=8, beta_end=0.05),
        training=TrainConfig(batch_size=2, n_steps=3, lr=1e-2, seed=0),
        evaluation=EvalConfig(repeats=1),
        extractor=ExtractorConfig(clip_length=34, n_steps=40, seed=2),
        sample=SampleConfig(window=34, overlap=4),
    )
    cfg_path = root / "run.json"
    save_run_config(cfg, cfg_path)
    corpus = root / "corpus"
    run = root / "run"
    assert main(["gen-data", "--out", str(corpus), "--config", str(cfg_path),
                 "--samples", "160"]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--config", str(cfg_path)]) == 0
    audio = sorted(corpus.glob("*.audio"))[0]
    motion = audio.with_suffix(".motion")
    return {
        "root": root,
        "config": cfg_path,
        "corpus": corpus,
        "run": run,
        "checkpoint": run / "checkpoint_final.ckpt",
        "audio": audio,
        "motion": motion,
    }


class TestGenData:
    def test_corpus_on_disk(self, ws):
        _, splits = load_corpus(ws["corpus"])
        assert len(splits.train) == 128
        assert len(splits.val) == 16
        assert len(splits.test) == 16
        assert sorted({s.emotion for s in splits.test}) == [0, 1, 2, 3]

    def test_same_seed_identical_manifest(self, ws, tmp_path):
        again = tmp_path / "corpus2"
        assert main(["gen-data", "--out", str(again), "--config",
                     str(ws["config"]), "--samples", "160"]) == 0
        assert (again / "manifest.json").read_bytes() == \
            (ws["corpus"] / "manifest.json").read_bytes()
        name = ws["audio"].name
        assert (again / name).read_bytes() == ws["audio"].read_bytes()

    def test_seed_changes_corpus(self, ws, tmp_path):
        other = tmp_path / "corpus3"
        assert main(["gen-data", "--out", str(other), "--config",
                     str(ws["config"]), "--samples", "160",
                     "--seed", "99"]) == 0
        name = ws["motion"].name
        assert (other / name).read_bytes() != ws["motion"].read_bytes()


class TestTrain:
    def test_run_directory_contents(self, ws):
        assert ws["checkpoint"].exists()
        assert (ws["run"] / "config.json").exists()
        rows = read_loss_log(ws["run"] / "loss_log.csv")
        assert [r["step"] for r in rows] == [1, 2, 3]
        snapshot = json.loads((ws["run"] / "val_metrics.json").read_text())
        assert snapshot["final_step"] == 3
        assert set(snapshot["val"]) == {"L_mse", "L_rec", "L_ce", "total"}

    def test_ablation_flags_complete(self, ws, tmp_path):
        out = tmp_path / "ablated"
        code = main(["train", "--corpus", str(ws["corpus"]), "--out", str(out),
                     "--config", str(ws["config"]), "--no-rec", "--no-emotion",
                     "--no-jcformer-spatial"])
        assert code == 0
        rows = read_loss_log(out / "loss_log.csv")
        assert all(r["L_rec"] == 0.0 and r["L_ce"] == 0.0 for r in rows)

    @pytest.mark.parametrize("flags", [
        ["--no-rec"], ["--no-emotion"], ["--no-jcformer-spatial"],
        ["--no-rec", "--no-emotion", "--no-jcformer-spatial"],
    ], ids=["no-rec", "no-emotion", "no-spatial", "all"])
    def test_ablation_flags_write_ablated_config(self, ws, tmp_path, flags):
        out = tmp_path / "ablated"
        assert main(["train", "--corpus", str(ws["corpus"]), "--out", str(out),
                     "--config", str(ws["config"]), *flags]) == 0
        cfg = load_run_config(ws["config"])
        model_cfg, train_cfg = cfg.model, cfg.training
        variants = {"--no-rec": "no_rec", "--no-emotion": "no_emotion",
                    "--no-jcformer-spatial": "no_spatial"}
        for flag in flags:
            model_cfg, train_cfg = ablate(model_cfg, train_cfg, variants[flag])
        written = json.loads((out / "config.json").read_text())
        expected = json.loads(json.dumps({"model": model_cfg.to_dict(),
                                          "training": train_cfg.to_dict()}))
        assert {k: written[k] for k in expected} == expected
        unablated = json.loads(json.dumps({"model": cfg.model.to_dict(),
                                           "training": cfg.training.to_dict()}))
        assert expected != unablated

    def test_retrain_is_byte_identical(self, ws, tmp_path):
        out = tmp_path / "again"
        assert main(["train", "--corpus", str(ws["corpus"]), "--out", str(out),
                     "--config", str(ws["config"])]) == 0
        assert (out / "loss_log.csv").read_bytes() == \
            (ws["run"] / "loss_log.csv").read_bytes()
        assert (out / "checkpoint_final.ckpt").read_bytes() == \
            ws["checkpoint"].read_bytes()
        assert (out / "val_metrics.json").read_bytes() == \
            (ws["run"] / "val_metrics.json").read_bytes()

    def test_mismatched_model_is_config_error(self, ws, tmp_path):
        code = main(["train", "--corpus", str(ws["corpus"]),
                     "--out", str(tmp_path / "x")])  # default full-size model
        assert code == 2

    def test_broken_sidecar_is_parse_error(self, ws, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(ws["corpus"], corpus)
        corpus.joinpath(ws["audio"].with_suffix(".json").name).write_text("{not json")
        code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
                     "--config", str(ws["config"])])
        assert code == 4

    @pytest.mark.parametrize("meta_step, drop, transpose, expected", [
        ("x", None, None, 4), (1, "opt.m.out_head.W", None, 3),
        (1, None, "opt.m.out_head.W", 3),
    ], ids=["bad-step", "missing-moment", "transposed-moment"])
    def test_corrupt_resume_checkpoint_exit_code(self, ws, tmp_path, meta_step, drop,
                                                 transpose, expected):
        bundle = load_checkpoint(ws["checkpoint"])
        extra = {k: v for k, v in bundle.extra_arrays.items() if k != drop}
        if transpose is not None:  # as many entries, in the wrong shape
            assert extra[transpose].shape[0] != extra[transpose].shape[1]
            extra[transpose] = extra[transpose].T
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bundle.model, bad, stats=bundle.stats,
                        meta={**bundle.meta, "step": meta_step}, extra_arrays=extra)
        code = main(["train", "--corpus", str(ws["corpus"]), "--out", str(tmp_path / "x"),
                     "--config", str(ws["config"]), "--resume", str(bad)])
        assert code == expected


class TestSample:
    def test_writes_motion_of_audio_length(self, ws, tmp_path):
        out = tmp_path / "gen.motion"
        code = main(["sample", "--checkpoint", str(ws["checkpoint"]),
                     "--audio", str(ws["audio"]), "--out", str(out),
                     "--config", str(ws["config"]), "--emotion", "1",
                     "--seed", "3"])
        assert code == 0
        seq = load_motion(out)
        assert seq.n_frames == 34
        assert np.all(np.isfinite(seq.frames))

    def test_fixed_seed_identical_file(self, ws, tmp_path):
        files = []
        for name in ("a.motion", "b.motion"):
            out = tmp_path / name
            assert main(["sample", "--checkpoint", str(ws["checkpoint"]),
                         "--audio", str(ws["audio"]), "--out", str(out),
                         "--config", str(ws["config"]), "--emotion", "1",
                         "--seed", "3"]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_emotion_override_changes_motion(self, ws, tmp_path):
        frames = {}
        for label in ("0", "3"):
            out = tmp_path / f"e{label}.motion"
            assert main(["sample", "--checkpoint", str(ws["checkpoint"]),
                         "--audio", str(ws["audio"]), "--out", str(out),
                         "--config", str(ws["config"]), "--emotion", label,
                         "--seed", "3"]) == 0
            frames[label] = load_motion(out).frames
        assert np.mean(np.abs(frames["0"] - frames["3"])) > 0

    def test_seed_pose_continues_reference(self, ws, tmp_path):
        out = tmp_path / "cont.motion"
        assert main(["sample", "--checkpoint", str(ws["checkpoint"]),
                     "--audio", str(ws["audio"]), "--out", str(out),
                     "--config", str(ws["config"]), "--emotion", "0",
                     "--seed-pose", str(ws["motion"]), "--seed", "5"]) == 0
        ref = load_motion(ws["motion"])
        seq = load_motion(out)
        assert_allclose(seq.frames[:4], ref.frames[-4:], atol=1e-6)

    def test_emotion_out_of_range(self, ws, tmp_path):
        code = main(["sample", "--checkpoint", str(ws["checkpoint"]),
                     "--audio", str(ws["audio"]),
                     "--out", str(tmp_path / "x.motion"),
                     "--config", str(ws["config"]), "--emotion", "99"])
        assert code == 2

    def test_missing_checkpoint_is_io_error(self, ws, tmp_path):
        code = main(["sample", "--checkpoint", str(tmp_path / "absent.ckpt"),
                     "--audio", str(ws["audio"]),
                     "--out", str(tmp_path / "x.motion"),
                     "--config", str(ws["config"])])
        assert code == 4

    def test_malformed_checkpoint_header_is_parse_error(self, ws, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(ws["checkpoint"].read_bytes().replace(b"\nparams ", b"\nparams x", 1))
        code = main(["sample", "--checkpoint", str(bad),
                     "--audio", str(ws["audio"]),
                     "--out", str(tmp_path / "x.motion"),
                     "--config", str(ws["config"])])
        assert code == 4

    def test_unknown_checkpoint_config_key_is_parse_error(self, ws, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(ws["checkpoint"].read_bytes().replace(
            b"\nconfig {", b'\nconfig {"flux_capacitor": 1, ', 1))
        code = main(["sample", "--checkpoint", str(bad),
                     "--audio", str(ws["audio"]),
                     "--out", str(tmp_path / "x.motion"),
                     "--config", str(ws["config"])])
        assert code == 4


class TestEdit:
    def test_none_mask_preserves_everything(self, ws, tmp_path):
        out = tmp_path / "edit.motion"
        assert main(["edit", "--checkpoint", str(ws["checkpoint"]),
                     "--reference", str(ws["motion"]), "--mask", "none",
                     "--audio", str(ws["audio"]), "--out", str(out),
                     "--config", str(ws["config"])]) == 0
        assert_array_equal(load_motion(out).frames,
                           load_motion(ws["motion"]).frames)

    def test_masked_joints_regenerated(self, ws, tmp_path):
        out = tmp_path / "edit.motion"
        assert main(["edit", "--checkpoint", str(ws["checkpoint"]),
                     "--reference", str(ws["motion"]), "--mask", "joint_1",
                     "--audio", str(ws["audio"]), "--out", str(out),
                     "--config", str(ws["config"]), "--seed", "4"]) == 0
        ref = load_motion(ws["motion"]).frames
        got = load_motion(out).frames
        kept = [0, 2, 3, 4, 5]
        assert_array_equal(got[:, kept], ref[:, kept])
        changed = np.any(got[:, 1] != ref[:, 1], axis=1)
        assert changed.mean() >= 0.95

    def test_unknown_joint_is_argument_error(self, ws, tmp_path, capsys):
        code = main(["edit", "--checkpoint", str(ws["checkpoint"]),
                     "--reference", str(ws["motion"]), "--mask", "wrist",
                     "--audio", str(ws["audio"]),
                     "--out", str(tmp_path / "x.motion"),
                     "--config", str(ws["config"])])
        assert code == 2
        assert "joint_0" in capsys.readouterr().err

    def test_group_selecting_no_joint_is_argument_error(self, ws, tmp_path, capsys):
        # the toy skeleton has no hand joints
        out = tmp_path / "x.motion"
        code = main(["edit", "--checkpoint", str(ws["checkpoint"]),
                     "--reference", str(ws["motion"]), "--mask", "left_hand",
                     "--audio", str(ws["audio"]), "--out", str(out),
                     "--config", str(ws["config"])])
        assert code == 2
        assert "left_hand" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_report_written(self, ws, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(["eval", "--checkpoint", str(ws["checkpoint"]),
                     "--corpus", str(ws["corpus"]),
                     "--config", str(ws["config"]), "--repeats", "1",
                     "--seed", "0", "--out", str(report)])
        assert code == 0
        assert "FGD:" in capsys.readouterr().out
        text = report.read_text()
        assert text.startswith("metric,value\n")
        assert "fgd," in text and "srgr," in text and "beat_align," in text

    def test_failing_chain_exits_3(self, ws, monkeypatch, capsys):
        fail_chains(monkeypatch)
        code = main(["eval", "--checkpoint", str(ws["checkpoint"]),
                     "--corpus", str(ws["corpus"]), "--config", str(ws["config"])])
        assert code == 3
        assert "error: chain 1 left its domain" in capsys.readouterr().err

    def test_empty_test_split_rejected(self, ws, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        for f in ws["corpus"].iterdir():
            if f.name != "manifest.json":
                (broken / f.name).write_bytes(f.read_bytes())
        manifest = json.loads((ws["corpus"] / "manifest.json").read_text())
        manifest["splits"]["test"] = []
        (broken / "manifest.json").write_text(json.dumps(manifest))
        code = main(["eval", "--checkpoint", str(ws["checkpoint"]),
                     "--corpus", str(broken), "--config", str(ws["config"])])
        assert code == 2


def test_eval_and_latents_on_samples_longer_than_the_extractor_clip(tmp_path):
    """The default corpus has 64-frame samples and the extractor 34-frame clips."""
    cfg = toy_run_config(
        corpus=toy_corpus_config(sample_length=64),
        schedule=ScheduleConfig(n_steps=4, beta_end=0.05),
        training=TrainConfig(batch_size=2, n_steps=1, seed=0),
        evaluation=EvalConfig(repeats=1),
        extractor=ExtractorConfig(clip_length=34, n_steps=5, target_mse=10.0, seed=2),
    )
    cfg_path, corpus, run = tmp_path / "run.json", tmp_path / "corpus", tmp_path / "run"
    save_run_config(cfg, cfg_path)
    config = ["--config", str(cfg_path)]
    assert main(["gen-data", "--out", str(corpus), "--samples", "140", *config]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(run), *config]) == 0
    checkpoint = str(run / "checkpoint_final.ckpt")
    assert main(["eval", "--checkpoint", checkpoint, "--corpus", str(corpus), *config]) == 0
    motion = sorted(corpus.glob("*.motion"))[0]
    out = tmp_path / "latents.csv"
    assert main(["export", "--format", "latents", "--motion", str(motion), "--out", str(out),
                 "--corpus", str(corpus), *config]) == 0
    assert len(out.read_text().strip().split("\n")) == 2  # one disjoint 34-frame window


class TestExport:
    def test_csv_row_count(self, ws, tmp_path):
        out = tmp_path / "motion.csv"
        assert main(["export", "--format", "csv", "--motion",
                     str(ws["motion"]), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 34  # header + one row per frame

    def test_nonfinite_motion_is_parse_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "nan.motion"
        data = ws["motion"].read_bytes()
        bad.write_bytes(data[:-8] + np.array([np.nan]).astype("<f8").tobytes())
        code = main(["export", "--format", "csv", "--motion", str(bad),
                     "--out", str(tmp_path / "motion.csv")])
        assert code == 4
        assert "nan.motion" in capsys.readouterr().err

    def test_bad_fps_is_parse_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "rate.motion"
        bad.write_bytes(ws["motion"].read_bytes().replace(b"fps 15.0", b"fps -0.0"))
        code = main(["export", "--format", "csv", "--motion", str(bad),
                     "--out", str(tmp_path / "motion.csv")])
        assert code == 4
        assert "rate.motion" in capsys.readouterr().err

    def test_svg_frame_count(self, ws, tmp_path):
        out = tmp_path / "figures"
        assert main(["export", "--format", "svg-frames", "--motion",
                     str(ws["motion"]), "--out", str(out),
                     "--frames", "5"]) == 0
        files = sorted(out.glob("frame_*.svg"))
        assert len(files) == 5
        assert files[0].read_text().startswith("<svg")

    def test_svg_frames_bounded(self, ws, tmp_path):
        code = main(["export", "--format", "svg-frames", "--motion",
                     str(ws["motion"]), "--out", str(tmp_path / "f"),
                     "--frames", "99"])
        assert code == 2

    def test_latents_dimension(self, ws, tmp_path):
        out = tmp_path / "latents.csv"
        assert main(["export", "--format", "latents", "--motion",
                     str(ws["motion"]), "--out", str(out),
                     "--corpus", str(ws["corpus"]),
                     "--config", str(ws["config"])]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",") == [f"z{i}" for i in range(32)]
        assert len(lines) == 2  # one 34-frame motion -> one window

    @pytest.mark.parametrize("fmt", ["svg-frames", "latents"])
    def test_failed_export_keeps_old_file(self, ws, tmp_path, monkeypatch, fmt):
        out = tmp_path / ("figures" if fmt == "svg-frames" else "latents.csv")
        old = out / "frame_00000.svg" if fmt == "svg-frames" else out
        old.parent.mkdir(exist_ok=True)
        old.write_bytes(b"old contents\n")
        monkeypatch.setattr(motion_module, "open", half_then_fail, raising=False)
        assert main(["export", "--format", fmt, "--motion", str(ws["motion"]),
                     "--out", str(out), "--corpus", str(ws["corpus"]),
                     "--config", str(ws["config"])]) == 4
        monkeypatch.undo()
        assert old.read_bytes() == b"old contents\n"
        assert sorted(old.parent.iterdir()) == [old]

    def test_latents_need_corpus(self, ws, tmp_path):
        code = main(["export", "--format", "latents", "--motion",
                     str(ws["motion"]), "--out", str(tmp_path / "z.csv")])
        assert code == 2

    def test_unknown_format_rejected_by_parser(self, ws, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--format", "png", "--motion", str(ws["motion"]),
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestParser:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transcode"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data"])  # --out missing
        assert exc.value.code == 2

    def test_malformed_config_is_io_error(self, ws, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["gen-data", "--out", str(tmp_path / "c"),
                     "--config", str(bad), "--samples", "10"])
        assert code == 4

    @pytest.mark.parametrize("bad", [
        {"model": 5},
        {"model": {"n_joints": "x"}},
        {"training": {"weights": {"foo": 1}}},
        {"schedule": []},
        {"master_seed": "a"},
        {"corpus": {"beat_period": [5]}},
        {"training": {"mask_ratio_range": [0.1, 0.2, 0.3]}},
        {"model": {"heads_joint": 0}},
        [],
    ], ids=["model-not-object", "field-type", "nested-unknown-key", "section-list",
            "seed-string", "tuple-short", "tuple-long", "zero-heads", "top-level-list"])
    def test_malformed_run_config_is_argument_error(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["gen-data", "--out", str(tmp_path / "c"),
                     "--config", str(path), "--samples", "10"])
        assert code == 2

    def test_mask_ratio_of_one_exits_before_training(self, ws, tmp_path):
        cfg = json.loads(ws["config"].read_text())
        cfg["training"].update(mask_ratio_range=[0.0, 1.0], variable_length=True,
                               vl_window=34, vl_stride=10)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["train", "--corpus", str(ws["corpus"]), "--out", str(out),
                     "--config", str(bad)])
        assert code == 2
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("command, seed_flag, config_patch", [
        ("gen-data", "-1", None),
        ("sample", "-2", None),
        ("edit", "-1", None),
        ("train", None, {"master_seed": -5}),
        ("train", None, {"training": {"seed": -1}}),
        ("gen-data", None, {"corpus": {"master_seed": -1}}),
    ], ids=["gen-data-flag", "sample-flag", "edit-flag", "train-master-seed",
            "train-training-seed", "gen-data-corpus-seed"])
    def test_negative_seed_is_argument_error(self, ws, tmp_path, capsys, command,
                                             seed_flag, config_patch):
        cfg = json.loads(ws["config"].read_text())
        for section, value in (config_patch or {}).items():
            if isinstance(value, dict):
                cfg[section].update(value)
            else:
                cfg[section] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        argv = {
            "gen-data": ["--out", str(out), "--samples", "10"],
            "train": ["--corpus", str(ws["corpus"]), "--out", str(out)],
            "sample": ["--checkpoint", str(ws["checkpoint"]), "--audio", str(ws["audio"]),
                       "--out", str(out)],
            "edit": ["--checkpoint", str(ws["checkpoint"]), "--reference", str(ws["motion"]),
                     "--mask", "joint_1", "--audio", str(ws["audio"]), "--out", str(out)],
        }[command]
        if seed_flag is not None:
            argv += ["--seed", seed_flag]
        assert main([command, *argv, "--config", str(path)]) == 2
        assert "seeds must be integers >= 0" in capsys.readouterr().err

    def test_unknown_config_key_is_argument_error(self, ws, tmp_path):
        cfg = json.loads(ws["config"].read_text())
        cfg["mystery"] = {}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = main(["gen-data", "--out", str(tmp_path / "c"),
                     "--config", str(bad), "--samples", "10"])
        assert code == 2
