"""Acceptance suite: nine criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavyweight fixture (a 2000-step toy training
run) is shared by criteria 4, 5 and 6; the whole suite is sized for a
laptop CPU.
"""

import time

import numpy as np
import pytest

from gesturesynth.autodiff import (
    Tensor,
    concat,
    gelu,
    layer_norm,
    scaled_dot_attention,
    softmax,
    take_rows,
)
from gesturesynth.cli import main
from gesturesynth.config import (
    EvalConfig,
    RunConfig,
    SampleConfig,
    ScheduleConfig,
    save_run_config,
    toy_run_config,
)
from gesturesynth.corpus import CorpusConfig, generate_corpus
from gesturesynth.diffusion import make_schedule, predict_x0, q_sample, reverse_step
from gesturesynth.experiments import (
    GestureEmotionClassifier,
    ablation_grid,
    compare_conditioning_modes,
    emotion_transfer_eval,
    format_comparison,
)
from gesturesynth.gradcheck import finite_diff_check
from gesturesynth.metrics import (
    ExtractorConfig,
    beat_align,
    fgd,
    srgr,
    train_extractor,
)
from gesturesynth.model import Condition, GestureDenoiser, ModelConfig, toy_config
from gesturesynth.motion import GestureSequence, generic_skeleton
from gesturesynth.pipeline import edit_motion, generate_motion, predict_emotion
from gesturesynth.rng import stream
from gesturesynth.training import TrainConfig, smoothed, train


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared toy-scale artifacts (criteria 4, 5, 6, 7, 8)
# ---------------------------------------------------------------------------

ACCEPT_MODEL = ModelConfig(
    n_joints=12, n_max=36, d_audio=32, d_audio_raw=32,
    d_joint=32, d_temporal=128, d_fusion=128, d_cond=64,
    depth_joint=2, depth_temporal=2, depth_fusion=1,
    heads_joint=4, heads_temporal=4, heads_fusion=4,
    ffn_mult=2, n_emotions=8, n_speakers=4,
)

ACCEPT_CORPUS = CorpusConfig(
    n_emotions=8, n_speakers=4, n_joints=12, sample_length=34,
    d_audio=32, master_seed=11,
)

ACCEPT_TRAIN = TrainConfig(batch_size=16, n_steps=2000, lr=1e-4, seed=1)

SAMPLE_CFG = SampleConfig(window=34, overlap=4)


@pytest.fixture(scope="module")
def accept_schedule():
    return make_schedule(n_steps=200, beta_end=0.05)


@pytest.fixture(scope="module")
def accept_splits():
    return generate_corpus(ACCEPT_CORPUS, 400)


@pytest.fixture(scope="module")
def trained(accept_splits, accept_schedule):
    """The criterion-4 smoke model: trained once, reused by 5 and 6."""
    model = GestureDenoiser(ACCEPT_MODEL, stream(11, "init"))
    t0 = time.time()
    result = train(model, accept_splits.train, accept_schedule, ACCEPT_TRAIN)
    minutes = (time.time() - t0) / 60.0
    return model, result, minutes


@pytest.fixture(scope="module")
def classifier(accept_splits):
    return GestureEmotionClassifier().fit(
        [s.motion for s in accept_splits.train],
        [s.emotion for s in accept_splits.train],
    )


@pytest.fixture(scope="module")
def accept_extractor(accept_splits):
    cfg = ExtractorConfig(clip_length=34, n_steps=400, seed=5)
    return train_extractor([s.motion for s in accept_splits.train], cfg)


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------


def _op_sweep_cases():
    rng = np.random.default_rng(5)

    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def tpos(*shape):
        return Tensor(np.abs(rng.normal(size=shape)) + 0.5, requires_grad=True)

    r = {s: rng.normal(size=s) for s in [(3, 4), (4, 2), (3, 2), (2, 3, 4), (6, 4)]}
    a, b = t(3, 4), t(3, 4)
    row = t(4)
    m1, m2 = t(3, 4), t(4, 2)
    pos = tpos(3, 4)
    batch = t(2, 3, 4)
    q, k, v = t(2, 3, 4), t(2, 3, 4), t(2, 3, 4)
    gain, bias = t(4), t(4)
    table, idx = t(6, 4), np.array([0, 2, 5])
    cases = {
        "add": ({"a": a, "b": b}, lambda: ((a + b) * Tensor(r[(3, 4)])).sum()),
        "add_broadcast": ({"a": a, "row": row},
                          lambda: ((a + row) * Tensor(r[(3, 4)])).sum()),
        "neg_sub": ({"a": a, "b": b}, lambda: ((-a - b) * Tensor(r[(3, 4)])).sum()),
        "mul": ({"a": a, "b": b}, lambda: ((a * b) * Tensor(r[(3, 4)])).sum()),
        "div": ({"a": a, "pos": pos}, lambda: ((a / pos) * Tensor(r[(3, 4)])).sum()),
        "pow": ({"pos": pos}, lambda: ((pos ** 1.7) * Tensor(r[(3, 4)])).sum()),
        "matmul": ({"m1": m1, "m2": m2},
                   lambda: ((m1 @ m2) * Tensor(r[(3, 2)])).sum()),
        "reshape_transpose": (
            {"batch": batch},
            lambda: (batch.reshape(2, 12).transpose(1, 0).reshape(2, 3, 4)
                     * Tensor(r[(2, 3, 4)])).sum()),
        "getitem": ({"batch": batch},
                    lambda: (batch[:, 1] * Tensor(r[(3, 4)][:2, :4])).sum()),
        "sum_axis": ({"a": a}, lambda: (a.sum(axis=1) * Tensor(r[(3, 2)][:, 0])).sum()),
        "mean": ({"a": a}, lambda: (a.mean(axis=0) * Tensor(r[(3, 4)][0])).sum()),
        "exp": ({"a": a}, lambda: (a.exp() * Tensor(r[(3, 4)])).sum()),
        "log": ({"pos": pos}, lambda: (pos.log() * Tensor(r[(3, 4)])).sum()),
        "sqrt": ({"pos": pos}, lambda: (pos.sqrt() * Tensor(r[(3, 4)])).sum()),
        "tanh": ({"a": a}, lambda: (a.tanh() * Tensor(r[(3, 4)])).sum()),
        "gelu": ({"a": a}, lambda: (gelu(a) * Tensor(r[(3, 4)])).sum()),
        "softmax": ({"a": a}, lambda: (softmax(a) * Tensor(r[(3, 4)])).sum()),
        "concat": ({"a": a, "b": b},
                   lambda: (concat([a, b], axis=0) * Tensor(
                       np.concatenate([r[(3, 4)], -r[(3, 4)]], axis=0))).sum()),
        "layer_norm": ({"a": a, "gain": gain, "bias": bias},
                       lambda: (layer_norm(a, gain, bias)
                                * Tensor(r[(3, 4)])).sum()),
        "attention": ({"q": q, "k": k, "v": v},
                      lambda: (scaled_dot_attention(q, k, v, 0.5)
                               * Tensor(r[(2, 3, 4)])).sum()),
        "take_rows": ({"table": table},
                      lambda: (take_rows(table, idx)
                               * Tensor(r[(6, 4)][:3])).sum()),
    }
    return cases


def test_criterion_1_gradient_integrity():
    t0 = time.time()
    worst_op = 0.0
    for name, (params, loss_fn) in _op_sweep_cases().items():
        report = finite_diff_check(loss_fn, params, h=1e-5, tol=1e-4,
                                   max_probes=16,
                                   rng=np.random.default_rng(7))
        assert report.passed, f"op {name}:\n{report.summary()}"
        worst_op = max(worst_op, report.worst.rel_err)

    # full toy-configuration model, end to end
    from gesturesynth.model import randomize_parameters

    model = GestureDenoiser(toy_config(), stream(3, "init"))
    randomize_parameters(model, stream(24, "rand"), scale=0.1)
    rng = np.random.default_rng(25)
    x = rng.normal(size=(1, 5, model.config.n_joints, 3))
    audio = rng.normal(size=(1, 5, model.config.d_audio_raw))
    cond = Condition(audio=audio, emotion_label=1, speaker=1)
    r_eps = rng.normal(size=x.shape)
    r_log = rng.normal(size=(1, model.config.n_emotions))

    def loss():
        eps, logits, _ = model.forward(x, 4, cond)
        return (eps * Tensor(r_eps)).sum() + (logits * Tensor(r_log)).sum()

    report = finite_diff_check(loss, model.params(), h=1e-4, tol=1e-3,
                               max_probes=3, rng=np.random.default_rng(27))
    minutes = (time.time() - t0) / 60.0
    ok = report.passed and minutes < 5.0
    _report(1, ok,
            f"per-op worst rel-err {worst_op:.2e} (tol 1e-4), end-to-end "
            f"worst {report.worst.rel_err:.2e} (tol 1e-3), {minutes:.2f} min")


# ---------------------------------------------------------------------------
# 2. diffusion algebra
# ---------------------------------------------------------------------------


class _ZeroNoise:
    """Stand-in rng that disables injected noise in the reverse chain."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_criterion_2_diffusion_algebra():
    schedule = make_schedule()  # default schedule: T=1000, linear 1e-4 -> 0.02
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(4, 3))
    eps = rng.normal(size=(4, 3))
    worst = 0.0
    for t in range(1, schedule.n_steps + 1):
        x_t = q_sample(x0, t, eps, schedule)
        rec = predict_x0(x_t, eps, t, schedule)
        worst = max(worst, float(np.max(np.abs(rec - x0))))
    identity_ok = worst < 1e-9

    abar_final = float(schedule.alpha_bar[-1])
    tail_ok = abar_final < 1e-4

    def oracle(x_t, t, cond):
        abar = schedule.alpha_bar_at(t)
        return (x_t - np.sqrt(abar) * x0) / np.sqrt(1.0 - abar)

    x = rng.normal(size=x0.shape)  # arbitrary start
    zero = _ZeroNoise()
    for t in range(schedule.n_steps, 0, -1):
        x = reverse_step(x, t, oracle(x, t, None), schedule, zero)
    chain_err = float(np.max(np.abs(x - x0)))
    chain_ok = chain_err < 1e-6

    ok = identity_ok and tail_ok and chain_ok
    _report(2, ok,
            f"predict_x0∘q_sample max err {worst:.2e} (<1e-9), "
            f"final alpha-bar {abar_final:.2e} (<1e-4), "
            f"noise-free oracle chain err {chain_err:.2e} (<1e-6)")


# ---------------------------------------------------------------------------
# 3. metric oracles
# ---------------------------------------------------------------------------


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(9)

    x = rng.normal(size=(400, 8))
    self_fgd = fgd(x, x)
    self_ok = self_fgd < 1e-6

    k, shift = 4, 1.5
    a = rng.normal(size=(10_000, k))
    b = rng.normal(size=(10_000, k)) + shift
    est = fgd(a, b)
    analytic = k * shift**2
    gauss_err = abs(est - analytic) / analytic
    gauss_ok = gauss_err < 0.02

    beats = np.array([0.0, 10.0, 20.0])
    ba_self = beat_align(beats, beats)
    ba_self_ok = ba_self == 1.0
    ba_off = beat_align(beats + 0.3, beats)
    ba_off_ok = abs(ba_off - np.exp(-0.5)) < 1e-9

    # brute-force SRGR referee on instances with N*J <= 500
    def brute(real, gen, weights, delta):
        n, j = real.shape[:2]
        w = np.ones(n) if weights is None else np.asarray(weights, float)
        w = w / w.mean()
        total = 0.0
        for f in range(n):
            for joint in range(j):
                d = np.linalg.norm(real[f, joint] - gen[f, joint])
                if d <= delta:
                    total += w[f]
        return total / (n * j)

    srgr_ok = True
    worst_srgr = 0.0
    for case, (n, j, weighted) in enumerate(
            [(25, 20, False), (100, 5, True), (41, 12, True), (10, 50, False)]):
        crng = np.random.default_rng(50 + case)
        real = crng.normal(size=(n, j, 3))
        gen = real + crng.normal(scale=0.2, size=(n, j, 3))
        weights = np.abs(crng.normal(size=n)) + 0.1 if weighted else None
        mine = srgr(GestureSequence(real, fps=15.0, skeleton=generic_skeleton(j)),
                    GestureSequence(gen, fps=15.0, skeleton=generic_skeleton(j)),
                    weights=weights, delta=0.2)
        ref = brute(real, gen, weights, 0.2)
        err = abs(mine - ref)
        worst_srgr = max(worst_srgr, err)
        if weighted:
            srgr_ok = srgr_ok and err < 1e-12
        else:
            srgr_ok = srgr_ok and mine == ref  # integer-valued sums: exact

    ok = self_ok and gauss_ok and ba_self_ok and ba_off_ok and srgr_ok
    _report(3, ok,
            f"FGD(X,X)={self_fgd:.2e} (<1e-6), shifted-Gaussian err "
            f"{gauss_err * 100:.2f}% (<2%), BeatAlign(B,B)={ba_self}, "
            f"offset case err {abs(ba_off - np.exp(-0.5)):.1e} (<1e-9), "
            f"SRGR vs brute force worst {worst_srgr:.1e}")


# ---------------------------------------------------------------------------
# 4. training smoke
# ---------------------------------------------------------------------------


def test_criterion_4_training_smoke(trained, accept_splits):
    model, result, minutes = trained
    mse = [row["L_mse"] for row in result.rows]
    sm = smoothed(mse, 101)
    ratio = sm[-1] / sm[0]
    loss_ok = ratio <= 0.7

    correct = 0
    for s in accept_splits.val:
        correct += int(predict_emotion(model, s.audio.features) == s.emotion)
    acc = correct / len(accept_splits.val)
    acc_ok = acc >= 0.9

    time_ok = minutes <= 30.0
    ok = loss_ok and acc_ok and time_ok
    _report(4, ok,
            f"smoothed L_mse {sm[0]:.3f} -> {sm[-1]:.3f} (ratio {ratio:.2f}, "
            f"≤0.7), emotion-classifier val accuracy {acc:.2f} (≥0.9), "
            f"wall {minutes:.1f} min (≤30)")


# ---------------------------------------------------------------------------
# 5. editing invariants
# ---------------------------------------------------------------------------


def test_criterion_5_editing_invariants(trained, accept_splits, accept_schedule):
    model, result, _ = trained
    ref = accept_splits.test[0].motion
    audio = accept_splits.test[0].audio.features

    edited = edit_motion(model, ref, "joint_1,joint_3", audio, accept_schedule,
                         stats=result.stats, master_seed=21)
    kept = [j for j in range(ACCEPT_MODEL.n_joints) if j not in (1, 3)]
    preserved_ok = np.array_equal(edited.frames[:, kept], ref.frames[:, kept])
    changed = np.any(edited.frames[:, [1, 3]] != ref.frames[:, [1, 3]],
                     axis=(1, 2))
    altered = float(changed.mean())
    altered_ok = altered >= 0.95

    seed = ref.frames[:4]
    cont = generate_motion(model, audio, accept_schedule, stats=result.stats,
                           sample_cfg=SAMPLE_CFG, emotion=0, seed_pose=seed,
                           master_seed=22)
    seed_err = float(np.max(np.abs(cont.frames[:4] - seed)))
    seed_ok = seed_err < 1e-6

    ok = preserved_ok and altered_ok and seed_ok
    _report(5, ok,
            f"unmasked joints bit-exact: {preserved_ok}, masked altered in "
            f"{altered * 100:.1f}% of frames (≥95%), seed-pose max err "
            f"{seed_err:.1e} (<1e-6)")


# ---------------------------------------------------------------------------
# 6. emotion conditioning efficacy
# ---------------------------------------------------------------------------


def test_criterion_6_emotion_transfer(trained, classifier, accept_splits,
                                      accept_schedule):
    model, result, _ = trained
    audio = accept_splits.val[0].audio.features
    res = emotion_transfer_eval(
        model, classifier, audio, accept_schedule, stats=result.stats,
        sample_cfg=SAMPLE_CFG, clips_per_emotion=20, master_seed=2,
    )
    ok = res.accuracy >= 0.60
    _report(6, ok,
            f"transfer accuracy {res.accuracy:.3f} (≥0.60, chance 0.125, "
            f"20 clips x 8 emotions from one audio)")
    print(res.summary())


# ---------------------------------------------------------------------------
# 7. conditioning-mode comparison
# ---------------------------------------------------------------------------


def _short_run_config():
    return RunConfig(
        model=ACCEPT_MODEL,
        schedule=ScheduleConfig(n_steps=200, beta_end=0.05),
        corpus=ACCEPT_CORPUS,
        training=TrainConfig(batch_size=16, n_steps=200, lr=3e-4, seed=1),
        extractor=ExtractorConfig(clip_length=34, n_steps=400, seed=5),
        evaluation=EvalConfig(repeats=1),
        sample=SAMPLE_CFG,
        master_seed=11,
    ).validate_cross_links()


def test_criterion_7_conditioning_modes(accept_splits, accept_extractor):
    run_cfg = _short_run_config()
    table = compare_conditioning_modes(
        run_cfg, accept_splits,
        modes=("adaln", "in_context_token", "cross_attention"),
        extractor=accept_extractor, eval_samples=accept_splits.val[:8],
    )
    ok = (set(table) == {"adaln", "in_context_token", "cross_attention"}
          and all(np.isfinite(row["fgd"]) for row in table.values()))
    _report(7, ok, "three conditioning modes trained under identical seeds; "
                   "FGD per mode: "
            + ", ".join(f"{m}={table[m]['fgd']:.2f}" for m in table))
    print(format_comparison(table, "conditioning-mode comparison"))


# ---------------------------------------------------------------------------
# 8. ablation harness
# ---------------------------------------------------------------------------


def test_criterion_8_ablation_grid(accept_splits, accept_extractor):
    run_cfg = _short_run_config()
    table = ablation_grid(
        run_cfg, accept_splits, extractor=accept_extractor,
        eval_samples=accept_splits.val[:8],
    )
    ok = (set(table) == {"full", "no_rec", "no_spatial", "no_emotion"}
          and all(np.isfinite(row["fgd"]) and np.isfinite(row["srgr"])
                  for row in table.values()))
    _report(8, ok, "four flag combinations trained to completion; FGD/SRGR: "
            + ", ".join(f"{v}=({table[v]['fgd']:.2f}, {table[v]['srgr']:.2f})"
                        for v in table))
    print(format_comparison(table, "ablation grid"))


# ---------------------------------------------------------------------------
# 9. command determinism
# ---------------------------------------------------------------------------


def test_criterion_9_command_determinism(tmp_path):
    cfg = toy_run_config(
        schedule=ScheduleConfig(n_steps=8, beta_end=0.05),
        training=TrainConfig(batch_size=2, n_steps=3, lr=1e-2, seed=0),
        evaluation=EvalConfig(repeats=1),
        extractor=ExtractorConfig(clip_length=34, n_steps=40, seed=2),
    )
    cfg_path = tmp_path / "run.json"
    save_run_config(cfg, cfg_path)

    def run_all(tag):
        root = tmp_path / tag
        corpus, run = root / "corpus", root / "run"
        assert main(["gen-data", "--out", str(corpus), "--config",
                     str(cfg_path), "--samples", "160"]) == 0
        assert main(["train", "--corpus", str(corpus), "--out", str(run),
                     "--config", str(cfg_path)]) == 0
        audio = sorted(corpus.glob("*.audio"))[0]
        motion = audio.with_suffix(".motion")
        ckpt = run / "checkpoint_final.ckpt"
        assert main(["sample", "--checkpoint", str(ckpt), "--audio",
                     str(audio), "--out", str(root / "gen.motion"),
                     "--config", str(cfg_path), "--emotion", "1",
                     "--seed", "3"]) == 0
        assert main(["edit", "--checkpoint", str(ckpt), "--reference",
                     str(motion), "--mask", "joint_1", "--audio", str(audio),
                     "--out", str(root / "edit.motion"), "--config",
                     str(cfg_path), "--seed", "4"]) == 0
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus",
                     str(corpus), "--config", str(cfg_path), "--repeats", "1",
                     "--seed", "0", "--out", str(root / "report.csv")]) == 0
        assert main(["export", "--format", "csv", "--motion", str(motion),
                     "--out", str(root / "motion.csv")]) == 0
        assert main(["export", "--format", "svg-frames", "--motion",
                     str(motion), "--out", str(root / "figs"),
                     "--frames", "3"]) == 0
        assert main(["export", "--format", "latents", "--motion", str(motion),
                     "--out", str(root / "latents.csv"), "--corpus",
                     str(corpus), "--config", str(cfg_path)]) == 0
        outputs = {}
        for rel in ["corpus/manifest.json", audio.name and f"corpus/{audio.name}",
                    f"corpus/{motion.name}", "run/checkpoint_final.ckpt",
                    "run/loss_log.csv", "run/val_metrics.json", "gen.motion",
                    "edit.motion", "report.csv", "motion.csv", "latents.csv"]:
            outputs[rel] = (root / rel).read_bytes()
        for svg in sorted((root / "figs").glob("*.svg")):
            outputs[f"figs/{svg.name}"] = svg.read_bytes()
        return outputs

    first = run_all("a")
    second = run_all("b")
    mismatched = [k for k in first if first[k] != second.get(k)]
    ok = not mismatched and len(first) == len(second) and len(first) >= 14
    _report(9, ok,
            f"{len(first)} output files from gen-data/train/sample/edit/eval/"
            f"export byte-identical across reruns"
            + (f"; MISMATCH: {mismatched}" if mismatched else ""))
