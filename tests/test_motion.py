import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturesynth.errors import ConfigError, DimensionError, ParseError
from gesturesynth.motion import (
    AudioFeatureSequence,
    DatasetStats,
    GestureSequence,
    default_skeleton,
    denormalize,
    export_motion_csv,
    generic_skeleton,
    joint_group_mask,
    load_audio,
    load_motion,
    normalize,
    random_proportional_mask,
    save_audio,
    save_motion,
    skeleton_for,
    stitch,
    window,
    window_starts,
)


def make_seq(n=10, j=None, seed=0, fps=15.0):
    skel = default_skeleton()
    j = j or skel.joint_count
    rng = np.random.default_rng(seed)
    return GestureSequence(rng.normal(scale=0.5, size=(n, j, 3)), fps=fps, skeleton=skel)


def corruptions(data):
    """`data` cut at any offset, or with any one byte overwritten.

    Half the offsets fall in the header and half in the data.  Written bytes
    favour the header's separators and digits and 0x7F/0xFF: a float64 in
    [1, 2) turns infinite or NaN when its top byte becomes one of those two.
    """
    header = data.index(b"end_header\n") + len(b"end_header\n")
    at = st.one_of(st.integers(0, header), st.integers(header, len(data) - 1))
    cut = at.map(lambda i: data[:i])
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b"\x00\n -09\x7f\xff"))
    poke = st.tuples(at, byte).map(
        lambda p: data[: p[0]] + bytes([p[1]]) + data[p[0] + 1 :])
    return st.one_of(cut, poke)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestSkeleton:
    def test_default_counts(self):
        skel = default_skeleton()
        assert skel.joint_count == 47
        body = joint_group_mask(skel, "body")
        left = joint_group_mask(skel, "left_hand")
        right = joint_group_mask(skel, "right_hand")
        assert body.sum() == 9
        assert left.sum() == 19
        assert right.sum() == 19
        assert joint_group_mask(skel, "hands").sum() == 38

    def test_groups_partition(self):
        skel = default_skeleton()
        body = joint_group_mask(skel, "body")
        hands = joint_group_mask(skel, "hands")
        assert not np.any(body & hands)
        assert np.all(body | hands)
        assert not joint_group_mask(skel, "none").any()
        assert joint_group_mask(skel, "all").all()

    def test_parents_form_forest(self):
        skel = default_skeleton()
        assert skel.parent_index[0] == -1
        for i, p in enumerate(skel.parent_index):
            assert p == -1 or 0 <= p < i

    def test_unknown_group_rejected(self):
        with pytest.raises(ConfigError, match="unknown joint group"):
            joint_group_mask(default_skeleton(), "feet")

    def test_skeleton_for_joint_count(self):
        assert skeleton_for(47) == default_skeleton()
        assert skeleton_for(6) == generic_skeleton(6)

    def test_duplicate_names_rejected(self):
        from gesturesynth.motion import SkeletonSpec

        with pytest.raises(ConfigError, match="unique"):
            SkeletonSpec(("a", "a"), (-1, 0))


class TestSequences:
    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            GestureSequence(np.zeros((0, 47, 3)))

    def test_nonfinite_rejected(self):
        frames = np.zeros((2, 47, 3))
        frames[1, 0, 0] = np.nan
        with pytest.raises(DimensionError):
            GestureSequence(frames)

    def test_joint_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            GestureSequence(np.zeros((2, 46, 3)))

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -0.0, -15.0])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="frame rate"):
            GestureSequence(np.zeros((2, 47, 3)), fps=rate)
        with pytest.raises(ConfigError, match="frame rate"):
            AudioFeatureSequence(np.zeros((2, 4)), source_rate_hz=rate)


class TestContainerIO:
    def test_motion_roundtrip(self, tmp_path):
        seq = make_seq(n=7, fps=15.0)
        p = tmp_path / "clip.motion"
        save_motion(seq, p)
        back = load_motion(p)
        np.testing.assert_array_equal(back.frames, seq.frames)
        assert back.fps == seq.fps
        assert back.skeleton == seq.skeleton

    def test_roundtrip_is_byte_stable(self, tmp_path):
        seq = make_seq(n=5)
        p1, p2 = tmp_path / "a.motion", tmp_path / "b.motion"
        save_motion(seq, p1)
        save_motion(load_motion(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_audio_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        seq = AudioFeatureSequence(rng.normal(size=(9, 128)), source_rate_hz=16000.0)
        p = tmp_path / "feat.audio"
        save_audio(seq, p)
        back = load_audio(p)
        np.testing.assert_array_equal(back.features, seq.features)
        assert back.source_rate_hz == 16000.0

    def test_truncated_blob_reports_offset(self, tmp_path):
        seq = make_seq(n=4)
        p = tmp_path / "clip.motion"
        save_motion(seq, p)
        data = p.read_bytes()
        p.write_bytes(data[:-8])  # drop one value: J=47 header over short data
        with pytest.raises(ParseError) as err:
            load_motion(p)
        assert err.value.offset == data.find(b"end_header") + len(b"end_header\n")

    @pytest.mark.parametrize("fps", [b"nan", b"inf", b"0.0", b"-0.0", b"-15.0"])
    def test_bad_fps_reports_file(self, tmp_path, fps):
        p = tmp_path / "rate.motion"
        save_motion(make_seq(n=2), p)
        p.write_bytes(p.read_bytes().replace(b"fps 15.0", b"fps " + fps))
        with pytest.raises(ParseError, match="rate.motion.*frame rate"):
            load_motion(p)

    @pytest.mark.parametrize("rate", [b"nan", b"-inf", b"0.0", b"-0.0", b"-15.0"])
    def test_bad_audio_rate_reports_file(self, tmp_path, rate):
        p = tmp_path / "rate.audio"
        save_audio(AudioFeatureSequence(np.ones((3, 4))), p)
        p.write_bytes(p.read_bytes().replace(b"rate 15.0", b"rate " + rate))
        with pytest.raises(ParseError, match="rate.audio.*frame rate"):
            load_audio(p)

    def test_nonfinite_motion_blob_reports_file(self, tmp_path):
        p = tmp_path / "nan.motion"
        save_motion(make_seq(n=2), p)
        p.write_bytes(p.read_bytes()[:-8] + np.array([np.nan]).astype("<f8").tobytes())
        with pytest.raises(ParseError, match="nan.motion.*non-finite"):
            load_motion(p)

    def test_nonfinite_audio_blob_reports_file(self, tmp_path):
        p = tmp_path / "inf.audio"
        save_audio(AudioFeatureSequence(np.ones((3, 4))), p)
        p.write_bytes(p.read_bytes()[:-8] + np.array([np.inf]).astype("<f8").tobytes())
        with pytest.raises(ParseError, match="inf.audio.*non-finite"):
            load_audio(p)

    def test_zero_frame_audio_reports_file(self, tmp_path):
        p = tmp_path / "empty.audio"
        p.write_bytes(b"GSYNAUD v1\nframes 0 channels 4 rate 15.0\n"
                      b"data float64 le 0\nend_header\n")
        with pytest.raises(ParseError, match="empty.audio.*frame count"):
            load_audio(p)

    @given(data=st.data())
    @settings(derandomize=True, max_examples=1000, deadline=None)
    def test_corrupt_motion_loads_or_parse_error(self, fuzz_dir, data):
        p = fuzz_dir / "clip.motion"
        save_motion(GestureSequence(np.full((2, 3, 3), 1.5), skeleton=generic_skeleton(3)), p)
        p.write_bytes(data.draw(corruptions(p.read_bytes())))
        try:
            load_motion(p)
        except ParseError:
            pass

    @given(data=st.data())
    @settings(derandomize=True, max_examples=1000, deadline=None)
    def test_corrupt_audio_loads_or_parse_error(self, fuzz_dir, data):
        p = fuzz_dir / "feat.audio"
        save_audio(AudioFeatureSequence(np.full((4, 6), 1.5)), p)
        p.write_bytes(data.draw(corruptions(p.read_bytes())))
        try:
            load_audio(p)
        except ParseError:
            pass

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.motion"
        p.write_bytes(b"NOTAMOTION v1\nend_header\n")
        with pytest.raises(ParseError) as err:
            load_motion(p)
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        seq = make_seq(n=2)
        p = tmp_path / "x.motion"
        save_motion(seq, p)
        p.write_bytes(p.read_bytes().replace(b"GSYNMOT v1", b"GSYNMOT v9"))
        with pytest.raises(ParseError, match="version"):
            load_motion(p)

    def test_name_count_mismatch(self, tmp_path):
        seq = make_seq(n=2)
        p = tmp_path / "x.motion"
        save_motion(seq, p)
        data = p.read_bytes().replace(b"names spine", b"names extra spine")
        p.write_bytes(data)
        with pytest.raises(ParseError, match="names"):
            load_motion(p)

    def test_csv_export(self, tmp_path):
        seq = make_seq(n=3)
        p = tmp_path / "clip.csv"
        export_motion_csv(seq, p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 frames
        header = lines[0].split(",")
        assert header[0] == "frame"
        assert header[1] == "spine_x"
        assert len(header) == 1 + 47 * 3
        row1 = [float(v) for v in lines[1].split(",")[1:]]
        np.testing.assert_array_equal(row1, seq.channels()[0])


class TestWindowing:
    def test_exact_fit_single_clip(self):
        clips = window(make_seq(n=34), n_clip=34, stride=10)
        assert len(clips) == 1
        assert clips[0].n_frames == 34

    def test_length_54_gives_three_clips(self):
        # floor((54 - 34) / 10) + 1 = 3 clips at offsets 0, 10, 20
        seq = make_seq(n=54)
        clips = window(seq, n_clip=34, stride=10)
        assert len(clips) == 3
        assert window_starts(54, 34, 10) == [0, 10, 20]
        for start, clip in zip([0, 10, 20], clips):
            np.testing.assert_array_equal(clip.frames, seq.frames[start : start + 34])

    def test_too_short_warns_and_returns_empty(self):
        with pytest.warns(UserWarning, match="shorter"):
            assert window(make_seq(n=33), n_clip=34, stride=10) == []

    @pytest.mark.parametrize("n_clip, stride", [(34, 0), (34, -10), (0, 10)])
    def test_window_starts_rejects_non_positive_sizes(self, n_clip, stride):
        # checked before the length, so a short sequence is no way round it
        for length in (54, 10):
            with pytest.raises(ConfigError, match="must be positive"):
                window_starts(length, n_clip, stride)

    def test_offsets_reconstruct_original_indices(self):
        seq = make_seq(n=74)
        clips = window(seq, n_clip=34, stride=10)
        for start, clip in zip(window_starts(74, 34, 10), clips):
            np.testing.assert_array_equal(clip.frames, seq.frames[start : start + 34])


class TestStitch:
    def test_single_clip_unchanged(self):
        seq = make_seq(n=12)
        out = stitch([seq], overlap=4)
        np.testing.assert_array_equal(out.frames, seq.frames)

    def test_constant_clips_stay_constant(self):
        skel = default_skeleton()
        a = GestureSequence(np.full((10, 47, 3), 0.7), skeleton=skel)
        b = GestureSequence(np.full((10, 47, 3), 0.7), skeleton=skel)
        out = stitch([a, b], overlap=4)
        assert out.n_frames == 16
        np.testing.assert_allclose(out.frames, 0.7, atol=1e-15)

    def test_single_clip_shorter_than_overlap_is_copied(self):
        seq = make_seq(n=3)
        out = stitch([seq], overlap=4)
        np.testing.assert_array_equal(out.frames, seq.frames)
        assert out.frames is not seq.frames

    def test_overlap_frames_come_from_the_earlier_clip(self):
        skel = default_skeleton()
        a = GestureSequence(np.zeros((8, 47, 3)), skeleton=skel)
        b = GestureSequence(np.ones((8, 47, 3)), skeleton=skel)
        out = stitch([a, b], overlap=4)
        assert out.n_frames == 12
        np.testing.assert_array_equal(out.frames[:8], a.frames)
        np.testing.assert_array_equal(out.frames[8:], b.frames[4:])

    def test_output_length(self):
        clips = [make_seq(n=34, seed=s) for s in range(3)]
        out = stitch(clips, overlap=4)
        assert out.n_frames == 34 * 3 - 4 * 2

    def test_overlap_too_large_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            stitch([make_seq(n=4), make_seq(n=4)], overlap=4)

    def test_seam_discontinuity_bounded(self):
        # consecutive clips that genuinely share their overlap: seam deltas stay
        # within the source clips' own frame-to-frame deltas
        seq = make_seq(n=40, seed=3)
        a = seq.with_frames(seq.frames[:22])
        b = seq.with_frames(seq.frames[18:])
        out = stitch([a, b], overlap=4)
        np.testing.assert_allclose(out.frames, seq.frames, atol=1e-12)


class TestNormalization:
    def test_mean_maps_to_zero(self):
        stats = DatasetStats(mean=np.arange(6.0), std=np.ones(6))
        x = np.tile(np.arange(6.0), (4, 1))
        np.testing.assert_allclose(normalize(x, stats), 0.0, atol=1e-15)

    def test_roundtrip_within_1e12(self):
        rng = np.random.default_rng(2)
        stats = DatasetStats(mean=rng.normal(size=141), std=rng.uniform(0.5, 2, 141))
        seq = make_seq(n=6)
        back = denormalize(normalize(seq, stats), stats)
        np.testing.assert_allclose(back.frames, seq.frames, atol=1e-12)

    def test_fit_then_normalize_gives_unit_stats(self):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(loc=2.0, scale=3.0, size=(50, 12)) for _ in range(5)]
        stats = DatasetStats.compute(arrays)
        normed = np.concatenate([normalize(a, stats) for a in arrays], axis=0)
        np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(normed.std(axis=0), 1.0, atol=1e-10)

    def test_std_floor_applied(self):
        stats = DatasetStats(mean=np.zeros(3), std=np.array([1.0, 0.0, 1e-9]))
        assert stats.std[1] == 1e-6
        assert stats.std[2] == 1e-6

    def test_channel_mismatch_rejected(self):
        stats = DatasetStats(mean=np.zeros(5), std=np.ones(5))
        with pytest.raises(DimensionError, match="channels"):
            normalize(np.zeros((3, 4)), stats)

    def test_stats_dict_roundtrip(self):
        stats = DatasetStats(mean=np.array([1.0, 2.0]), std=np.array([3.0, 4.0]))
        back = DatasetStats.from_dict(stats.to_dict())
        np.testing.assert_array_equal(back.mean, stats.mean)
        np.testing.assert_array_equal(back.std, stats.std)


class TestMasks:
    def test_ratio_zero_masks_nothing(self):
        rng = np.random.default_rng(0)
        mask = random_proportional_mask(34, (0.0, 0.0), rng)
        assert mask.sum() == 0

    def test_half_of_34_is_17(self):
        rng = np.random.default_rng(0)
        mask = random_proportional_mask(34, (0.5, 0.5), rng)
        assert mask.sum() == 17

    def test_suffix_mode_contiguous_tail(self):
        rng = np.random.default_rng(0)
        mask = random_proportional_mask(10, (0.3, 0.3), rng, mode="suffix")
        np.testing.assert_array_equal(np.nonzero(mask)[0], [7, 8, 9])

    def test_scatter_mode_count(self):
        rng = np.random.default_rng(1)
        mask = random_proportional_mask(20, (0.25, 0.25), rng, mode="scatter")
        assert mask.sum() == 5

    def test_same_seed_same_mask(self):
        a = random_proportional_mask(34, (0.1, 0.6), np.random.default_rng(7), "scatter")
        b = random_proportional_mask(34, (0.1, 0.6), np.random.default_rng(7), "scatter")
        np.testing.assert_array_equal(a, b)

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            random_proportional_mask(10, (0.2, 1.0), np.random.default_rng(0))
