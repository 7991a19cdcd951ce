"""Scenario generation, rendering determinism, crops, and the format reader."""

import dataclasses
import json
import os

import numpy as np
import pytest

from vltrack import synthdata as sd
from vltrack.config import Config
from vltrack.errors import ConfigurationError, ContractError, ParseError
from vltrack.head import BBox
from vltrack.synthdata import (
    Scenario,
    build_tracks,
    crop_and_resize,
    generate,
    sample_pair,
    sample_swap_pair,
    sequence_hash,
    swap_color,
    swap_partners,
)


@pytest.fixture(scope="module")
def twin_seq(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "seq_twin"
    scenario = Scenario(seed=11, shape="square", color="green", motion="zigzag", distractor_count=2, twin=True, num_frames=10)
    generate(scenario, out)
    return scenario, sd.read_lasot_format(out), out


class TestScenario:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(seed=0, shape="hexagon")
        with pytest.raises(ConfigurationError):
            Scenario(seed=0, distractor_count=9)
        with pytest.raises(ConfigurationError):
            Scenario(seed=0, twin=True, distractor_count=0)

    def test_prompt_grammar(self):
        s = Scenario(seed=0, shape="circle", color="red", motion="left")
        assert s.prompt == "red circle moving left"
        assert s.class_word == "circle"


class TestGenerate:
    def test_same_seed_is_byte_identical(self, tmp_path):
        scenario = Scenario(seed=3, distractor_count=1, twin=True, num_frames=6)
        generate(scenario, tmp_path / "a")
        generate(scenario, tmp_path / "b")
        assert sequence_hash(tmp_path / "a") == sequence_hash(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        generate(Scenario(seed=4, num_frames=6), tmp_path / "a")
        generate(Scenario(seed=5, num_frames=6), tmp_path / "b")
        assert sequence_hash(tmp_path / "a") != sequence_hash(tmp_path / "b")

    def test_moving_right_has_strictly_increasing_cx(self, tmp_path):
        generate(
            Scenario(seed=6, shape="circle", color="red", motion="right", distractor_count=0, num_frames=20),
            tmp_path / "seq",
        )
        record = sd.read_lasot_format(tmp_path / "seq")
        xs = [b.cx for b in record.boxes]
        assert len(xs) == 20
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_twins_share_shape_mask_but_not_color(self, twin_seq):
        scenario, record, _ = twin_seq
        target = next(o for o in record.objects if o.role == "target")
        twin = next(o for o in record.objects if o.role == "twin")
        assert twin.shape == target.shape
        assert twin.color != target.color
        t_box = target.boxes[0]
        w_box = twin.boxes[0]
        assert (t_box[2], t_box[3]) == (w_box[2], w_box[3])  # identical mask size
        frame = record.frame(0)
        assert frame.dtype == np.uint8
        assert np.any(np.all(frame == sd.PALETTE[target.color], axis=-1))
        assert np.any(np.all(frame == sd.PALETTE[twin.color], axis=-1))
        # the in-memory record holds the same uint8 frames the files store
        memory = sd.memory_record(scenario)
        assert all(f.dtype == np.uint8 for f in memory._frames.values())
        np.testing.assert_array_equal(memory.frame(0), frame)

    def test_boxes_min_size_and_inside_canvas(self, twin_seq):
        _, record, _ = twin_seq
        for b in record.boxes:
            assert b.w >= 4.0 and b.h >= 4.0
            x1, y1, x2, y2 = b.to_xyxy()
            assert x1 >= 0 and y1 >= 0 and x2 <= 128 and y2 <= 128

    def test_sentence_prompt_disambiguates_twins(self, twin_seq):
        _, record, _ = twin_seq
        target = next(o for o in record.objects if o.role == "target")
        twin = next(o for o in record.objects if o.role == "twin")
        assert target.color in record.prompt
        assert twin.color not in record.prompt

    def test_layout_files(self, twin_seq):
        _, record, out = twin_seq
        assert os.path.isfile(out / "groundtruth.txt")
        assert os.path.isfile(out / "nlp.txt")
        assert os.path.isfile(out / "meta.json")
        assert sorted(os.listdir(out / "img"))[0] == "000000.ppm"
        meta = json.loads((out / "meta.json").read_text())
        assert meta["class_word"] == "square"

    def test_target_at_least_half_inside_every_frame(self):
        for seed in range(4):
            for motion in sd.MOTIONS:
                scenario = Scenario(seed=seed, motion=motion, num_frames=30)
                tracks = build_tracks(scenario)
                for cx, cy, w, h in tracks[0].boxes:
                    assert 0 <= cx <= scenario.canvas and 0 <= cy <= scenario.canvas


class TestPPM:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (16, 20, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        sd.write_ppm(path, img)
        np.testing.assert_array_equal(sd.read_ppm(path), img)

    def test_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"JFIF nonsense")
        with pytest.raises(ParseError):
            sd.read_ppm(path)


class TestReader:
    def test_corner_to_center_arithmetic(self, tmp_path):
        seq = tmp_path / "seq"
        (seq / "img").mkdir(parents=True)
        sd.write_ppm(seq / "img" / "000000.ppm", np.zeros((64, 64, 3), dtype=np.uint8))
        (seq / "groundtruth.txt").write_text("10,20,30,40\n")
        (seq / "nlp.txt").write_text("a prompt\n")
        record = sd.read_lasot_format(seq)
        b = record.boxes[0]
        assert (b.cx, b.cy, b.w, b.h) == (25.0, 40.0, 30.0, 40.0)
        assert record.prompt == "a prompt"

    def test_empty_groundtruth_is_parse_error(self, tmp_path):
        seq = tmp_path / "seq"
        (seq / "img").mkdir(parents=True)
        sd.write_ppm(seq / "img" / "000000.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        (seq / "groundtruth.txt").write_text("")
        with pytest.raises(ParseError):
            sd.read_lasot_format(seq)

    def test_malformed_line_names_line_number(self, tmp_path):
        seq = tmp_path / "seq"
        (seq / "img").mkdir(parents=True)
        for i in range(2):
            sd.write_ppm(seq / "img" / f"{i:06d}.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        (seq / "groundtruth.txt").write_text("1,2,3,4\n5,6,seven\n")
        with pytest.raises(ParseError) as err:
            sd.read_lasot_format(seq)
        assert err.value.line == 2

    @pytest.mark.parametrize("row", ["nan,nan,nan,nan", "1,2,inf,4"])
    def test_non_finite_line_names_line_number(self, tmp_path, row):
        seq = tmp_path / "seq"
        (seq / "img").mkdir(parents=True)
        for i in range(2):
            sd.write_ppm(seq / "img" / f"{i:06d}.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        (seq / "groundtruth.txt").write_text(f"1,2,3,4\n{row}\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            sd.read_lasot_format(seq)
        assert err.value.line == 2

    def test_missing_nlp_warns_and_degrades(self, tmp_path):
        seq = tmp_path / "seq"
        (seq / "img").mkdir(parents=True)
        sd.write_ppm(seq / "img" / "000000.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        (seq / "groundtruth.txt").write_text("1,1,4,4\n")
        with pytest.warns(UserWarning):
            record = sd.read_lasot_format(seq)
        assert record.prompt == ""

    def test_roundtrips_generated_sequence(self, twin_seq):
        scenario, again, _ = twin_seq
        record = sd.memory_record(scenario)
        assert len(again) == len(record)
        assert again.prompt == record.prompt
        assert again.class_word == record.class_word
        for a, b in zip(again.boxes, record.boxes):
            assert abs(a.cx - b.cx) < 1e-6 and abs(a.w - b.w) < 1e-6
        assert [o.role for o in again.objects] == [o.role for o in record.objects]


class TestCrop:
    def test_zero_jitter_centers_gt_box(self, twin_seq):
        _, record, _ = twin_seq
        box = record.boxes[3]
        _, meta = crop_and_resize(record.frame(3), (box.cx, box.cy), sd.crop_side_for(box, 4.0), 64)
        mapped = meta.box_to_crop(box)
        assert mapped.cx == pytest.approx(32.0, abs=1e-6)
        assert mapped.cy == pytest.approx(32.0, abs=1e-6)

    def test_template_two_times_rule(self):
        box = BBox(50, 50, 10, 10, "image")
        assert sd.crop_side_for(box, 2.0) == pytest.approx(20.0)

    def test_box_roundtrip_through_meta(self, twin_seq):
        _, record, _ = twin_seq
        box = record.boxes[0]
        _, meta = crop_and_resize(record.frame(0), (box.cx + 3, box.cy - 2), 77.0, 64)
        back = meta.box_to_image(meta.box_to_crop(box))
        for a, b in ((back.cx, box.cx), (back.cy, box.cy), (back.w, box.w), (back.h, box.h)):
            assert abs(a - b) <= 1e-5

    def test_identity_crop_preserves_pixels(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (16, 16, 3)).astype(np.float32)
        out, meta = crop_and_resize(img, (8.0, 8.0), 16.0, 16)
        np.testing.assert_allclose(out, img.transpose(2, 0, 1), atol=1e-6)
        assert meta.scale == 1.0

    def test_out_of_bounds_is_zero_filled(self):
        img = np.ones((8, 8, 3), dtype=np.float32)
        out, _ = crop_and_resize(img, (0.0, 0.0), 16.0, 16)
        assert out[:, 0, 0] == pytest.approx(0.0)  # far corner outside
        assert out[:, 12, 12] == pytest.approx(1.0)

    def test_uint8_frame_crops_like_its_float_copy(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (24, 20, 3), dtype=np.uint8)
        as_float = img.astype(np.float32) / 255.0
        # inside the canvas, then reaching past two edges (zero fill)
        for center, side, out_size in (((10.0, 12.0), 9.5, 16), ((1.5, 22.0), 17.0, 16)):
            a, meta_a = crop_and_resize(img, center, side, out_size)
            b, meta_b = crop_and_resize(as_float, center, side, out_size)
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()
            assert meta_a == meta_b
        assert np.all(a[:, :, 0] == 0.0)  # the first column lies left of the canvas

    def test_downscale_averages(self):
        img = np.zeros((8, 8, 3), dtype=np.float32)
        img[:, 4:] = 1.0
        out, _ = crop_and_resize(img, (4.0, 4.0), 8.0, 4)
        assert out.shape == (3, 4, 4)
        assert np.all(out[:, :, :2] < 0.3) and np.all(out[:, :, 2:] > 0.7)


class TestSamplePair:
    def test_fields_and_shapes(self, twin_seq):
        _, record, _ = twin_seq
        rng = np.random.default_rng(2)
        s = sample_pair(record, rng, Config(template_size=32, search_size=64))
        assert s.template.shape == (3, 32, 32)
        assert s.search.shape == (3, 64, 64)
        assert s.prompt == record.prompt
        assert s.gt_box.frame == "search-crop"

    def test_zero_jitter_centers_box(self, twin_seq):
        _, record, _ = twin_seq
        rng = np.random.default_rng(3)
        s = sample_pair(record, rng, Config(jitter=0.0))
        assert s.gt_box.cx == pytest.approx(32.0, abs=1e-5)
        assert s.gt_box.cy == pytest.approx(32.0, abs=1e-5)

    def test_jitter_bounded_by_quarter_box(self, twin_seq):
        _, record, _ = twin_seq
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = sample_pair(record, rng, Config(jitter=0.25))
            # center displacement in crop pixels, converted back to box units
            dx = abs(s.gt_box.cx - 32.0) / s.meta.scale
            dy = abs(s.gt_box.cy - 32.0) / s.meta.scale
            gt_img = s.meta.box_to_image(s.gt_box)
            assert dx <= 0.25 * gt_img.w + 1e-6
            assert dy <= 0.25 * gt_img.h + 1e-6

    def test_class_prompt_mode(self, twin_seq):
        _, record, _ = twin_seq
        rng = np.random.default_rng(5)
        s = sample_pair(record, rng, Config(train_prompt="class"))
        assert s.prompt == "square"

    def test_needs_two_frames(self, twin_seq):
        _, record, _ = twin_seq
        single = sd.SequenceRecord("x", record.frame_paths[:1], record.boxes[:1], "p", "c", (128, 128))
        with pytest.raises(ConfigurationError):
            sample_pair(single, np.random.default_rng(0), Config())

    def test_needs_two_frames_with_a_visible_target(self, twin_seq):
        _, record, _ = twin_seq
        absent = [BBox(b.cx, b.cy, 0.0, 0.0) for b in record.boxes[1:]]
        one_visible = dataclasses.replace(record, boxes=record.boxes[:1] + absent, _frames={})
        with pytest.raises(ConfigurationError, match="sequence seq_twin has 1 frames with a visible target; need at least 2"):
            sample_pair(one_visible, np.random.default_rng(0), Config())

    def test_draws_only_frames_with_a_visible_target(self, twin_seq):
        _, record, _ = twin_seq
        boxes = list(record.boxes)
        for i in (0, 3, 4, 9):
            boxes[i] = BBox(boxes[i].cx, boxes[i].cy, 0.0, boxes[i].h)
        partly = dataclasses.replace(record, boxes=boxes, _frames={})
        rng = np.random.default_rng(2)
        drawn = {i for _ in range(200) for i in sd._frame_pair(partly, rng)}
        assert drawn == {1, 2, 5, 6, 7, 8}

    def test_fully_visible_record_draws_the_old_pairs_and_stream(self, twin_seq):
        _, record, _ = twin_seq

        def old_frame_pair(rng):
            n = len(record)
            t_idx = int(rng.integers(n))
            s_idx = int(rng.integers(n - 1))
            return t_idx, s_idx + 1 if s_idx >= t_idx else s_idx

        new_rng, old_rng = np.random.default_rng(6), np.random.default_rng(6)
        assert [sd._frame_pair(record, new_rng) for _ in range(100)] == [old_frame_pair(old_rng) for _ in range(100)]
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


def target_of(record):
    return next(o for o in record.objects if o.role == "target")


class TestSwapColor:
    def test_replaces_the_color_word(self):
        assert swap_color("red circle moving left", "red", "blue") == "blue circle moving left"

    def test_never_replaces_inside_another_word(self):
        assert swap_color("tired red circle", "red", "cyan") == "tired cyan circle"
        assert swap_color("Red circle", "red", "cyan") == "cyan circle"

    def test_absent_color_word_is_rejected(self):
        with pytest.raises(ContractError):
            swap_color("tired circle", "red", "cyan")


class TestSwapPair:
    def test_partners_share_shape_not_color(self, twin_seq):
        _, record, _ = twin_seq
        target = target_of(record)
        partners = swap_partners(record)
        assert [o.role for o in partners] == ["twin", "distractor"]
        assert all(o.shape == target.shape and o.color != target.color for o in partners)

    def test_no_partners_without_metadata_or_color_word(self, twin_seq):
        _, record, _ = twin_seq
        assert swap_partners(dataclasses.replace(record, objects=[])) == []
        assert swap_partners(dataclasses.replace(record, prompt="square moving zigzag")) == []
        others = [o for o in record.objects if o.role != "target"]
        relabeled = [target_of(record)] + [dataclasses.replace(o, shape="circle") for o in others]
        assert swap_partners(dataclasses.replace(record, objects=relabeled)) == []

    def test_template_is_target_crop(self, twin_seq):
        _, record, _ = twin_seq
        crops = []
        for t, box in enumerate(record.boxes):
            crop, _ = crop_and_resize(record.frame(t), (box.cx, box.cy), sd.crop_side_for(box, 2.0), 32)
            crops.append(crop)
        rng = np.random.default_rng(6)
        for other in swap_partners(record):
            for _ in range(5):
                s = sample_swap_pair(record, rng, other, Config())
                assert any(np.array_equal(s.template, crop) for crop in crops)

    def test_prompt_names_the_other_color(self, twin_seq):
        _, record, _ = twin_seq
        target = target_of(record)
        rng = np.random.default_rng(7)
        for other in swap_partners(record):
            s = sample_swap_pair(record, rng, other, Config())
            assert s.prompt.split() == [other.color if w == target.color else w for w in record.prompt.split()]
            assert target.color not in s.prompt.split()

    def test_gt_box_is_the_other_box_and_centered_inside(self, twin_seq):
        _, record, _ = twin_seq
        rng = np.random.default_rng(8)
        for other in swap_partners(record):
            for _ in range(20):
                s = sample_swap_pair(record, rng, other, Config(search_size=64))
                back = s.meta.box_to_image(s.gt_box)
                assert s.gt_box.frame == "search-crop"
                assert any(
                    max(abs(back.cx - cx), abs(back.cy - cy), abs(back.w - w), abs(back.h - h)) <= 1e-5
                    for cx, cy, w, h in other.boxes
                )
                assert 0.0 <= s.gt_box.cx < 64.0 and 0.0 <= s.gt_box.cy < 64.0

    def test_far_partner_still_centered_inside(self, twin_seq):
        _, record, _ = twin_seq
        # the same-shape object mirrored through the canvas center, far from the target
        far = dataclasses.replace(
            target_of(record), role="distractor", color="blue", boxes=[[128 - b.cx, 128 - b.cy, b.w, b.h] for b in record.boxes]
        )
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = sample_swap_pair(record, rng, far, Config(search_size=64))
            assert 0.0 <= s.gt_box.cx < 64.0 and 0.0 <= s.gt_box.cy < 64.0


class TestManifest:
    def test_counts_and_determinism(self):
        a = sd.build_manifest(7, 32, "train", 40, 128, twin_fraction=0.5)
        b = sd.build_manifest(7, 32, "train", 40, 128, twin_fraction=0.5)
        assert len(a) == 32
        assert a == b
        assert sum(1 for s in a if s.twin) == 16

    def test_full_twin_fraction(self):
        suite = sd.build_manifest(7, 8, "twin", 40, 128, twin_fraction=1.0)
        assert all(s.twin for s in suite)
        assert len({s.color for s in suite}) == 8  # full palette coverage

    def test_split_changes_seeds(self):
        a = sd.build_manifest(7, 4, "train", 40, 128)
        b = sd.build_manifest(7, 4, "eval", 40, 128)
        assert [s.seed for s in a] != [s.seed for s in b]


class TestVocabGrammar:
    def test_grammar_vocab_covers_every_prompt(self):
        vocab = sd.grammar_vocab()
        for color in sd.COLORS:
            for shape in sd.SHAPES:
                for motion in sd.MOTIONS:
                    for word in f"{color} {shape} moving {motion}".split():
                        assert vocab.id_of(word) >= 3
