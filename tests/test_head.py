"""Tracking head: branch outputs, loss hand-values, decode arithmetic."""

import math

import numpy as np
import pytest
from oracles import conv2d_oracle

from vltrack import head as hd
from vltrack import numcore as nc
from vltrack.config import Config
from vltrack.errors import ConfigurationError, ContractError
from vltrack.head import BBox, CropMeta, HeadOutput
from vltrack.numcore import Tensor

LN2 = math.log(2.0)


def make_output(score, offset, size):
    """One sample's (C, G, G) maps as the batch-of-1 head output."""
    return HeadOutput(Tensor(score[None]), Tensor(offset[None]), Tensor(size[None]))


class TestHeadForward:
    def test_desk_shapes(self):
        params = hd.init_head(dim=96, seed=0, channels=Config().head_channel_plan)
        rng = np.random.default_rng(0)
        sx = Tensor(rng.uniform(-1, 1, (64, 96)).astype(np.float32)[None])
        out = hd.head_forward(sx, params)
        assert out.score.shape == (1, 1, 8, 8)
        assert out.offset.shape == (1, 2, 8, 8)
        assert out.size.shape == (1, 2, 8, 8)
        assert out.grid == 8

    def test_zero_final_layer_gives_half_maps(self):
        params = hd.init_head(dim=16, seed=1, channels=(8, 8, 8))
        for branch in (params.score, params.offset, params.size):
            last = branch.convs[-1]
            last.kernels.data[:] = 0.0
            last.bias.data[:] = 0.0
        sx = Tensor(np.random.default_rng(1).uniform(-1, 1, (16, 16)).astype(np.float32)[None])
        out = hd.head_forward(sx, params)
        np.testing.assert_allclose(out.score.data[0], 0.5, atol=1e-7)
        np.testing.assert_allclose(out.offset.data[0], 0.5, atol=1e-7)
        np.testing.assert_allclose(out.size.data[0], 0.5, atol=1e-7)

    def test_branch_matches_conv_oracle_composition(self):
        params = hd.init_head(dim=6, seed=2, channels=(4, 4, 3))
        rng = np.random.default_rng(2)
        sx_np = rng.uniform(-1, 1, (16, 6)).astype(np.float32)
        out = hd.head_forward(Tensor(sx_np[None]), params)

        x = sx_np.reshape(4, 4, 6).transpose(2, 0, 1).astype(np.float64)
        convs = params.score.convs
        for i, conv in enumerate(convs):
            x = conv2d_oracle(x, conv.kernels.data, 1, 1) + conv.bias.data[:, None, None]
            if i < len(convs) - 1:
                x = np.maximum(x, 0.0)
            else:
                x = 1.0 / (1.0 + np.exp(-x))
        np.testing.assert_allclose(out.score.data[0], x, atol=1e-4)

    def test_maps_bounded_by_sigmoid(self):
        params = hd.init_head(dim=8, seed=3, channels=(4, 4, 4))
        sx = Tensor(np.random.default_rng(3).uniform(-5, 5, (16, 8)).astype(np.float32)[None])
        out = hd.head_forward(sx, params)
        for m in (out.score, out.offset, out.size):
            assert np.all(m.data[0] > 0.0) and np.all(m.data[0] < 1.0)

    def test_non_square_token_count_rejected(self):
        params = hd.init_head(dim=8, seed=4, channels=(4, 4, 4))
        with pytest.raises(ConfigurationError):
            hd.head_forward(Tensor(np.zeros((1, 12, 8), dtype=np.float32)), params)

    def test_batched_matches_single(self):
        params = hd.init_head(dim=8, seed=5, channels=(4, 4, 4))
        rng = np.random.default_rng(5)
        sx = rng.uniform(-1, 1, (2, 16, 8)).astype(np.float32)
        batched = hd.head_forward(Tensor(sx), params)
        single = hd.head_forward(Tensor(sx[1][None]), params)
        np.testing.assert_allclose(batched.score.data[1], single.score.data[0], atol=1e-6)


class TestGaussianTarget:
    def test_peak_is_exactly_one(self):
        heat = hd.gaussian_target((3, 5), grid=8)
        assert heat.shape == (1, 8, 8)
        assert heat[0, 3, 5] == 1.0
        assert (heat == 1.0).sum() == 1

    def test_decay_with_squared_distance(self):
        heat = hd.gaussian_target((4, 4), grid=8, sigma=1.0)
        assert heat[0, 4, 5] > heat[0, 4, 6] > heat[0, 4, 7]
        assert abs(heat[0, 4, 5] - math.exp(-0.5)) < 1e-6

    def test_values_in_unit_interval(self):
        heat = hd.gaussian_target((0, 0), grid=8)
        assert np.all(heat >= 0.0) and np.all(heat <= 1.0)


class TestFocalLoss:
    def test_perfect_prediction_is_zero(self):
        target = hd.gaussian_target((2, 2), grid=4)
        score = np.where(target >= 1.0, 1.0, 0.0).astype(np.float32)
        loss = hd.focal_loss(Tensor(score), target).item()
        assert loss < 1e-9

    def test_single_positive_cell_hand_value(self):
        loss = hd.focal_loss(Tensor(np.full((1, 1, 1), 0.5, dtype=np.float32)), np.ones((1, 1, 1))).item()
        assert abs(loss - 0.25 * LN2) < 1e-6
        assert abs(loss - 0.17329) < 1e-4

    def test_single_negative_cell_hand_value(self):
        loss = hd.focal_loss(Tensor(np.full((1, 1, 1), 0.5, dtype=np.float32)), np.zeros((1, 1, 1))).item()
        assert abs(loss - 0.25 * LN2) < 1e-6

    def test_nonnegative_on_random_maps(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            score = Tensor(rng.uniform(0.05, 0.95, (1, 8, 8)).astype(np.float32))
            target = hd.gaussian_target((rng.integers(8), rng.integers(8)), 8)
            assert hd.focal_loss(score, target).item() >= 0.0

    def test_batched_mean(self):
        score = Tensor(np.full((2, 1, 1, 1), 0.5, dtype=np.float32))
        target = np.stack([np.ones((1, 1, 1)), np.zeros((1, 1, 1))])
        loss = hd.focal_loss(score, target).item()
        assert abs(loss - 0.25 * LN2) < 1e-6

    def test_gradient_check(self):
        rng = np.random.default_rng(7)
        score = Tensor(rng.uniform(0.2, 0.8, (1, 4, 4)).astype(np.float32))
        target = hd.gaussian_target((1, 2), grid=4)
        report = nc.grad_check(lambda s: hd.focal_loss(s, target), [score], tol=1e-3)
        assert report.passed, str(report)


def box_rows(*boxes):
    """(N, 4) float64 cxcywh rows, the layout the box losses take."""
    return Tensor(np.array([[b.cx, b.cy, b.w, b.h] for b in boxes]), dtype=np.float64)


def giou(pred: BBox, gt: BBox) -> float:
    return hd.giou_loss_tensor(box_rows(pred), box_rows(gt)).item()


def l1(pred: BBox, gt: BBox) -> float:
    return hd.l1_loss_tensor(box_rows(pred), box_rows(gt)).item()


class TestGiouLoss:
    def test_identical_boxes(self):
        b = BBox(10, 10, 4, 4)
        assert giou(b, b) == pytest.approx(0.0, abs=1e-9)

    def test_corner_boxes_hand_value(self):
        a = BBox.from_xyxy(0, 0, 2, 2)
        b = BBox.from_xyxy(1, 1, 3, 3)
        assert giou(a, b) == pytest.approx(1.079365, abs=1e-5)

    def test_disjoint_boxes_hand_value(self):
        a = BBox.from_xyxy(0, 0, 1, 1)
        b = BBox.from_xyxy(2, 2, 3, 3)
        assert giou(a, b) == pytest.approx(1.77778, abs=1e-4)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = BBox(*rng.uniform(1, 9, 2), *rng.uniform(0.5, 4, 2))
            b = BBox(*rng.uniform(1, 9, 2), *rng.uniform(0.5, 4, 2))
            lab = giou(a, b)
            assert 0.0 <= lab <= 2.0
            assert lab == pytest.approx(giou(b, a), abs=1e-9)

    def test_containment_equals_one_minus_iou(self):
        outer = BBox(5, 5, 8, 8)
        inner = BBox(5, 5, 4, 4)
        assert giou(outer, inner) == pytest.approx(1 - 16 / 64, abs=1e-6)

    def test_batch_is_the_mean_of_its_rows(self):
        rng = np.random.default_rng(9)
        pred = rng.uniform(0.2, 0.8, (4, 4)).astype(np.float32)
        gt = rng.uniform(0.2, 0.8, (4, 4)).astype(np.float32)
        pred[:, 2:] += 0.3
        gt[:, 2:] += 0.3
        got = hd.giou_loss_tensor(Tensor(pred), gt).item()
        expect = np.mean([hd.giou_loss_tensor(Tensor(p[None]), g[None]).item() for p, g in zip(pred, gt)])
        assert abs(got - expect) < 1e-5

    def test_gradient_check_away_from_boundaries(self):
        pred = Tensor(np.array([[0.45, 0.53, 0.31, 0.27], [0.6, 0.4, 0.22, 0.4]], dtype=np.float32))
        gt = np.array([[0.5, 0.5, 0.25, 0.25], [0.55, 0.45, 0.3, 0.35]], dtype=np.float32)
        report = nc.grad_check(lambda p: hd.giou_loss_tensor(p, gt), [pred], tol=1e-3)
        assert report.passed, str(report)


class TestL1Loss:
    def test_identical(self):
        b = BBox(0.5, 0.5, 0.2, 0.2)
        assert l1(b, b) == 0.0

    def test_constant_offset(self):
        a = BBox(0.5, 0.5, 0.3, 0.3)
        b = BBox(0.6, 0.6, 0.4, 0.4)
        assert l1(a, b) == pytest.approx(0.1, abs=1e-9)

    def test_hand_value(self):
        a = BBox(0.5, 0.5, 0.2, 0.2)
        b = BBox(0.4, 0.5, 0.2, 0.3)
        assert l1(a, b) == pytest.approx(0.05, abs=1e-9)

    def test_tensor_path_and_gradient(self):
        pred = Tensor(np.array([[0.5, 0.5, 0.2, 0.2]], dtype=np.float32))
        gt = np.array([[0.4, 0.5, 0.2, 0.3]], dtype=np.float32)
        assert hd.l1_loss_tensor(pred, gt).item() == pytest.approx(0.05, abs=1e-7)
        report = nc.grad_check(lambda p: hd.l1_loss_tensor(p, gt), [pred], tol=1e-3)
        assert report.passed, str(report)


class TestDecode:
    def one_hot_output(self, i, j, g=8, offset=0.5, size=0.25):
        score = np.zeros((1, g, g), dtype=np.float32)
        score[0, i, j] = 1.0
        return make_output(score, np.full((2, g, g), offset, np.float32), np.full((2, g, g), size, np.float32))

    def test_stated_decode_rule(self):
        out = self.one_hot_output(0, 0)
        meta = CropMeta(0.0, 0.0, 1.0, 8)
        box = hd.decode(out, meta)
        assert (box.cx, box.cy, box.w, box.h) == pytest.approx((4.0, 4.0, 16.0, 16.0), abs=1e-6)
        assert box.frame == "image"

    def test_uniform_scores_tie_break_row_major(self):
        g = 8
        out = make_output(
            np.full((1, g, g), 0.7, np.float32),
            np.full((2, g, g), 0.5, np.float32),
            np.full((2, g, g), 0.25, np.float32),
        )
        box = hd.decode(out, CropMeta(0.0, 0.0, 1.0, 8), window_weight=0.0)
        assert (box.cx, box.cy) == pytest.approx((4.0, 4.0))  # cell (0, 0)

    def test_full_window_on_uniform_scores_picks_center(self):
        g = 8
        out = make_output(
            np.full((1, g, g), 0.7, np.float32),
            np.full((2, g, g), 0.5, np.float32),
            np.full((2, g, g), 0.25, np.float32),
        )
        box = hd.decode(out, CropMeta(0.0, 0.0, 1.0, 8), window_weight=1.0)
        assert (box.cx, box.cy) == pytest.approx((28.0, 28.0))  # cell (3, 3) of np.hanning

    def test_crop_meta_mapping(self):
        out = self.one_hot_output(2, 3, offset=0.25, size=0.5)
        meta = CropMeta(x0=100.0, y0=50.0, scale=0.5, stride=8)
        box = hd.decode(out, meta)
        crop_cx, crop_cy = (3 + 0.25) * 8, (2 + 0.25) * 8
        assert box.cx == pytest.approx(100.0 + crop_cx / 0.5, abs=1e-5)
        assert box.cy == pytest.approx(50.0 + crop_cy / 0.5, abs=1e-5)
        assert box.w == pytest.approx(0.5 * 64 / 0.5, abs=1e-5)

    def test_clipping_only_at_final_step(self):
        out = self.one_hot_output(0, 0, offset=0.0, size=0.9)
        box = hd.decode(out, CropMeta(0.0, 0.0, 1.0, 8), image_size=(40, 40))
        x1, y1, x2, y2 = box.to_xyxy()
        assert x1 >= 0 and y1 >= 0 and x2 <= 40 and y2 <= 40

    def test_encode_decode_roundtrip(self):
        g, stride = 8, 8
        crop_side = g * stride
        want = BBox(27.3, 41.9, 12.4, 9.2, "search-crop")
        j, i = int(want.cx // stride), int(want.cy // stride)
        score = np.zeros((1, g, g), dtype=np.float32)
        score[0, i, j] = 1.0
        offset = np.zeros((2, g, g), dtype=np.float32)
        offset[0, i, j] = want.cx / stride - j
        offset[1, i, j] = want.cy / stride - i
        size = np.zeros((2, g, g), dtype=np.float32)
        size[0, i, j] = want.w / crop_side
        size[1, i, j] = want.h / crop_side
        got = hd.decode(make_output(score, offset, size), CropMeta(0.0, 0.0, 1.0, stride))
        for a, b in zip((got.cx, got.cy, got.w, got.h), (want.cx, want.cy, want.w, want.h)):
            assert abs(a - b) <= 1e-5

    def test_unbatched_or_multi_sample_maps_rejected(self):
        g = 8
        maps = (np.zeros((1, g, g), np.float32), np.zeros((2, g, g), np.float32), np.zeros((2, g, g), np.float32))
        with pytest.raises(ContractError):
            hd.decode(HeadOutput(*(Tensor(m) for m in maps)), CropMeta(0.0, 0.0, 1.0, 8))
        with pytest.raises(ContractError):
            hd.decode(HeadOutput(*(Tensor(np.stack([m, m])) for m in maps)), CropMeta(0.0, 0.0, 1.0, 8))


class TestCropMeta:
    def test_box_transforms_are_inverse(self):
        meta = CropMeta(x0=31.5, y0=12.25, scale=64 / 80.0, stride=8)
        box = BBox(55.0, 40.0, 18.0, 14.0)
        back = meta.box_to_image(meta.box_to_crop(box))
        for a, b in ((back.cx, box.cx), (back.cy, box.cy), (back.w, box.w), (back.h, box.h)):
            assert abs(a - b) < 1e-9
