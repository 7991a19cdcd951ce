"""Loss assembly, optimizer, training loop behavior, tracking, and metrics."""

import dataclasses
import functools
import gc
import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from oracles import center_error_oracle, iou_oracle, two_shard_backward

from vltrack import numcore as nc
from vltrack import pipeline as pl
from vltrack import synthdata as sd
from vltrack.cli import main
from vltrack.config import Config
from vltrack.errors import ContractError, PeerDied, TrainingDiverged, VocabularyError
from vltrack.head import BBox
from vltrack.model import TrackerModel
from vltrack.numcore import Tensor, blas
from vltrack.pipeline import AdamW, MetricReport, compute_metrics, total_loss
from vltrack.synthdata import Scenario, generate, sample_pair


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    for i in range(2):
        generate(
            Scenario(seed=20 + i, distractor_count=1, twin=True, num_frames=8),
            root / f"seq_{i:03d}",
        )
    return root


@pytest.fixture(scope="module")
def small_cfg():
    return Config().replace(dim=32, layers=1, heads=2, align_dim=16, head_channels="8,8,8", batch_size=2)


@pytest.fixture(scope="module")
def small_setup(tiny_dataset, small_cfg):
    records = pl.load_dataset(tiny_dataset)
    vocab = pl.resolve_vocab(small_cfg)
    model = TrackerModel(small_cfg, vocab)
    rng = np.random.default_rng(0)
    batch = pl.sample_training_batch(records, rng, small_cfg, vocab)
    return records, vocab, model, batch


class TestSampleTrainingBatch:
    def test_sentence_mode_mixes_in_prompt_swap_pairs(self, small_setup, small_cfg):
        records, _, _, _ = small_setup
        rng = np.random.default_rng(1)
        prompts = [pl.sample_training_sample(records[0], rng, small_cfg).prompt for _ in range(40)]
        swapped = [p for p in prompts if p != records[0].prompt]
        assert 0 < len(swapped) < len(prompts)
        assert set(swapped) == {pl.swap_prompt_color(records[0])}

    def test_class_mode_never_swaps(self, small_setup, small_cfg):
        records, _, _, _ = small_setup
        cfg = small_cfg.replace(train_prompt="class")
        rng = np.random.default_rng(1)
        assert all(pl.sample_training_sample(records[0], rng, cfg).prompt == records[0].class_word for _ in range(40))

    def test_records_without_partners_draw_exactly_sample_pair(self, small_setup, small_cfg):
        records, _, _, _ = small_setup
        plain = dataclasses.replace(records[0], objects=[])
        a, b = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(10):
            got = pl.sample_training_sample(plain, a, small_cfg)
            want = sample_pair(plain, b, small_cfg)
            assert got.prompt == plain.prompt
            assert np.array_equal(got.search, want.search) and np.array_equal(got.template, want.template)
        assert a.bit_generator.state == b.bit_generator.state


class TestTotalLoss:
    def test_all_zero_components(self):
        zero = Tensor(np.zeros(()))
        total, breakdown = total_loss({"cls": zero, "giou": zero, "l1": zero, "cma": zero, "ima": zero}, Config())
        assert total.item() == 0.0
        assert breakdown["total"] == 0.0

    def test_weighted_sum_hand_value(self):
        comps = {
            "cls": Tensor(np.array(0.1, dtype=np.float32)),
            "giou": Tensor(np.array(0.2, dtype=np.float32)),
            "l1": Tensor(np.array(0.04, dtype=np.float32)),
            "cma": Tensor(np.array(1.0, dtype=np.float32)),
            "ima": Tensor(np.array(0.5, dtype=np.float32)),
        }
        total, _ = total_loss(comps, Config(lambda_giou=2.0, lambda_l1=5.0, lambda_cma=1.0, lambda_ima=1.0))
        assert total.item() == pytest.approx(2.2, abs=1e-6)

    def test_zeroed_alignment_weights_reproduce_vision_only_objective(self):
        comps = {
            "cls": Tensor(np.array(0.3, dtype=np.float32)),
            "giou": Tensor(np.array(0.2, dtype=np.float32)),
            "l1": Tensor(np.array(0.1, dtype=np.float32)),
            "cma": Tensor(np.array(9.9, dtype=np.float32)),
            "ima": Tensor(np.array(9.9, dtype=np.float32)),
        }
        total, _ = total_loss(comps, Config(lambda_cma=0.0, lambda_ima=0.0))
        assert total.item() == pytest.approx(0.3 + 2 * 0.2 + 5 * 0.1, abs=1e-6)

    def test_ablation_flag_zeroes_weights(self, small_setup, small_cfg):
        # an ablated run computes no contrastive term, so its total is the
        # vision-only objective at the configured regression weights
        _, vocab, _, batch = small_setup
        for ablate in ("no-mma", "vision-only"):
            cfg = small_cfg.replace(ablate=ablate)
            comps = pl.compute_losses(TrackerModel(cfg, vocab), batch, cfg)
            assert set(comps) == {"cls", "giou", "l1"}
            total, breakdown = total_loss(comps, cfg)
            expect = comps["cls"].item() + 2.0 * comps["giou"].item() + 5.0 * comps["l1"].item()
            assert total.item() == pytest.approx(expect, rel=1e-6)
            assert breakdown["cma"] == 0.0 and breakdown["ima"] == 0.0


class TestRegressionTargets:
    def test_center_cell_and_heat_peak(self):
        boxes = np.array([[20.0, 44.0, 16.0, 12.0]], dtype=np.float32)
        heat, onehot, cells, gt_norm = pl.build_regression_targets(boxes, grid=8, patch=8)
        assert onehot[0, 0, 5, 2] == 1.0  # i = 44//8 = 5, j = 20//8 = 2
        assert heat[0, 0, 5, 2] == 1.0
        assert cells[0].tolist() == [2.0, 5.0]
        np.testing.assert_allclose(gt_norm[0], [20 / 64, 44 / 64, 16 / 64, 12 / 64])

    def test_exact_maps_recover_zero_losses(self, small_setup):
        _, _, model, batch = small_setup
        grid = 8
        heat, onehot, cells, gt_norm = pl.build_regression_targets(batch.boxes, grid, 8)
        from vltrack.head import HeadOutput

        offset = np.zeros((len(batch), 2, grid, grid), dtype=np.float32)
        size = np.zeros((len(batch), 2, grid, grid), dtype=np.float32)
        for k in range(len(batch)):
            j, i = int(cells[k, 0]), int(cells[k, 1])
            offset[k, 0, i, j] = batch.boxes[k, 0] / 8 - j
            offset[k, 1, i, j] = batch.boxes[k, 1] / 8 - i
            size[k, 0, i, j] = gt_norm[k, 2]
            size[k, 1, i, j] = gt_norm[k, 3]
        out = HeadOutput(Tensor(heat), Tensor(offset), Tensor(size))
        pred = pl.predicted_boxes_at_cells(out, onehot, cells, grid)
        np.testing.assert_allclose(pred.data, gt_norm, atol=1e-6)


class TestAdamW:
    def test_quadratic_descent_is_monotone(self):
        target = np.array([1.5, -2.0, 0.5], dtype=np.float32)
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        opt = AdamW({"x": x}, lr=1e-2, weight_decay=0.0)
        losses = []
        for _ in range(50):
            diff = x.data - target
            losses.append(float((diff**2).sum()))
            x.grad = 2.0 * diff
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_zero_lr_is_bit_identical(self):
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        before = x.data.tobytes()
        opt = AdamW({"x": x}, lr=0.0, weight_decay=1e-4)
        x.grad = np.array([0.5, -0.5], dtype=np.float32)
        opt.step()
        assert x.data.tobytes() == before

    def test_decoupled_weight_decay_shrinks_params(self):
        x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"x": x}, lr=0.1, weight_decay=0.5)
        x.grad = np.array([0.0], dtype=np.float32)
        opt.step()
        assert x.data[0] == pytest.approx(1.0 - 0.1 * 0.5 * 1.0)

    def test_state_roundtrip(self):
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"x": x}, lr=1e-3, weight_decay=1e-4)
        x.grad = np.array([0.1, 0.2], dtype=np.float32)
        opt.step()
        # the fields save_checkpoint writes and load_checkpoint returns
        state = {"step": opt.step_count, "m": opt.m, "v": opt.v}
        other = AdamW({"x": x}, lr=1e-3, weight_decay=1e-4)
        other.load_state_dict(state)
        assert other.step_count == 1
        np.testing.assert_array_equal(other.m["x"], opt.m["x"])


class TestClipAndSchedule:
    def test_clip_rescales_to_max_norm(self):
        a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        a.grad = np.array([3.0, 4.0, 0.0], dtype=np.float32)
        norm = pl.clip_gradients({"a": a}, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(a.grad) == pytest.approx(1.0, abs=1e-6)

    def test_clip_leaves_small_gradients_alone(self):
        a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        grad = np.array([0.3, 0.4], dtype=np.float32)
        a.grad = grad.copy()
        pl.clip_gradients({"a": a}, max_norm=1.0)
        np.testing.assert_array_equal(a.grad, grad)

    def test_cosine_schedule_endpoints(self):
        assert pl.cosine_lr(4e-4, 0, 2000) == pytest.approx(4e-4)
        assert pl.cosine_lr(4e-4, 1000, 2000) == pytest.approx(2e-4)
        assert pl.cosine_lr(4e-4, 2000, 2000) == pytest.approx(0.0, abs=1e-12)


class TestTrainStep:
    def test_zero_lr_leaves_parameters_bit_identical(self, small_setup, small_cfg):
        _, vocab, _, batch = small_setup
        model = TrackerModel(small_cfg, vocab)
        opt = AdamW(model.named_parameters(), lr=0.0, weight_decay=1e-4)
        before = {k: t.data.tobytes() for k, t in model.named_parameters().items()}
        pl.train_step(model, batch, opt, small_cfg, lr=0.0)
        after = {k: t.data.tobytes() for k, t in model.named_parameters().items()}
        assert before == after

    def test_single_step_decreases_frozen_batch_loss(self, small_setup, small_cfg):
        _, vocab, _, batch = small_setup
        model = TrackerModel(small_cfg, vocab)
        opt = AdamW(model.named_parameters(), lr=1e-4, weight_decay=0.0)
        first = pl.train_step(model, batch, opt, small_cfg, lr=1e-4)
        with_updated = pl.compute_losses(model, batch, small_cfg)
        after_total, _ = pl.total_loss(with_updated, small_cfg)
        assert after_total.item() < first["total"]

    def test_two_runs_same_seed_are_identical(self, small_setup, small_cfg):
        _, vocab, _, batch = small_setup

        def run():
            model = TrackerModel(small_cfg, vocab)
            opt = AdamW(model.named_parameters(), lr=small_cfg.lr, weight_decay=small_cfg.weight_decay)
            trajectory = [pl.train_step(model, batch, opt, small_cfg)["total"] for _ in range(3)]
            return trajectory, {k: t.data.tobytes() for k, t in model.named_parameters().items()}

        t1, p1 = run()
        t2, p2 = run()
        assert t1 == t2
        assert p1 == p2

    def test_batch_of_one_with_contrastive_weights_is_rejected_untouched(self, small_setup, small_cfg):
        _, vocab, _, batch = small_setup
        one = dataclasses.replace(batch, **{f.name: getattr(batch, f.name)[:1] for f in dataclasses.fields(batch)})
        model = TrackerModel(small_cfg, vocab)
        opt = AdamW(model.named_parameters(), lr=1e-4, weight_decay=1e-4)
        before = {k: t.data.tobytes() for k, t in model.named_parameters().items()}
        with pytest.raises(ContractError, match="at least 2"):
            pl.train_step(model, one, opt, small_cfg)
        assert {k: t.data.tobytes() for k, t in model.named_parameters().items()} == before

    def test_non_finite_loss_aborts_with_component_dump(self, small_setup, small_cfg):
        _, vocab, _, batch = small_setup
        model = TrackerModel(small_cfg, vocab)
        model.patch_proj.data[0, 0] = np.nan
        opt = AdamW(model.named_parameters(), lr=1e-4, weight_decay=1e-4)
        with pytest.raises(TrainingDiverged) as err:
            pl.train_step(model, batch, opt, small_cfg)
        assert "components" in str(err.value)


class TestTrackSequence:
    def test_frame_zero_echoes_init_box(self, tiny_dataset, small_cfg, small_setup):
        records, vocab, model, _ = small_setup
        preds = pl.track_sequence(model, records[0], small_cfg)
        assert preds[0] is records[0].boxes[0]
        assert len(preds) == len(records[0])

    def test_causality_by_truncation(self, small_setup, small_cfg):
        records, _, model, _ = small_setup
        record = records[0]
        full = pl.track_sequence(model, record, small_cfg)
        import dataclasses

        truncated = dataclasses.replace(
            record,
            frame_paths=record.frame_paths[:5],
            boxes=record.boxes[:5],
            _frames={k: v for k, v in record._frames.items() if k < 5},
        )
        head = pl.track_sequence(model, truncated, small_cfg)
        for a, b in zip(head, full[:5]):
            assert (a.cx, a.cy, a.w, a.h) == (b.cx, b.cy, b.w, b.h)

    def test_streams_file_frames_once_without_caching(self, tiny_dataset, small_setup, small_cfg, monkeypatch):
        _, _, model, _ = small_setup
        record = pl.load_dataset(tiny_dataset)[0]
        decoded = []
        load_frame = sd.load_frame
        monkeypatch.setattr(sd, "load_frame", lambda path: decoded.append(path) or load_frame(path))
        pl.track_sequence(model, record, small_cfg)
        assert decoded == record.frame_paths
        assert record._frames == {}

    def test_prompt_override_changes_tokens_not_protocol(self, small_setup, small_cfg):
        records, _, model, _ = small_setup
        preds = pl.track_sequence(model, records[0], small_cfg, prompt_override="blue square moving up")
        assert len(preds) == len(records[0])

    @pytest.mark.parametrize(
        "box",
        [
            BBox(0.0, 0.0, 0.0, 0.0),
            BBox(40.0, 40.0, 10.0, -1.0),
            BBox(math.nan, 40.0, 10.0, 10.0),
            BBox(40.0, 40.0, math.inf, 10.0),
        ],
    )
    def test_first_box_without_area_is_a_contract_error(self, small_setup, small_cfg, box):
        records, _, model, _ = small_setup
        with pytest.raises(ContractError, match=f"sequence {records[0].seq_id}: the first box has no area"):
            pl.track_sequence(model, records[0], small_cfg, init_box=box)


def make_track(boxes):
    return [BBox(*b, "image") for b in boxes]


class TestMetrics:
    def test_perfect_predictions_score_one_everywhere(self):
        gts = make_track([(10, 10, 8, 8), (12, 11, 8, 8), (14, 12, 8, 9)])
        report = compute_metrics(list(gts), gts)
        assert report.as_dict() == {
            "P": 1.0,
            "P_norm": 1.0,
            "AUC": 1.0,
            "cAUC": 1.0,
            "ACC": 1.0,
            "n_frames": 3,
        }

    def test_constant_half_iou_auc(self):
        # shift by half the width: IoU = (w/2 * h) / (1.5 * w * h) = 1/3...
        # instead build exact IoU 0.5 with zero center error: same center,
        # half the area contained: w x h vs w x h/2 gives IoU 0.5
        gts = make_track([(20, 20, 10, 10)] * 4)
        preds = make_track([(20, 20, 10, 5)] * 4)
        report = compute_metrics(preds, gts)
        assert report.auc == pytest.approx(11 / 21, abs=1e-12)
        assert report.p == 1.0

    def test_thirty_pixel_error_gives_zero_precision(self):
        gts = make_track([(50, 50, 10, 10)] * 5)
        preds = make_track([(80, 50, 10, 10)] * 5)
        report = compute_metrics(preds, gts)
        assert report.p == 0.0

    def test_matches_per_frame_scalar_oracle(self):
        rng = np.random.default_rng(9)
        gts, preds = [], []
        for _ in range(12):
            g = (rng.uniform(20, 80), rng.uniform(20, 80), rng.uniform(5, 20), rng.uniform(5, 20))
            p = tuple(np.array(g) + rng.uniform(-6, 6, 4))
            gts.append(BBox(*g, "image"))
            preds.append(BBox(*p, "image"))
        report = compute_metrics(preds, gts)
        ious = [iou_oracle((p.cx, p.cy, p.w, p.h), (g.cx, g.cy, g.w, g.h)) for p, g in zip(preds, gts)]
        errs = [center_error_oracle((p.cx, p.cy), (g.cx, g.cy)) for p, g in zip(preds, gts)]
        assert report.acc == pytest.approx(np.mean(ious), abs=1e-12)
        assert report.p == pytest.approx(np.mean([e <= 20 for e in errs]), abs=1e-12)
        expected_auc = np.mean([np.mean([i >= t for i in ious]) for t in pl.SUCCESS_THRESHOLDS])
        assert report.auc == pytest.approx(expected_auc, abs=1e-12)

    def test_curve_monotonicity(self):
        rng = np.random.default_rng(10)
        gts = make_track([(50, 50, 12, 12)] * 10)
        preds = make_track([(50 + rng.uniform(-15, 15), 50 + rng.uniform(-15, 15), 12, 12) for _ in range(10)])
        report = compute_metrics(preds, gts)
        succ = report.curves["success"][1]
        assert all(b <= a for a, b in zip(succ, succ[1:]))  # non-increasing
        prec = report.curves["precision"][1]
        assert all(b >= a for a, b in zip(prec, prec[1:]))  # non-decreasing

    def test_metrics_in_unit_interval(self):
        gts = make_track([(50, 50, 10, 10)] * 3)
        preds = make_track([(10, 90, 4, 4)] * 3)
        report = compute_metrics(preds, gts)
        for value in (report.p, report.p_norm, report.auc, report.cauc, report.acc):
            assert 0.0 <= value <= 1.0

    def test_length_mismatch_rejected(self):
        gts = make_track([(10, 10, 5, 5)] * 3)
        with pytest.raises(ContractError):
            compute_metrics(gts[:2], gts)

    def test_ciou_penalty_reduces_cauc(self):
        gts = make_track([(50, 50, 10, 10)] * 4)
        preds = make_track([(55, 50, 10, 10)] * 4)  # offset centers, same size
        report = compute_metrics(preds, gts)
        assert report.cauc <= report.auc

    def test_aggregate_means(self):
        gts = make_track([(10, 10, 8, 8)] * 3)
        r1 = compute_metrics(list(gts), gts)
        far = make_track([(90, 90, 8, 8)] * 3)
        r2 = compute_metrics(far, gts)
        summary = pl.aggregate_reports({"a": r1, "b": r2})
        assert summary["ACC"] == pytest.approx((r1.acc + r2.acc) / 2)


class TestTwinHelpers:
    def test_swap_prompt_color(self, small_setup):
        records, _, _, _ = small_setup
        record = records[0]
        raw = pl.swap_prompt_color(record)
        target = next(o for o in record.objects if o.role == "target")
        twin = next(o for o in record.objects if o.role == "twin")
        assert twin.color in raw
        assert target.color not in raw

    def test_follow_counts_sum_within_total(self, small_setup, small_cfg):
        records, _, model, _ = small_setup
        on_target, on_twin, total = pl.twin_follow_counts(model, records[0], small_cfg, records[0].prompt)
        assert total == len(records[0]) - 1
        assert on_target + on_twin <= total


class TestTrainLoop:
    def test_zero_iters_writes_checkpoint_and_empty_log(self, tiny_dataset, tmp_path, small_cfg):
        cfg = small_cfg.replace(iters=0)
        _, ckpt, _ = pl.train(cfg, tiny_dataset, tmp_path, quiet=True)
        assert os.path.isfile(ckpt)
        log = (tmp_path / "loss_log.csv").read_text().strip().splitlines()
        assert log == ["iter,L_total,L_cls,L_giou,L_1,L_cma,L_ima"]

    def test_short_run_logs_cadence(self, tiny_dataset, tmp_path, small_cfg):
        cfg = small_cfg.replace(iters=6, log_every=2)
        pl.train(cfg, tiny_dataset, tmp_path, quiet=True)
        rows = (tmp_path / "loss_log.csv").read_text().strip().splitlines()
        iters = [int(r.split(",")[0]) for r in rows[1:]]
        assert iters == [2, 4, 6]

    def test_resumed_run_matches_uninterrupted_run(self, tiny_dataset, tmp_path, small_cfg, monkeypatch):
        cfg = small_cfg.replace(iters=8, checkpoint_every=4, log_every=1)
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        pl.train(cfg, tiny_dataset, run_a, quiet=True)

        train_step = pl.train_step
        log_at_crash = []

        def crash_at_step_6(model, batch, opt, cfg, lr=None):
            if opt.step_count == 5:
                log_at_crash.append((run_b / "loss_log.csv").read_text())
                raise RuntimeError("simulated crash at step 6")
            return train_step(model, batch, opt, cfg, lr)

        monkeypatch.setattr(pl, "train_step", crash_at_step_6)
        with pytest.raises(RuntimeError, match="simulated crash"):
            pl.train(cfg, tiny_dataset, run_b, quiet=True)
        # rows 1-5 reached the disk before the crash, not only when the file closed
        assert len(log_at_crash[0].splitlines()) == 6
        monkeypatch.setattr(pl, "train_step", train_step)
        pl.train(cfg, tiny_dataset, run_b, resume=run_b / "checkpoint.aio", quiet=True)

        for name in ("checkpoint.aio", "loss_log.csv"):
            assert (run_b / name).read_bytes() == (run_a / name).read_bytes(), name


fans_out = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or nc.blas_thread_calls() is None,
    reason="needs the fork start method and numpy's OpenBLAS thread calls",
)


@pytest.fixture
def cpus(monkeypatch):
    def force(n):
        monkeypatch.setattr(pl, "usable_cpus", lambda: n)

    return force


def test_importing_the_cli_and_pipeline_loads_no_process_machinery():
    # map_sequences and the training peer import the process machinery only when they fork,
    # which keeps it out of eval and track processes that never fan out
    script = (
        "import sys, vltrack.cli, vltrack.pipeline; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pl.__file__)))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stdout == "[]\n", run.stderr


class TestMapSequences:
    @fans_out
    def test_workers_return_results_in_order_at_one_blas_thread(self, cpus):
        cpus(2)
        assert pl.sequence_workers(5) == 2
        _, get_threads = nc.blas_thread_calls()
        results = pl.map_sequences(lambda i: (i, os.getpid(), get_threads()), list(range(5)))
        assert [r[0] for r in results] == list(range(5))
        assert all(pid != os.getpid() for _, pid, _ in results)
        assert {threads for _, _, threads in results} == {1}

    def test_one_usable_cpu_runs_in_process(self, cpus):
        cpus(1)
        assert pl.sequence_workers(3) == 1
        assert pl.map_sequences(lambda _: os.getpid(), [0, 1, 2]) == [os.getpid()] * 3

    def test_unresolvable_blas_thread_call_runs_in_process(self, cpus, monkeypatch):
        cpus(2)
        monkeypatch.setattr(blas, "THREAD_CALLS", (("no_such_set_threads", "no_such_get_threads"),))
        assert nc.blas_thread_calls() is None
        assert pl.sequence_workers(3) == 1
        assert pl.map_sequences(lambda _: os.getpid(), [0, 1, 2]) == [os.getpid()] * 3

    @fans_out
    def test_worker_error_arrives_with_its_type_and_message(self, cpus):
        cpus(2)

        def fail_on_three(i):
            if i == 3:
                raise ContractError(f"item {i} is bad")
            return i

        with pytest.raises(ContractError, match="item 3 is bad"):
            pl.map_sequences(fail_on_three, list(range(6)))

    @fans_out
    def test_a_dead_worker_raises_instead_of_hanging(self, cpus):
        cpus(2)

        def die_on_three(i):
            if i == 3:
                os._exit(1)
            return i

        with pytest.raises(BrokenProcessPool):
            pl.map_sequences(die_on_three, list(range(6)))

    @fans_out
    def test_a_call_inside_a_worker_runs_in_that_worker(self, cpus):
        cpus(2)
        results = pl.map_sequences(lambda _: (os.getpid(), pl.map_sequences(lambda _: os.getpid(), [0, 1])), [0, 1])
        assert all(inner == [pid, pid] and pid != os.getpid() for pid, inner in results)

    @fans_out
    def test_a_wrapped_forward_keeps_tracking_in_process(self, cpus, monkeypatch):
        cpus(2)
        forward = TrackerModel.forward

        @functools.wraps(forward)
        def counted(*args, **kwargs):
            return forward(*args, **kwargs)

        monkeypatch.setattr(TrackerModel, "forward", counted)
        assert pl.sequence_workers(3) == 1
        assert pl.map_sequences(lambda _: os.getpid(), [0, 1, 2]) == [os.getpid()] * 3

    @fans_out
    def test_the_log_sums_seconds_and_keeps_the_most_workers(self, cpus):
        log = pl.FanOutLog()
        for n in (2, 1):
            cpus(n)
            pl.map_sequences(lambda i: i, [0, 1, 2], log)
        assert log.workers == 2 and log.seconds > 0
        assert re.fullmatch(r"tracked 12 frames in \d+\.\d s \(\d+ fps, 2 workers\)", log.line(12))

    @fans_out
    def test_reports_and_twin_rates_match_the_in_process_path(self, tiny_dataset, small_setup, small_cfg, tmp_path, cpus):
        _, _, model, _ = small_setup
        runs = {}
        for n in (1, 2):
            cpus(n)
            assert pl.sequence_workers(2) == n
            pl.evaluate(model, tiny_dataset, small_cfg, out_dir=tmp_path / str(n))
            files = {p.name: p.read_bytes() for p in (tmp_path / str(n)).iterdir()}
            runs[n] = (files, pl.twin_disambiguation(model, tiny_dataset, small_cfg))
        assert "report.json" in runs[1][0]
        assert runs[2] == runs[1]

    @fans_out
    def test_zero_size_first_box_in_a_dataset_stops_evaluate(self, tiny_dataset, small_setup, small_cfg, tmp_path, cpus):
        _, _, model, _ = small_setup
        data = tmp_path / "data"
        shutil.copytree(tiny_dataset, data)
        gt = data / "seq_001" / "groundtruth.txt"
        lines = gt.read_text().splitlines()
        gt.write_text("\n".join(["0,0,0,0"] + lines[1:]) + "\n")
        cpus(2)
        with pytest.raises(ContractError, match="sequence seq_001: the first box has no area"):
            pl.evaluate(model, data, small_cfg)


def parameter_bytes(model):
    return {name: t.data.tobytes() for name, t in model.named_parameters().items()}


def new_run(cfg, vocab):
    model = TrackerModel(cfg, vocab)
    return model, AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)


def reference_steps(model, opt, batch, cfg, steps=3):
    """``steps`` steps of ``oracles.two_shard_backward``, clipping and AdamW; their breakdowns."""
    logged = []
    for _ in range(steps):
        opt.zero_grad()
        breakdown = two_shard_backward(model, batch, cfg)
        breakdown["grad_norm"] = pl.clip_gradients(opt.params, cfg.clip_norm)
        opt.step()
        logged.append(breakdown)
    return logged


def force_in_process(monkeypatch, how):
    """Take away what forking a training peer needs: the ``fork`` call, or the OpenBLAS thread call."""
    if how == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(blas, "THREAD_CALLS", (("no_such_set_threads", "no_such_get_threads"),))


class TestShardedTrainStep:
    @pytest.fixture
    def batch_of(self, small_setup, small_cfg):
        records, vocab, _, _ = small_setup

        def sample(rows, seed=3):
            cfg = small_cfg.replace(batch_size=rows)
            return pl.sample_training_batch(records, np.random.default_rng(seed), cfg, vocab)

        return sample

    @pytest.mark.parametrize("ablate, rows", [("none", 4), ("no-mma", 4), ("vision-only", 4), ("none", 3)])
    def test_float64_shards_give_the_full_batch_gradient(self, small_setup, small_cfg, batch_of, ablate, rows):
        _, vocab, _, _ = small_setup
        cfg = small_cfg.replace(ablate=ablate)
        batch = batch_of(rows)
        model = TrackerModel(cfg, vocab).astype(np.float64)
        params = model.named_parameters()
        with nc.Tape() as tape:
            total, full = total_loss(pl.compute_losses(model, batch, cfg), cfg)
            tape.backward(total)
        expected = {name: t.grad for name, t in params.items()}
        sharded = two_shard_backward(model, batch, cfg)
        for name, t in params.items():
            if expected[name] is None:
                assert t.grad is None, name
            else:
                np.testing.assert_allclose(t.grad, expected[name], rtol=1e-9, atol=1e-15, err_msg=name)
        assert sharded.keys() == full.keys()
        for name in full:
            assert sharded[name] == pytest.approx(full[name], rel=0, abs=1e-12), name

    @pytest.mark.parametrize("ablate, calls", [("none", 2), ("no-mma", 0), ("vision-only", 0)])
    def test_only_a_contrastive_step_derives_the_other_shards_rows(
        self, small_setup, small_cfg, batch_of, monkeypatch, ablate, calls
    ):
        _, vocab, _, _ = small_setup
        cfg = small_cfg.replace(ablate=ablate)
        alignment_rows = TrackerModel.alignment_rows
        seen = []

        def counted(*args, **kwargs):
            seen.append(args)
            return alignment_rows(*args, **kwargs)

        monkeypatch.setattr(TrackerModel, "alignment_rows", counted)
        pl.local_backward(TrackerModel(cfg, vocab), batch_of(4), cfg)
        assert len(seen) == calls

    @fans_out
    @pytest.mark.parametrize("rows", [3, 5])  # unequal shards; shard 1 enters its own rows after shard 0's
    def test_peer_steps_match_the_in_process_reference(self, small_setup, small_cfg, batch_of, rows):
        _, vocab, _, _ = small_setup
        batch = batch_of(rows)
        model, opt = new_run(small_cfg, vocab)
        logged = [pl.train_step(model, batch, opt, small_cfg) for _ in range(3)]
        assert pl._peer.process.pid != os.getpid() and pl._peer.process.is_alive()
        reference, ref_opt = new_run(small_cfg, vocab)
        assert logged == reference_steps(reference, ref_opt, batch, small_cfg)
        assert parameter_bytes(model) == parameter_bytes(reference)

    @fans_out
    def test_one_usable_cpu_still_starts_the_peer(self, small_setup, small_cfg, batch_of, cpus):
        _, vocab, _, _ = small_setup
        batch = batch_of(4)
        runs = {}
        for n in (1, 2):
            cpus(n)
            model, opt = new_run(small_cfg, vocab)
            logged = [pl.train_step(model, batch, opt, small_cfg) for _ in range(3)]
            assert pl._peer.model() is model and pl._peer.process.is_alive()
            runs[n] = logged, parameter_bytes(model)
        assert runs[1] == runs[2]

    @fans_out
    @pytest.mark.parametrize("how", ["no-fork", "no-blas-call"])
    def test_the_in_process_path_matches_the_peer_bit_for_bit(self, small_setup, small_cfg, batch_of, monkeypatch, how):
        _, vocab, _, _ = small_setup
        batch = batch_of(4)
        peer_model, peer_opt = new_run(small_cfg, vocab)
        on_peer = [pl.train_step(peer_model, batch, peer_opt, small_cfg) for _ in range(3)]
        pl.close_peer()
        reference, ref_opt = new_run(small_cfg, vocab)
        expected = reference_steps(reference, ref_opt, batch, small_cfg)

        set_threads, get_threads = nc.blas_thread_calls()
        default = get_threads()
        forward = TrackerModel.forward
        threads_seen = []

        def recording(*args, **kwargs):
            threads_seen.append(get_threads())
            return forward(*args, **kwargs)

        set_threads(2)
        try:
            force_in_process(monkeypatch, how)
            monkeypatch.setattr(TrackerModel, "forward", recording)
            model, opt = new_run(small_cfg, vocab)
            logged = [pl.train_step(model, batch, opt, small_cfg) for _ in range(3)]
            assert pl._peer is None and multiprocessing.active_children() == []
            # one BLAS thread during the step where the call resolves, the caller's count again after it
            assert threads_seen == [1 if how == "no-fork" else 2] * 6 and get_threads() == 2
        finally:
            set_threads(default)
        assert logged == on_peer == expected
        assert parameter_bytes(model) == parameter_bytes(peer_model) == parameter_bytes(reference)

    def test_a_batch_of_one_steps_like_the_full_batch(self, small_setup, small_cfg):
        records, vocab, _, _ = small_setup
        cfg = small_cfg.replace(ablate="no-mma", batch_size=1)
        batch = pl.sample_training_batch(records, np.random.default_rng(3), cfg, vocab)
        model, opt = new_run(cfg, vocab)
        pl.train_step(model, batch, opt, cfg)
        assert pl._peer is None
        plain, plain_opt = new_run(cfg, vocab)
        plain_opt.zero_grad()
        with nc.Tape() as tape:
            total, _ = total_loss(pl.compute_losses(plain, batch, cfg), cfg)
            tape.backward(total)
        pl.clip_gradients(plain_opt.params, cfg.clip_norm)
        plain_opt.step()
        assert parameter_bytes(model) == parameter_bytes(plain)

    @fans_out
    def test_a_wrapped_forward_sees_one_forward_per_step_beside_the_peer(
        self, small_setup, small_cfg, batch_of, monkeypatch
    ):
        _, vocab, _, _ = small_setup
        forward = TrackerModel.forward
        callers = []

        @functools.wraps(forward)
        def counted(*args, **kwargs):
            callers.append(os.getpid())
            return forward(*args, **kwargs)

        monkeypatch.setattr(TrackerModel, "forward", counted)
        model, opt = new_run(small_cfg, vocab)
        for step in (1, 2, 3):
            pl.train_step(model, batch_of(4), opt, small_cfg)
            assert pl._peer.model() is model and pl._peer.process.is_alive()
            assert callers == [os.getpid()] * step

    @fans_out
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity calls")
    def test_training_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        data = tmp_path / "data"
        generate_args = ["--train-count", "2", "--eval-count", "1", "--seed", "5", "--frames", "12"]
        assert main(["generate", "--out", str(data), *generate_args]) == 0
        one_cpu = {min(os.sched_getaffinity(0))}
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pl.__file__)))
        script = "import sys; from vltrack.cli import main; sys.exit(main(sys.argv[1:]))"
        for name, pin in (("one", lambda: os.sched_setaffinity(0, one_cpu)), ("all", None)):
            run = subprocess.run(
                [sys.executable, "-c", script, "train", "--data", str(data / "train"), "--out", str(tmp_path / name),
                 "--iters", "8", "--seed", "3", "--quiet"],
                env=env, preexec_fn=pin, capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr
        for name in ("checkpoint.aio", "loss_log.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name

    @fans_out
    def test_peer_error_arrives_with_its_type_and_message(self, small_setup, small_cfg, batch_of):
        _, vocab, _, _ = small_setup
        batch = batch_of(4)
        bad = dataclasses.replace(batch, ids=batch.ids.copy())
        bad.ids[3, 1] = vocab.size + 5  # row 3 is in shard 1, whose rows both processes embed
        model = TrackerModel(small_cfg, vocab)
        opt = AdamW(model.named_parameters(), lr=1e-3, weight_decay=1e-4)
        before = parameter_bytes(model)
        with pytest.raises(VocabularyError, match=f"token id {vocab.size + 5} outside the embedding table"):
            pl.train_step(model, bad, opt, small_cfg)
        assert parameter_bytes(model) == before
        assert pl._peer is None and multiprocessing.active_children() == []
        pl.train_step(model, batch, opt, small_cfg)
        assert parameter_bytes(model) != before

    @fans_out
    def test_an_error_only_the_peer_meets_arrives_with_its_type_and_message(
        self, small_setup, small_cfg, batch_of, monkeypatch
    ):
        _, vocab, _, _ = small_setup
        caller, assemble = os.getpid(), pl.assemble_losses

        def failing_in_the_peer(*args):
            if os.getpid() != caller:
                raise ContractError("shard 1 failed in the peer")
            return assemble(*args)

        monkeypatch.setattr(pl, "assemble_losses", failing_in_the_peer)
        model, opt = new_run(small_cfg, vocab)
        before = parameter_bytes(model)
        with pytest.raises(ContractError, match="shard 1 failed in the peer"):
            pl.train_step(model, batch_of(4), opt, small_cfg)
        assert parameter_bytes(model) == before
        assert pl._peer is None and multiprocessing.active_children() == []

    def test_an_in_process_shard_1_error_arrives_with_its_type_and_message(
        self, small_setup, small_cfg, batch_of, monkeypatch
    ):
        force_in_process(monkeypatch, "no-fork")
        self.test_peer_error_arrives_with_its_type_and_message(small_setup, small_cfg, batch_of)

    @fans_out
    def test_a_killed_peer_raises_and_the_next_step_starts_a_fresh_one(self, small_setup, small_cfg, batch_of):
        _, vocab, _, _ = small_setup
        batch = batch_of(4)
        model = TrackerModel(small_cfg, vocab)
        opt = AdamW(model.named_parameters(), lr=1e-3, weight_decay=1e-4)
        pl.train_step(model, batch, opt, small_cfg)
        killed = pl._peer.process
        os.kill(killed.pid, signal.SIGKILL)
        killed.join(timeout=10)
        assert killed.exitcode == -signal.SIGKILL
        before = parameter_bytes(model)
        with pytest.raises(PeerDied, match="exited with code -9"):
            pl.train_step(model, batch, opt, small_cfg)
        assert parameter_bytes(model) == before
        pl.train_step(model, batch, opt, small_cfg)
        assert pl._peer.process.pid != killed.pid
        assert parameter_bytes(model) != before

    @fans_out
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("row", [0, 3])
    def test_a_non_finite_loss_in_either_shard_diverges(self, small_setup, small_cfg, batch_of, row):
        _, vocab, _, _ = small_setup
        batch = batch_of(4)
        bad = dataclasses.replace(batch, boxes=batch.boxes.copy())
        bad.boxes[row, 2] = np.inf
        model = TrackerModel(small_cfg, vocab)
        opt = AdamW(model.named_parameters(), lr=1e-3, weight_decay=1e-4)
        before = parameter_bytes(model)
        with pytest.raises(TrainingDiverged, match="non-finite loss; components"):
            pl.train_step(model, bad, opt, small_cfg)
        assert parameter_bytes(model) == before
        assert pl.train_step(model, batch, opt, small_cfg)["total"] > 0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("row", [0, 3])
    def test_a_non_finite_loss_in_either_in_process_shard_diverges(
        self, small_setup, small_cfg, batch_of, monkeypatch, row
    ):
        force_in_process(monkeypatch, "no-fork")
        self.test_a_non_finite_loss_in_either_shard_diverges(small_setup, small_cfg, batch_of, row)

    @fans_out
    @pytest.mark.parametrize("peer", [True, False], ids=["peer", "in-process"])
    def test_each_step_runs_at_one_blas_thread(self, small_setup, small_cfg, batch_of, monkeypatch, peer):
        # and the caller gets its own count back after every step, with or without a peer
        _, vocab, _, _ = small_setup
        set_threads, get_threads = nc.blas_thread_calls()
        default = get_threads()
        forward = TrackerModel.forward
        threads_seen = []

        def recording(*args, **kwargs):
            threads_seen.append(get_threads())
            return forward(*args, **kwargs)

        set_threads(2)
        try:
            if not peer:
                force_in_process(monkeypatch, "no-fork")
            monkeypatch.setattr(TrackerModel, "forward", recording)
            model = TrackerModel(small_cfg, vocab)
            opt = AdamW(model.named_parameters(), lr=1e-3, weight_decay=1e-4)
            for _ in range(2):
                pl.train_step(model, batch_of(4), opt, small_cfg)
                assert (pl._peer is not None) == peer and get_threads() == 2
            # the caller's forwards: shard 0's beside the peer, both shards' without it
            assert threads_seen == [1] * (2 if peer else 4)
            del model, opt
            gc.collect()
            assert pl._peer is None and get_threads() == 2
        finally:
            set_threads(default)

    @fans_out
    def test_another_model_replaces_the_peer(self, small_setup, small_cfg, batch_of):
        _, vocab, _, _ = small_setup
        batch = batch_of(4)
        first, second = TrackerModel(small_cfg, vocab), TrackerModel(small_cfg, vocab)
        for model in (first, second):
            pl.train_step(model, batch, AdamW(model.named_parameters(), lr=1e-3, weight_decay=1e-4), small_cfg)
            assert pl._peer.model() is model
            assert multiprocessing.active_children() == [pl._peer.process]
        pl.close_peer()
        assert pl._peer is None and multiprocessing.active_children() == []

    @fans_out
    def test_a_peer_left_running_is_stopped_at_exit(self, tiny_dataset):
        script = """
import sys
import numpy as np
from vltrack import pipeline as pl
from vltrack.config import Config
from vltrack.model import TrackerModel
cfg = Config().replace(dim=32, layers=1, heads=2, align_dim=16, head_channels="8,8,8", batch_size=4)
vocab = pl.resolve_vocab(cfg)
batch = pl.sample_training_batch(pl.load_dataset(sys.argv[1]), np.random.default_rng(0), cfg, vocab)
model = TrackerModel(cfg, vocab)
pl.train_step(model, batch, pl.AdamW(model.named_parameters(), lr=1e-3, weight_decay=1e-4), cfg)
print(pl._peer.process.pid)
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pl.__file__)))
        run = subprocess.run(
            [sys.executable, "-c", script, str(tiny_dataset)], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0 and run.stderr == "", run.stderr
        with pytest.raises(ProcessLookupError):
            os.kill(int(run.stdout), 0)
