"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-5 are unit-level and checked here. Criteria 1, 6, 7 and 8 are
experiments, each defined by the one recipe in recipes/ that gates it, and
their tests run that recipe: ``gradcheck-all`` (1), ``twin-disambiguation``
(6 and 7) and ``determinism`` (8). ``twin-disambiguation`` trains two desk
models (about 1 minute each on 2 cores) once per session; run the file with
``pytest tests/test_acceptance.py -v -s`` to watch its commands.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
from oracles import cma_oracle, ima_oracle

from vltrack import align
from vltrack import head as hd
from vltrack.config import Config
from vltrack.docsbench import run_recipe
from vltrack.head import BBox
from vltrack.model import TrackerModel
from vltrack.numcore import Tensor
from vltrack.pipeline import compute_metrics, resolve_vocab, total_loss

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "hand_values.json")


def report(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, file=sys.stderr, flush=True)
    assert passed, line


def report_recipe(criterion, result):
    outcome = result.criteria[criterion]
    report(criterion, outcome.passed, f"{result.name}: {outcome.detail}")


@pytest.fixture(scope="session")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def twin_recipe(tmp_path_factory):
    """One run of the recipe that gates criteria 6 and 7."""
    return run_recipe("twin-disambiguation", workdir=str(tmp_path_factory.mktemp("twin")))


class TestCriterion1GradientFidelity:
    def test_gradient_fidelity(self, tmp_path):
        report_recipe(1, run_recipe("gradcheck-all", workdir=str(tmp_path), quiet=True))


class TestCriterion2ContrastiveOracle:
    def test_oracle_equivalence_and_closed_forms(self):
        worst = 0.0
        rng = np.random.default_rng(1234)
        for n in range(2, 9):
            fx = Tensor(rng.normal(size=(n, 16)).astype(np.float32))
            fz = Tensor(rng.normal(size=(n, 16)).astype(np.float32))
            ft = Tensor(rng.normal(size=(n, 16)).astype(np.float32))
            for mode in ("standard", "literal"):
                cma = align.cma_loss(fx, fz, ft, 0.5, mode).item()
                ima = align.ima_loss(fx, fz, 0.5, mode).item()
                worst = max(worst, abs(cma - cma_oracle(fx.data, fz.data, ft.data, 0.5, mode)))
                worst = max(worst, abs(ima - ima_oracle(fx.data, fz.data, 0.5, mode)))
        same = Tensor(np.tile([0.6, -0.8], (2, 1)).astype(np.float32))
        cma_closed = abs(align.cma_loss(same, same, same, 0.5, "standard").item() - 2 * math.log(2))
        ima_closed = abs(align.ima_loss(same, same, 0.5, "standard").item() - math.log(3))
        worst = max(worst, cma_closed, ima_closed)
        report(2, worst < 1e-6, f"vectorized vs double-loop oracle, N=2..8, both modes: max |diff| {worst:.2e} < 1e-6")


class TestCriterion3MixupIdentity:
    def test_zero_gate_forward_is_bit_exact(self):
        cfg = Config()
        model = TrackerModel(cfg, resolve_vocab(cfg))
        model.backbone.mixup.weight.data[:] = 0.0
        model.backbone.mixup.bias.data[:] = 0.0
        # the same parameters under a config whose forward runs no mixup
        vision_only = TrackerModel(cfg.replace(ablate="vision-only"), model.vocab)
        vision_only.load_state({name: t.data for name, t in model.named_parameters().items()})
        rng = np.random.default_rng(5)
        search = rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        template = rng.uniform(0, 1, (1, 3, 32, 32)).astype(np.float32)
        from vltrack.embedders import tokenize

        tp = tokenize("red circle moving left", model.vocab, cfg.n_t)
        ids = np.asarray([tp.ids])
        mask = np.asarray([tp.mask], dtype=np.float32)
        with_lang = model.forward(search, template, ids, mask)
        without = vision_only.forward(search, template, ids, mask)
        same = (
            with_lang.head.score.data.tobytes() == without.head.score.data.tobytes()
            and with_lang.head.offset.data.tobytes() == without.head.offset.data.tobytes()
            and with_lang.head.size.data.tobytes() == without.head.size.data.tobytes()
            and with_lang.search_tokens.data.tobytes() == without.search_tokens.data.tobytes()
            and with_lang.template_tokens.data.tobytes() == without.template_tokens.data.tobytes()
        )
        report(3, same, "zero language gate equals the language-free forward bit for bit")


class TestCriterion4LossHandValues:
    def test_hand_values_match_golden_file(self, golden):
        diffs = {}
        loss = hd.focal_loss(Tensor(np.full((1, 1, 1), 0.5, np.float32)), np.ones((1, 1, 1)))
        diffs["focal_pos"] = abs(loss.item() - golden["focal_single_pos_p_half"])
        loss = hd.focal_loss(Tensor(np.full((1, 1, 1), 0.5, np.float32)), np.zeros((1, 1, 1)))
        diffs["focal_neg"] = abs(loss.item() - golden["focal_single_neg_p_half"])

        # the trainer's own box losses, on float32 (1, 4) cxcywh rows as it calls them
        def box_loss(loss_fn, pred, gt):
            def row(b):
                return np.array([[b.cx, b.cy, b.w, b.h]], np.float32)

            return loss_fn(Tensor(row(pred)), row(gt)).item()

        b = BBox(10, 10, 4, 4)
        diffs["giou_identical"] = abs(box_loss(hd.giou_loss_tensor, b, b) - golden["giou_identical"])
        diffs["giou_corner"] = abs(
            box_loss(hd.giou_loss_tensor, BBox.from_xyxy(0, 0, 2, 2), BBox.from_xyxy(1, 1, 3, 3))
            - golden["giou_corner_overlap"]
        )
        diffs["giou_disjoint"] = abs(
            box_loss(hd.giou_loss_tensor, BBox.from_xyxy(0, 0, 1, 1), BBox.from_xyxy(2, 2, 3, 3))
            - golden["giou_disjoint"]
        )
        diffs["l1"] = abs(
            box_loss(hd.l1_loss_tensor, BBox(0.5, 0.5, 0.2, 0.2), BBox(0.4, 0.5, 0.2, 0.3)) - golden["l1_hand_example"]
        )

        comps = {
            "cls": Tensor(np.array(0.1, np.float32)),
            "giou": Tensor(np.array(0.2, np.float32)),
            "l1": Tensor(np.array(0.04, np.float32)),
            "cma": Tensor(np.array(1.0, np.float32)),
            "ima": Tensor(np.array(0.5, np.float32)),
        }
        total, _ = total_loss(comps, Config(lambda_giou=2.0, lambda_l1=5.0, lambda_cma=1.0, lambda_ima=1.0))
        diffs["eq12_total"] = abs(total.item() - golden["total_eq12_example"])
        worst = max(diffs.values())
        report(4, worst <= 1e-5, f"focal/GIoU/L1/total hand values vs golden file: max |diff| {worst:.2e} <= 1e-5")


class TestCriterion5MetricOracle:
    def test_metric_hand_trajectories(self):
        perfect_gts = [BBox(10 + i, 12 + i, 8, 8, "image") for i in range(5)]
        perfect = compute_metrics(list(perfect_gts), perfect_gts)
        ok_perfect = (perfect.p, perfect.p_norm, perfect.auc, perfect.cauc, perfect.acc) == (1.0, 1.0, 1.0, 1.0, 1.0)

        gts = [BBox(20, 20, 10, 10, "image")] * 4
        half = compute_metrics([BBox(20, 20, 10, 5, "image")] * 4, gts)
        ok_auc = half.auc == 11 / 21

        off = compute_metrics([BBox(50, 20, 10, 10, "image")] * 4, gts)
        ok_p = off.p == 0.0
        report(
            5,
            ok_perfect and ok_auc and ok_p,
            f"perfect -> all ones ({ok_perfect}); IoU 0.5 -> AUC {half.auc:.6f} == 11/21; 30 px error -> P {off.p}",
        )


class TestCriterion6OverfitSmoke:
    def test_overfit_training_tracks_its_own_sequences(self, twin_recipe):
        report_recipe(6, twin_recipe)


class TestCriterion7LanguageDisambiguation:
    def test_twin_suite_follow_and_flip(self, twin_recipe):
        report_recipe(7, twin_recipe)


class TestCriterion8Determinism:
    def test_datasets_checkpoints_reports_byte_identical(self, tmp_path):
        report_recipe(8, run_recipe("determinism", workdir=str(tmp_path), quiet=True))
