"""Recipe loading, coverage of the acceptance criteria, and the runner."""

import dataclasses
import gc
import json
import math
import multiprocessing
import re
import time

import numpy as np
import pytest

import vltrack.align
import vltrack.backbone
import vltrack.docsbench
import vltrack.head
import vltrack.model
import vltrack.pipeline
from vltrack import numcore as nc
from vltrack.cli import build_parser
from vltrack.config import Config
from vltrack.docsbench import (
    GRADCHECK_PARAMS,
    _recipe_argv,
    gradient_fidelity,
    load_recipes,
    micro_batch,
    run_recipe,
    write_junit,
)
from vltrack.errors import ContractError, VLTrackError
from vltrack.model import TrackerModel
from vltrack.pipeline import assemble_losses, compute_losses, resolve_vocab, total_loss

LOSSES = ("cls", "giou", "l1", "cma", "ima", "total")
fans_out = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or nc.blas_thread_calls() is None,
    reason="needs the fork start method and numpy's OpenBLAS thread calls",
)
SMALL = Config().replace(dim=32, layers=1, heads=2, align_dim=16, head_channels="8,8,8")


def run_temp_recipe(tmp_path, commands, checks=()):
    """Run a one-off recipe from its own recipes directory, working in tmp_path/w."""
    recipe = {"name": "temp", "description": "x", "expected": "x", "commands": commands, "checks": list(checks)}
    rdir = tmp_path / "recipes"
    rdir.mkdir()
    (rdir / "temp.json").write_text(json.dumps(recipe))
    return run_recipe("temp", workdir=str(tmp_path / "w"), recipes_dir=str(rdir), quiet=True)


class TestRecipes:
    def test_recipes_load(self):
        recipes = load_recipes()
        assert {"gradcheck-all", "twin-disambiguation", "determinism"} <= set(recipes)
        for recipe in recipes.values():
            assert recipe.commands and recipe.expected

    def test_every_recipe_command_parses(self):
        # a recipe that uses a flag or a choice the CLI no longer accepts fails here, not minutes into a run
        parser = build_parser()
        for recipe in load_recipes().values():
            for command in recipe.commands:
                try:
                    parser.parse_args(_recipe_argv(command, "work"))
                except SystemExit:
                    pytest.fail(f"recipe {recipe.name}: the CLI rejects {command!r}")

    def test_every_acceptance_criterion_covered_exactly_once(self):
        # the experiment-level criteria; 2-5 are unit tests in test_acceptance.py
        recipes = load_recipes()
        coverage = {}
        for recipe in recipes.values():
            for criterion in recipe.criteria:
                coverage.setdefault(criterion, []).append(recipe.name)
        assert set(coverage) == {1, 6, 7, 8}, coverage
        for criterion, names in coverage.items():
            assert len(names) == 1, f"criterion {criterion} covered by {names}"

    def test_unknown_recipe_message_is_actionable(self):
        with pytest.raises(VLTrackError) as err:
            run_recipe("no-such-recipe")
        assert "available" in str(err.value)

    def test_missing_prerequisite_reports_actionably(self, tmp_path):
        # eval against a dataset that was never generated
        result = run_temp_recipe(tmp_path, ["vltrack eval --data {work}/nowhere --ckpt {work}/none.aio --out {work}/r"])
        assert not result.passed
        assert "generate" in result.detail

    def test_unknown_program_is_rejected_before_anything_runs(self, tmp_path):
        commands = ["vltrack generate --out {work}/data --train-count 1 --eval-count 0 --frames 4", "python -c 1"]
        with pytest.raises(VLTrackError, match="'python'"):
            run_temp_recipe(tmp_path, commands)
        assert not (tmp_path / "w" / "data").exists()

    def test_checks_report_per_criterion(self, tmp_path):
        # the max bound is strict, so the second criterion fails at equality
        meta = "data/train/seq_000/meta.json"
        result = run_temp_recipe(
            tmp_path,
            ["vltrack generate --out {work}/data --train-count 1 --eval-count 0 --frames 4"],
            [
                {"criterion": 1, "kind": "json-number", "file": meta, "path": ["num_frames"], "min": 4},
                {"criterion": 2, "kind": "json-number", "file": meta, "path": ["num_frames"], "max": 4},
                {"kind": "json-flag", "file": meta, "path": ["canvas"]},
            ],
        )
        assert set(result.criteria) == {1, 2} and not result.passed
        assert result.criteria[1].passed
        assert not result.criteria[2].passed
        assert result.criteria[2].detail == "num_frames = 4 (need < 4)"

    def test_wall_time_check_reads_its_own_command(self, tmp_path, monkeypatch):
        import vltrack.cli

        monkeypatch.setattr(vltrack.cli, "main", lambda argv: time.sleep(float(argv[1])) or 0)
        result = run_temp_recipe(
            tmp_path,
            ["vltrack sleep 0", "vltrack sleep 0.3"],
            [
                {"criterion": 1, "kind": "wall-time", "command": 0, "max": 0.2},
                {"criterion": 2, "kind": "wall-time", "command": 1, "max": 0.2},
            ],
        )
        assert len(result.command_seconds) == 2 and result.command_seconds[1] >= 0.3
        assert result.criteria[1].passed
        assert not result.criteria[2].passed
        assert f"{result.command_seconds[1]:.4g}" in result.criteria[2].detail

    def test_failed_command_still_evaluates_every_check(self, tmp_path, capsys, monkeypatch):
        # grad-check exits 1 on a failing loss but still writes its report;
        # a probe step of 0.5 is far too coarse for the checks to pass
        small = tmp_path / "small.cfg"
        small.write_text("dim=16\nlayers=1\nheads=2\nalign_dim=8\nhead_channels=4,4,4\n")
        monkeypatch.setattr(vltrack.docsbench, "gradient_fidelity", lambda cfg: gradient_fidelity(cfg, h=0.5))
        grad_check = f"vltrack grad-check --config {small} --out {{work}}/g.json"
        result = run_temp_recipe(
            tmp_path,
            [grad_check, "vltrack generate --out {work}/data --train-count 1 --eval-count 0 --frames 4"],
            [
                {"criterion": 1, "kind": "json-flag", "file": "g.json", "path": ["passed"]},
                {"criterion": 2, "kind": "json-number", "file": "data/train/seq_000/meta.json", "path": ["num_frames"]},
                {"criterion": 2, "kind": "wall-time", "command": 1, "max": 60},
            ],
        )
        assert not result.passed and len(result.command_seconds) == 1
        # each failing loss names where its worst coordinate is, in the report and on its FAIL line
        losses = json.loads((tmp_path / "w" / "g.json").read_text())["losses"]
        printed = capsys.readouterr().out
        assert not all(entry["passed"] for entry in losses.values())
        for name, entry in losses.items():
            worst = entry["worst"]
            assert worst["param"] in GRADCHECK_PARAMS
            if not entry["passed"]:
                assert f"FAIL {name}: " in printed and f"worst at {worst['param']}[{worst['index']}]" in printed
        failed = f"command failed with exit 1: {grad_check}"
        assert result.criteria[1].detail.startswith(failed)
        assert "passed = False" in result.criteria[1].detail
        assert not result.criteria[2].passed and result.criteria[2].detail.startswith(failed)
        assert "data/train/seq_000/meta.json missing" in result.criteria[2].detail
        assert "did not run" in result.criteria[2].detail

    @pytest.mark.parametrize(
        "command",
        [
            "vltrack twin-eval --data {work}/twin --ckpt {work}/missing.aio --out {work}/twin.json",
            "vltrack generate --out {work}/data --no-such-flag",
        ],
        ids=["missing-checkpoint", "unknown-flag"],
    )
    def test_a_command_exiting_2_fails_the_recipe_and_every_check_runs(self, tmp_path, command):
        result = run_temp_recipe(
            tmp_path,
            [command, "vltrack generate --out {work}/data --train-count 1 --eval-count 0 --frames 4"],
            [
                {"criterion": 7, "kind": "json-number", "file": "twin.json", "path": ["vl", "flip_rate"]},
                {"criterion": 8, "kind": "wall-time", "command": 1, "max": 60},
            ],
        )
        failed = f"command failed with exit 2: {command}"
        assert not result.passed and len(result.command_seconds) == 1
        assert result.criteria[7].detail.startswith(failed) and "twin.json missing" in result.criteria[7].detail
        assert result.criteria[8].detail.startswith(failed) and "did not run" in result.criteria[8].detail

    def test_junit_report_shape(self, tmp_path):
        from vltrack.docsbench import RecipeResult

        path = tmp_path / "report.xml"
        write_junit([RecipeResult("a", True, "ok", 0.1), RecipeResult("b", False, "bad < thing", 0.2)], path)
        text = path.read_text()
        assert 'tests="2"' in text and 'failures="1"' in text
        assert "&lt;" in text  # detail is escaped


class TestTwinEval:
    def test_rates_go_to_the_file_and_the_timing_line_to_the_console(self, tmp_path, capsys):
        from vltrack.cli import main

        cfg = tmp_path / "small.cfg"
        cfg.write_text("dim=32\nlayers=1\nheads=2\nalign_dim=16\nhead_channels=8,8,8\n")
        data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "twin.json"
        main(["generate", "--out", str(data), "--frames", "6", "--train-count", "2", "--eval-count", "0",
              "--twin-suite", "--twin-count", "2", "--seed", "1"])
        main(["train", "--config", str(cfg), "--data", str(data / "train"), "--out", str(run), "--iters", "0", "--quiet"])
        capsys.readouterr()
        assert main(["twin-eval", "--data", str(data / "twin"), "--ckpt", str(run / "checkpoint.aio"), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["vl"] and set(payload["vl"]) == {"correct_rate", "flip_rate", "frames"}
        assert payload["vl"]["frames"] == 10
        rates, timing = capsys.readouterr().out.strip().splitlines()
        assert rates.startswith("vl: correct ")
        # two sequences of 5 tracked frames, each tracked under both prompts
        assert re.fullmatch(r"tracked 20 frames in \d+\.\d s \(\d+ fps, (1 worker|2 workers)\)", timing), timing


class TestGradientFidelityHarness:
    def test_float64_clone_copies_the_parameters_without_the_init_streams(self, monkeypatch):
        cfg = SMALL
        model = TrackerModel(cfg, resolve_vocab(cfg))

        def no_draws(*args):
            raise AssertionError("astype drew from an init stream")

        for module in (vltrack.model, vltrack.backbone, vltrack.align, vltrack.head):
            monkeypatch.setattr(module, "named_stream", no_draws)
        for dtype in (np.float64, np.float32):
            clone = model.astype(dtype)
            assert clone.cfg is model.cfg and clone.vocab is model.vocab
            params = model.named_parameters()
            for name, t in clone.named_parameters().items():
                assert t.data.dtype == dtype and t.requires_grad and t.grad is None, name
                assert t.data.tobytes() == params[name].data.astype(dtype).tobytes(), name
                assert not np.shares_memory(t.data, params[name].data), name

    def test_micro_batch_shapes(self):
        cfg = Config().replace(batch_size=2)
        batch = micro_batch(cfg, resolve_vocab(cfg), n=2)
        assert batch.search.shape == (2, 3, 64, 64)
        assert batch.template.shape == (2, 3, 32, 32)
        assert batch.boxes.shape == (2, 4)

    def test_small_model_fidelity(self):
        report = gradient_fidelity(SMALL)
        assert set(report["losses"]) == set(LOSSES)
        assert report["passed"], report

    def test_nan_coordinate_fails_its_loss_and_is_named_worst(self, monkeypatch):
        def nan_at_second_coordinate(*args, **kwargs):
            report = nc.grad_check(*args, **kwargs)
            coord = report.coords[1]
            report.coords[1] = dataclasses.replace(coord, numeric=math.nan, rel_err=math.nan)
            return dataclasses.replace(report, max_rel_err=math.nan, passed=False)

        monkeypatch.setattr(vltrack.docsbench, "grad_check", nan_at_second_coordinate)
        report = gradient_fidelity(SMALL, coords_per_param=1)
        for name in LOSSES:
            entry = report["losses"][name]
            assert not entry["passed"] and math.isnan(entry["worst"]["numeric"]), name
        assert not report["passed"]

    @staticmethod
    def unshared_checks(cfg):
        """Six grad_checks as gradient_fidelity sets them up, each loss on a
        fresh compute_losses forward at every evaluation."""
        cfg = cfg.replace(batch_size=2)
        vocab = resolve_vocab(cfg)
        model = TrackerModel(cfg, vocab).astype(np.float64)
        batch = micro_batch(cfg, vocab, n=2)
        params = model.named_parameters()
        inputs = [params[name] for name in GRADCHECK_PARAMS if name in params]

        def loss_fn(name):
            if name == "total":
                return lambda *_: total_loss(compute_losses(model, batch, cfg), cfg)[0]
            return lambda *_: compute_losses(model, batch, cfg)[name]

        return {
            name: nc.grad_check(loss_fn(name), inputs, h=1e-6, tol=1e-3, max_coords_per_input=3) for name in LOSSES
        }

    @staticmethod
    def count_forwards(monkeypatch):
        """Record each forward in this process: ("forward", whether a tape was
        recording) per full forward and ("resume", stage) per resumed one."""
        calls = []
        forward, resume = TrackerModel.forward, TrackerModel.resume

        def counted_forward(self, *args):
            calls.append(("forward", nc.Tape.current is not None))
            return forward(self, *args)

        def counted_resume(self, kept, stage):
            calls.append(("resume", stage))
            return resume(self, kept, stage)

        monkeypatch.setattr(TrackerModel, "forward", counted_forward)
        monkeypatch.setattr(TrackerModel, "resume", counted_resume)
        return calls

    @staticmethod
    def assert_same_reports(report, reference):
        for name in LOSSES:
            entry, ref = report["losses"][name], reference[name]
            assert (entry["max_rel_err"], entry["coords"], entry["passed"]) == (
                ref.max_rel_err,
                len(ref.coords),
                ref.passed,
            ), name
            worst = max(ref.coords, key=lambda c: c.rel_err)
            assert (entry["worst"]["index"], entry["worst"]["numeric"]) == (worst.flat_index, worst.numeric), name

    @staticmethod
    def force_cpus(monkeypatch, n):
        monkeypatch.setattr(vltrack.pipeline, "usable_cpus", lambda: n)

    def test_checks_share_probe_forwards_exactly(self, monkeypatch):
        # every check probes the same coordinates: one taped forward for all
        # checks and no untaped full forward; every probe resumes the taped
        # forward, the embedding's 3 x 3 coordinates from "embed", all in
        # this process at one CPU
        reference = self.unshared_checks(SMALL)
        self.force_cpus(monkeypatch, 1)
        calls = self.count_forwards(monkeypatch)
        report = gradient_fidelity(SMALL)
        coords = report["losses"]["cls"]["coords"]
        full = 2 * 3 * sum(name.startswith("embed.") for name in GRADCHECK_PARAMS)
        resumed = [stage for kind, stage in calls if kind == "resume"]
        assert [call for call in calls if call[0] == "forward"] == [("forward", True)]
        assert len(resumed) == 2 * coords and resumed.count("embed") == full
        assert report["probe_forwards"] == {"all": 2 * coords, "full": full}
        self.assert_same_reports(report, reference)

    def test_tape_is_dropped_before_the_probes_fan_out(self, monkeypatch):
        # forking while the tape is alive copies it into every worker
        calls = self.count_forwards(monkeypatch)
        seen = []
        fan_out = vltrack.pipeline.map_sequences

        def inspected(fn, items, *args):
            tapes = [obj for obj in gc.get_objects() if isinstance(obj, nc.Tape)]
            seen.append((list(calls), tapes))
            return fan_out(fn, items, *args)

        monkeypatch.setattr(vltrack.pipeline, "map_sequences", inspected)
        gc.collect()
        gradient_fidelity(SMALL, coords_per_param=1)
        [(before, tapes)] = seen
        assert before == [("forward", True)] and tapes == []

    def test_shared_tape_gives_each_loss_its_own_tape_report(self, monkeypatch):
        # one backward per loss on one tape: every coordinate's analytic and
        # numeric gradient equals that of a fresh tape and fresh probes per loss
        reference = self.unshared_checks(SMALL)
        reports = []

        def recorded(*args, **kwargs):
            reports.append(nc.grad_check(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(vltrack.docsbench, "grad_check", recorded)
        gradient_fidelity(SMALL)
        assert len(reports) == len(LOSSES)
        for name, report in zip(LOSSES, reports):
            assert repr(report) == repr(reference[name]), name

    @pytest.mark.parametrize("ablate", ("none", "no-mma", "vision-only"))
    def test_resumed_forward_equals_the_full_forward_for_every_parameter(self, ablate):
        # two layers, so a forward also resumes past the first one
        cfg = SMALL.replace(batch_size=2, ablate=ablate, layers=2)
        vocab = resolve_vocab(cfg)
        model = TrackerModel(cfg, vocab).astype(np.float64)
        batch = micro_batch(cfg, vocab, n=2)
        with nc.Tape():
            kept = model.forward(batch.search, batch.template, batch.ids, batch.mask)

        def values(components):
            return repr({name: t.item() for name, t in components.items()})

        for name, t in model.named_parameters().items():
            flat = t.data.reshape(-1)
            idx = flat.size // 2
            keep = flat[idx]
            for value in (keep + 1e-3, keep - 1e-3):
                flat[idx] = value
                resumed = assemble_losses(model.resume(kept, model.stage_of(name)), batch.boxes, cfg)
                assert values(resumed) == values(compute_losses(model, batch, cfg)), (name, value)
            flat[idx] = keep
        stages = {model.stage_of(name) for name in model.named_parameters()}
        assert stages == {"embed", "mixup", "enc0", "enc1", "align", "head"}

    @pytest.mark.parametrize("stage", ("embed", "mixup", "enc1", "align", "head"))
    def test_resuming_an_untaped_forward_names_the_stage(self, stage):
        cfg = SMALL.replace(batch_size=2, layers=2)
        vocab = resolve_vocab(cfg)
        model = TrackerModel(cfg, vocab)
        batch = micro_batch(cfg, vocab, n=2)
        untaped = model.forward(batch.search, batch.template, batch.ids, batch.mask)
        assert untaped.layer_inputs is None
        with pytest.raises(ContractError, match=repr(stage)):
            model.resume(untaped, stage)

    @fans_out
    def test_probes_forwarded_in_workers_give_the_same_report(self, monkeypatch):
        self.force_cpus(monkeypatch, 1)
        alone = gradient_fidelity(SMALL)
        self.force_cpus(monkeypatch, 2)
        calls = self.count_forwards(monkeypatch)
        fanned = gradient_fidelity(SMALL)
        assert calls == [("forward", True)]  # every probe ran in a worker
        del alone["runtime_s"], fanned["runtime_s"]
        assert repr(fanned) == repr(alone)  # repr tells every float bit apart
