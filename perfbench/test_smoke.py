"""The benchmark's own tests: a smoke run of every workload, and the output checks.

    python3 -m pytest perfbench/test_smoke.py

Smoke runs use --smoke (tiny inputs and model) and --seconds 1.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, ROOT, WORKLOADS, import_vltrack

import_vltrack()

import checks  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402
import tracer  # noqa: E402
from vltrack.head import BBox  # noqa: E402
from vltrack.synthdata import Scenario  # noqa: E402

# Exact per-op call counts that show the wrappers reach each workload's layers.
EXPECTED_CALLS = {
    "train-desk": {"model.forward_calls": 1, "numcore.backward.calls": 1, "pipeline.adamw.calls": 1},
    "eval-short": {"model.forward_calls": 1, "head.decode.calls": 1, "numcore.backward.calls": 0},
    "track-long": {"model.forward_calls": 1, "synthdata.frames_decoded": 24 / 23, "numcore.backward.calls": 0},
    "gradcheck": {"numcore.grad_check.calls": 1, "numcore.backward.calls": 1},
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    assert all(math.isfinite(entry["value"]) for entry in result["metrics"].values())
    if trace:
        for name, calls in EXPECTED_CALLS[workload].items():
            assert result["metrics"][name]["value"] == pytest.approx(calls), name
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_benchmark_json_matches_the_reported_metrics():
    declared = spec()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == tracer.per_layer_metrics()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_tracer_restores_every_wrapped_attribute():
    def current(path):
        owner, attr = tracer._resolve(path)
        return vars(owner)[attr]

    paths = [p for _, ps in tracer.LAYERS for p in ps]
    paths += ["vltrack.numcore.tensor:Tape.backward", "vltrack.synthdata:SequenceRecord.frame"]
    originals = {p: current(p) for p in paths}
    t = tracer.Tracer("test")
    t.install()
    try:
        assert all(current(p) is not originals[p] for p in paths)
    finally:
        t.uninstall()
    assert all(current(p) is originals[p] for p in paths)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("gradcheck", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generator_rejects_a_target_that_can_leave_the_canvas():
    gen.check_target_in_canvas(gen.long_scenario(0, 400, 512))
    with pytest.raises(ValueError):
        gen.check_target_in_canvas(Scenario(seed=1, num_frames=400, canvas=256))


def test_box_check_rejects_corrupted_boxes():
    canvas = (128, 128)
    assert checks.box_ok(BBox(64.0, 64.0, 10.0, 10.0, "image"), canvas)
    for bad in (
        BBox(math.nan, 64.0, 10.0, 10.0, "image"),
        BBox(64.0, 64.0, math.inf, 10.0, "image"),
        BBox(64.0, 64.0, 0.0, 10.0, "image"),
        BBox(3.0, 64.0, 10.0, 10.0, "image"),
        BBox(64.0, 125.0, 10.0, 10.0, "image"),
    ):
        assert not checks.box_ok(bad, canvas), bad


class _Record:
    canvas = (128, 128)

    def __len__(self):
        return 4


def test_frame_check_counts_missing_and_corrupted_boxes():
    good = BBox(64.0, 64.0, 10.0, 10.0, "image")
    nan_box = BBox(math.nan, 64.0, 10.0, 10.0, "image")
    assert checks.failed_frames([good] * 4, _Record()) == 0
    assert checks.failed_frames([good, good, nan_box, good], _Record()) == 1
    assert checks.failed_frames([good] * 3, _Record()) == 3


def test_step_checks_reject_non_finite_and_diverged_losses():
    assert checks.step_ok({"total": 3.0, "cls": 1.0, "grad_norm": 0.5})
    assert not checks.step_ok({"total": math.nan, "cls": 1.0, "grad_norm": 0.5})
    assert not checks.step_ok({"total": 3.0, "cls": 1.0, "grad_norm": math.inf})
    assert not checks.step_ok(None)
    assert checks.loss_trend([5.0] * 10 + [4.0] * 10)[0]
    assert not checks.loss_trend([4.0] * 10 + [5.0] * 10)[0]
    assert not checks.loss_trend([5.0] * 10 + [math.nan] * 10)[0]
    assert not checks.loss_trend([5.0] * 19)[0]


def test_gradcheck_and_oracle_checks_reject_failures():
    losses = {name: {"passed": True} for name in ("cls", "giou", "l1", "cma", "ima", "total")}
    assert checks.gradcheck_failures({"passed": True, "losses": losses}) == 0
    failing = dict(losses, cma={"passed": False})
    assert checks.gradcheck_failures({"passed": False, "losses": failing}) == 1
    perfect = dict.fromkeys(checks.ORACLE_METRICS, 1.0)
    assert checks.oracle_ok(perfect)[0]
    assert not checks.oracle_ok(dict(perfect, cAUC=0.999))[0]
