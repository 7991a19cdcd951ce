"""Input generator of the benchmark, run as a child process before measuring.

Writes the workload's seeded inputs with ``vltrack.synthdata`` under
``--out``, so that generator scratch memory and time stay out of the
measuring process. Refuses workload sizes whose target would leave the
canvas.

    python3 perfbench/gen.py --workload track-long --seed 3 --out DIR [--smoke]
"""

from __future__ import annotations

import argparse
import os
import sys
import zlib

from common import SIZES, WORKLOADS, import_vltrack, pin_threads

pin_threads()
import_vltrack()

from vltrack.synthdata import COLORS, MOTIONS, SHAPES, Scenario, build_manifest, build_tracks, generate  # noqa: E402

# build_tracks draws the target side from uniform(16, 26), and _line_path
# draws the speed from uniform(1.2, span / (frames - 1)) with span = canvas -
# side - 4. Below 1.2 px of span per frame that range inverts and the target
# can run off the canvas.
MAX_TARGET_SIDE = 26.0
MIN_SPEED = 1.2


def long_scenario(seed: int, frames: int, canvas: int) -> Scenario:
    """One long large-canvas sequence: target, one bouncing distractor, clutter."""
    return Scenario(
        seed=zlib.crc32(f"{seed}:long:0".encode("ascii")),
        shape=SHAPES[seed % len(SHAPES)],
        color=COLORS[seed % len(COLORS)],
        motion=MOTIONS[seed % len(MOTIONS)],
        distractor_count=1,
        clutter=0.5,
        num_frames=frames,
        canvas=canvas,
    )


def check_target_in_canvas(scenario: Scenario):
    """Raise ValueError unless the scenario's target stays inside the canvas."""
    span = scenario.canvas - MAX_TARGET_SIDE - 4.0
    if span / max(1, scenario.num_frames - 1) < MIN_SPEED:
        raise ValueError(
            f"{scenario.num_frames} frames on a {scenario.canvas} px canvas leave under "
            f"{MIN_SPEED} px per frame of travel; the target could leave the canvas"
        )
    target = build_tracks(scenario)[0]
    for t, (cx, cy, w, h) in enumerate(target.boxes):
        if cx - w / 2 < 0 or cy - h / 2 < 0 or cx + w / 2 > scenario.canvas or cy + h / 2 > scenario.canvas:
            raise ValueError(f"target leaves the canvas at frame {t} of scenario seed {scenario.seed}")


def splits_for(workload: str, seed: int, smoke: bool) -> dict:
    """Scenario lists per split directory for one workload."""
    s = SIZES[smoke]
    if workload == "train-desk":
        return {"train": build_manifest(seed, s["train_count"], "train", num_frames=s["frames"], canvas=s["canvas"])}
    if workload == "eval-short":
        return {"eval": build_manifest(seed, s["eval_count"], "eval", num_frames=s["frames"], canvas=s["canvas"])}
    if workload == "track-long":
        return {"long": [long_scenario(seed, s["long_frames"], s["long_canvas"])]}
    return {}  # gradcheck builds its own two-video micro-batch in memory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/gen.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    splits = splits_for(args.workload, args.seed, args.smoke)
    try:
        for scenarios in splits.values():
            for scenario in scenarios:
                check_target_in_canvas(scenario)
    except ValueError as exc:
        print(f"perfbench: rejected {args.workload} inputs: {exc}", file=sys.stderr)
        return 2
    for split, scenarios in splits.items():
        for i, scenario in enumerate(scenarios):
            generate(scenario, os.path.join(args.out, split, f"seq_{i:03d}"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
