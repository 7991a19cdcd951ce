"""Command-line surface: generate | train | eval | twin-eval | track | grad-check.

Precedence for settings: built-in defaults < --config file < CLI flags. Every
command exits 0 on success and 2 with a one-line ``error: <kind>: <message>``
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import Config, load_config
from .errors import VLTrackError


def _apply_overrides(cfg: Config, args, fields) -> Config:
    updates = {}
    for flag, key in fields.items():
        value = getattr(args, flag)
        if value is not None:
            updates[key] = value
    return cfg.replace(**updates) if updates else cfg


def _base_config(args) -> Config:
    cfg = Config()
    if args.config:
        cfg = load_config(args.config, base=cfg)
    return cfg


def cmd_generate(args) -> int:
    from .synthdata import build_manifest, generate, sequence_hash

    out = args.out
    if os.path.isdir(out) and os.listdir(out) and not args.force:
        print(f"error: refusing to write into non-empty {out} (use --force)", file=sys.stderr)
        return 2
    splits = [
        ("train", build_manifest(args.seed, args.train_count, "train", args.frames, args.canvas, args.twin_fraction)),
        ("eval", build_manifest(args.seed, args.eval_count, "eval", args.frames, args.canvas, args.twin_fraction)),
    ]
    if args.twin_suite:
        splits.append(("twin", build_manifest(args.seed, args.twin_count, "twin", args.frames, args.canvas, 1.0)))
    for split, scenarios in splits:
        for i, scenario in enumerate(scenarios):
            seq_dir = os.path.join(out, split, f"seq_{i:03d}")
            generate(scenario, seq_dir)
            print(f"{split}/seq_{i:03d} {sequence_hash(seq_dir)}")
    return 0


def cmd_train(args) -> int:
    from .checkpoint import load_checkpoint
    from .pipeline import train

    cfg = _base_config(args)
    if args.resume:
        cfg = load_checkpoint(args.resume).config
        if args.config:
            cfg = load_config(args.config, base=cfg)
    cfg = _apply_overrides(
        cfg,
        args,
        {
            "seed": "seed",
            "iters": "iters",
            "batch": "batch_size",
            "lr": "lr",
            "ablate": "ablate",
            "train_prompt": "train_prompt",
        },
    )
    # without --out, a resumed run writes beside its checkpoint
    out_dir = args.out or os.path.dirname(args.resume or "") or "."
    _, ckpt_path, seconds = train(cfg, args.data, out_dir, resume=args.resume, quiet=args.quiet)
    print(f"checkpoint {ckpt_path} ({seconds:.1f}s)")
    return 0


def _load_model(ckpt_path, cfg_overrides=None):
    from .checkpoint import load_checkpoint
    from .model import TrackerModel
    from .pipeline import resolve_vocab

    state = load_checkpoint(ckpt_path)
    cfg = state.config if cfg_overrides is None else cfg_overrides(state.config)
    model = TrackerModel(cfg, resolve_vocab(cfg))
    model.load_state(state.params)
    return model, cfg


def cmd_eval(args) -> int:
    from .pipeline import FanOutLog, evaluate

    if args.oracle_gt:
        # the ground truth is scored against itself, so no model is built
        summary, _ = evaluate(None, args.data, Config(), out_dir=args.out, oracle_gt=True)
        print(json.dumps(summary, sort_keys=True))
        return 0

    def overrides(cfg: Config) -> Config:
        updates = {}
        if args.prompt_mode:
            updates["eval_prompt"] = args.prompt_mode
        if args.no_window:
            updates["window_weight"] = 0.0
        return cfg.replace(**updates) if updates else cfg

    model, cfg = _load_model(args.ckpt, overrides)
    log = FanOutLog()
    summary, reports = evaluate(model, args.data, cfg, out_dir=args.out, log=log)
    print(log.line(sum(r.n_frames - 1 for r in reports.values())))
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_twin_eval(args) -> int:
    """Twin-suite follow/flip rates for a model and its no-MMA ablation."""
    from .pipeline import FanOutLog, twin_disambiguation

    log = FanOutLog()

    def rates(ckpt_path):
        model, cfg = _load_model(ckpt_path)
        return twin_disambiguation(model, args.data, cfg, log)

    payload = {"vl": rates(args.ckpt)}
    if args.ablation:
        payload["ablation"] = rates(args.ablation)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    for name, entry in payload.items():
        print(f"{name}: correct {entry['correct_rate']:.3f} flip {entry['flip_rate']:.3f} over {entry['frames']} frames")
    # every frame is tracked twice, under the true and the swapped prompt
    print(log.line(sum(2 * entry["frames"] for entry in payload.values())))
    return 0


def cmd_track(args) -> int:
    from .pipeline import track_sequence
    from .synthdata import corner_line, parse_corner_line, read_lasot_format

    init_box = parse_corner_line(args.init_box) if args.init_box else None
    model, cfg = _load_model(args.ckpt)
    record = read_lasot_format(args.seq)
    preds = track_sequence(model, record, cfg, prompt_override=args.prompt, init_box=init_box)
    with open(args.out, "w", encoding="ascii") as fh:
        for b in preds:
            fh.write(corner_line(b) + "\n")
    print(f"wrote {len(preds)} boxes to {args.out}")
    return 0


def cmd_grad_check(args) -> int:
    from .docsbench import gradient_fidelity

    cfg = _apply_overrides(_base_config(args), args, {"seed": "seed"})
    report = gradient_fidelity(cfg)
    for name, entry in report["losses"].items():
        status = "PASS" if entry["passed"] else "FAIL"
        line = f"{status} {name}: max rel err {entry['max_rel_err']:.3e} ({entry['coords']} coords)"
        if not entry["passed"]:
            w = entry["worst"]
            line += f"; worst at {w['param']}[{w['index']}]: analytic {w['analytic']:.6e}, numeric {w['numeric']:.6e}"
        print(line)
    forwards = report.pop("probe_forwards")
    print(f"runtime {report['runtime_s']:.1f}s ({forwards['all']} probe forwards, {forwards['full']} full)")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return 0 if report["passed"] else 1


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ``error: ArgumentError`` line and exit 2.

    Subparsers are made from the parser's own class, so every command inherits it.
    """

    def error(self, message):
        self.exit(2, f"error: ArgumentError: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vltrack", description="Desk-scale vision-language tracker.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic train/eval datasets")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-count", type=int, default=32)
    p.add_argument("--eval-count", type=int, default=8)
    p.add_argument("--twin-count", type=int, default=8)
    p.add_argument("--twin-fraction", type=float, default=0.5)
    p.add_argument("--twin-suite", action="store_true", help="also write an all-twin eval suite")
    p.add_argument("--frames", type=int, default=40)
    p.add_argument("--canvas", type=int, default=128)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a tracker")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", help="run directory for checkpoints and logs")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--ablate", choices=("none", "no-mma", "vision-only"))
    p.add_argument("--train-prompt", choices=("sentence", "class"))
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="one-pass evaluation with five metrics")
    p.add_argument("--data", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ckpt")
    source.add_argument("--oracle-gt", action="store_true", help="score the ground truth against itself")
    p.add_argument("--out", required=True)
    p.add_argument("--prompt-mode", choices=("sentence", "class"))
    p.add_argument("--no-window", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("twin-eval", help="twin-suite follow and prompt-swap flip rates")
    p.add_argument("--data", required=True, help="twin-suite directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ablation", help="checkpoint of an ablated model, reported alongside")
    p.add_argument("--out", required=True, help="write the JSON rates here")
    p.set_defaults(func=cmd_twin_eval)

    p = sub.add_parser("track", help="track one sequence and write pred.txt")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--prompt", help="override the sequence prompt")
    p.add_argument("--init-box", help="x,y,w,h corner-format first-frame box")
    p.add_argument("--out", default="pred.txt")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("grad-check", help="finite-difference check of every loss gradient")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "oracle_gt", False) and (args.prompt_mode or args.no_window):
        # the oracle tracks no model, so the model's evaluation settings cannot apply
        parser.error("argument --oracle-gt: not allowed with --prompt-mode or --no-window")
    try:
        return args.func(args)
    except VLTrackError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: OSError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
