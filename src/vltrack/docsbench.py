"""Reproduction recipes and verification harnesses.

Each recipe in the recipes/ directory is a JSON file naming a sequence of
``vltrack`` subcommands, run in-process, and a list of ``checks`` on their
outcome. A check that names a ``criterion`` gates that acceptance
criterion; each experiment-level criterion (1, 6, 7, 8) is defined by
exactly one recipe, which the acceptance suite runs.
``python -m vltrack.docsbench <name>`` runs one recipe; ``--all`` runs
everything and can emit a JUnit-style XML report.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import sys
import tempfile
import time
from dataclasses import dataclass, field
from xml.sax.saxutils import escape

import numpy as np

from .config import Config
from .errors import VLTrackError
from .numcore import Tape, grad_check, named_stream, probe_coords

RECIPES_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "recipes")

# A spread of parameters touching every module, checked for every loss; a
# loss that does not depend on one of them simply has a zero gradient there.
GRADCHECK_PARAMS = (
    "embed.patch_proj",
    "embed.pos_search",
    "embed.text_table",
    "mixup.weight",
    "enc0.q.weight",
    "enc1.ffn1.weight",
    "enc3.o.weight",
    "enc2.ln1.gain",
    "align.search.weight",
    "align.language.bias",
    "head.score.conv0.kernels",
    "head.offset.conv3.bias",
    "head.size.conv1.kernels",
)


def micro_batch(cfg: Config, vocab, n=2):
    """A small in-memory training batch: n twin scenarios, one pair each."""
    from .pipeline import assemble_batch
    from .synthdata import COLORS, MOTIONS, SHAPES, Scenario, memory_record, sample_pair

    rng = named_stream(cfg.seed, "gradcheck.batch")
    samples = []
    for i in range(n):
        scenario = Scenario(
            seed=9000 + i,
            shape=SHAPES[i % len(SHAPES)],
            color=COLORS[i % len(COLORS)],
            motion=MOTIONS[i % len(MOTIONS)],
            distractor_count=1,
            twin=True,
            clutter=0.4,
            num_frames=4,
            canvas=cfg.canvas,
        )
        record = memory_record(scenario, seq_id=f"micro{i}")
        samples.append(sample_pair(record, rng, cfg))
    return assemble_batch(samples, vocab, cfg.n_t)


def gradient_fidelity(cfg: Config | None = None, h=1e-6, tol=1e-3, coords_per_param=3):
    """Check every loss gradient on a 2-video micro-batch at desk config.

    The model is cloned to float64 and each loss (plus the weighted total)
    is compared against central differences on a representative parameter
    spread. The probe step defaults to 1e-6: the composite objective has
    ReLU kinks and cosine curvature at scales around 1e-3, so the probe must
    sit well inside the smooth neighborhood of the evaluation point (the
    float64 noise floor is still three orders below the tolerance).

    The six checks share their probe forwards, and the report stays
    bit-identical to six unshared checks: ``compute_losses`` is a
    deterministic function of the parameters and the fixed batch, so each
    state of the checked parameters, keyed by the exact bits of every entry
    that differs from its start, is forwarded once and every check reads its
    loss (or sums the total) from those components. A forward made while a
    tape records always runs fresh, so each check differentiates its own.
    Before the first check, the state of every probe ``grad_check`` will
    make (``probe_coords``) is forwarded through ``pipeline.map_sequences``,
    so the probes run in parallel workers where the host allows it; a state
    no probe reached runs fresh when a check asks for it.

    Returns a JSON-friendly report; each loss names its ``worst``
    coordinate: parameter, flat index, analytic and numeric gradient.
    """
    from .model import TrackerModel
    from .pipeline import compute_losses, map_sequences, resolve_vocab, total_loss

    cfg = (cfg or Config()).replace(batch_size=2)
    vocab = resolve_vocab(cfg)
    model = TrackerModel(cfg, vocab).astype(np.float64)
    batch = micro_batch(cfg, vocab, n=2)
    params = model.named_parameters()
    chosen = [name for name in GRADCHECK_PARAMS if name in params]
    inputs = [params[name] for name in chosen]
    flats = [t.data.reshape(-1) for t in inputs]
    start = [flat.view(np.int64).copy() for flat in flats]
    probes = {}  # perturbed state of the checked parameters -> its untaped loss components

    def state_key():
        state = []
        for k, (flat, bits0) in enumerate(zip(flats, start)):
            bits = flat.view(np.int64)
            state.extend((k, int(i), int(bits[i])) for i in np.flatnonzero(bits != bits0))
        return tuple(state)

    def components():
        if Tape.current is not None:
            return compute_losses(model, batch, cfg)
        key = state_key()
        if key not in probes:
            probes[key] = compute_losses(model, batch, cfg)
        return probes[key]

    def loss_fn(name):
        if name == "total":
            return lambda *_: total_loss(components(), cfg)[0]
        return lambda *_: components()[name]

    def probe(job):
        k, idx, value = job
        keep = flats[k][idx]
        flats[k][idx] = value
        try:
            return compute_losses(model, batch, cfg)
        finally:
            flats[k][idx] = keep

    started = time.perf_counter()
    jobs = {}  # probe state -> (input index, flat index, value), set as grad_check sets them
    for k, idx in probe_coords([t.size for t in inputs], coords_per_param):
        keep = flats[k][idx]
        for value in (keep + h, keep - h):
            flats[k][idx] = value
            jobs.setdefault(state_key(), (k, idx, value))
        flats[k][idx] = keep
    probes.update(zip(jobs, map_sequences(probe, list(jobs.values()))))
    report = {"h": h, "tol": tol, "losses": {}, "params": chosen}
    for name in ("cls", "giou", "l1", "cma", "ima", "total"):
        result = grad_check(loss_fn(name), inputs, h=h, tol=tol, max_coords_per_input=coords_per_param)
        worst = result.worst
        report["losses"][name] = {
            "max_rel_err": result.max_rel_err,
            "passed": result.passed,
            "coords": len(result.coords),
            "worst": {
                "param": chosen[worst.input_index],
                "index": worst.flat_index,
                "analytic": worst.analytic,
                "numeric": worst.numeric,
            },
        }
    report["runtime_s"] = time.perf_counter() - started
    report["passed"] = all(entry["passed"] for entry in report["losses"].values())
    return report


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRecipe:
    name: str
    description: str
    expected: str
    commands: list
    checks: list = field(default_factory=list)
    runtime_hint: str = "seconds"

    @property
    def criteria(self) -> list:
        """The acceptance criteria this recipe gates, read from its checks."""
        return sorted({check["criterion"] for check in self.checks if "criterion" in check})


@dataclass
class Outcome:
    passed: bool
    detail: str


@dataclass
class RecipeResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    command_seconds: list = field(default_factory=list)
    criteria: dict = field(default_factory=dict)  # criterion -> Outcome of its checks


def load_recipes(recipes_dir=None) -> dict:
    recipes_dir = recipes_dir or RECIPES_DIR
    recipes = {}
    if not os.path.isdir(recipes_dir):
        raise VLTrackError(f"recipes directory not found: {recipes_dir}")
    for fname in sorted(os.listdir(recipes_dir)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(recipes_dir, fname), encoding="utf-8") as fh:
            raw = json.load(fh)
        recipes[raw["name"]] = ExperimentRecipe(**raw)
    return recipes


def _recipe_argv(command: str, workdir: str) -> list:
    """The ``vltrack`` argv of one recipe command."""
    argv = [a.replace("{work}", workdir) for a in shlex.split(command)]
    if argv[0] != "vltrack":
        raise VLTrackError(f"recipe command runs unknown program {argv[0]!r}; recipes run only vltrack")
    return argv[1:]


def _json_value(path, keys):
    with open(path, encoding="utf-8") as fh:
        value = json.load(fh)
    for key in keys:
        value = value[key]
    return value


def _bounded(label: str, value: float, check: dict) -> tuple[bool, str]:
    """Hold value to the check's optional inclusive ``min`` and strict ``max``;
    with neither, the value is only reported."""
    need = [f"{op} {check[key]}" for key, op in (("min", ">="), ("max", "<")) if key in check]
    ok = check.get("min", -math.inf) <= value < check.get("max", math.inf)
    return ok, f"{label} = {value:.4g} ({'need ' + ', '.join(need) if need else 'reported'})"


def _check_outcome(check: dict, workdir: str, commands: list, command_seconds: list) -> tuple[bool, str]:
    """One check's (passed, detail). A check on a file no command wrote, or on
    the time of a command that never ran, fails and says so."""
    kind = check["kind"]
    if kind in ("json-number", "json-flag"):
        path = os.path.join(workdir, check["file"])
        if not os.path.isfile(path):
            return False, f"{check['file']} missing"
        label, value = ".".join(check["path"]), _json_value(path, check["path"])
        if kind == "json-number":
            return _bounded(label, value, check)
        return bool(value), f"{label} = {value}"
    if kind == "wall-time":
        index = check["command"]
        label = f"commands[{index}] ({' '.join(shlex.split(commands[index])[:2])}) seconds"
        if index >= len(command_seconds):
            return False, f"{label}: did not run"
        return _bounded(label, command_seconds[index], check)
    if kind == "identical":
        same = [_same_bytes(os.path.join(workdir, a), os.path.join(workdir, b)) for a, b in check["pairs"]]
        details = [f"{a} vs {b}: {'identical' if ok else 'DIFFER'}" for (a, b), ok in zip(check["pairs"], same)]
        return all(same), "; ".join(details)
    raise VLTrackError(f"unknown recipe check kind {kind!r}")


def _same_bytes(a, b) -> bool:
    """Byte-compare two files, or two directory trees file by file."""
    import filecmp

    def files(root):
        return sorted(os.path.relpath(os.path.join(r, f), root) for r, _, fs in os.walk(root) for f in fs)

    if os.path.isdir(a) and os.path.isdir(b):
        names = files(a)
        same = (filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False) for f in names)
        return names == files(b) and all(same)
    return os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)


def run_recipe(name: str, workdir=None, recipes_dir=None, quiet=False) -> RecipeResult:
    """Execute one recipe's commands, timing each, and evaluate its checks.

    The result holds every check's outcome, and per gated criterion the
    outcome of that criterion's checks. A recipe with no checks passes when
    its commands exit 0. A command that exits non-zero, argparse's exit on
    a bad command line included, stops the run; every check is still
    evaluated, and the recipe and each criterion it gates fail with a detail
    that starts with the failed command.
    """
    from . import cli

    recipes = load_recipes(recipes_dir)
    if name not in recipes:
        raise VLTrackError(f"no recipe named {name!r}; available: {', '.join(sorted(recipes))}")
    recipe = recipes[name]
    workdir = workdir or tempfile.mkdtemp(prefix=f"recipe-{name}-")
    os.makedirs(workdir, exist_ok=True)
    steps = [_recipe_argv(command, workdir) for command in recipe.commands]
    started = time.perf_counter()
    command_seconds = []
    failed = []  # the command that stopped the run, if one did
    for command, argv in zip(recipe.commands, steps):
        if not quiet:
            print(f"[{name}] $ {command.replace('{work}', workdir)}", flush=True)
        command_started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        command_seconds.append(time.perf_counter() - command_started)
        if not quiet:
            print(f"[{name}] {command_seconds[-1]:.1f}s", flush=True)
        if code != 0:
            hint = "run `vltrack generate` first if its inputs are missing"
            failed.append(f"command failed with exit {code}: {command} ({hint})")
            break
    checked = [
        (check.get("criterion"), *_check_outcome(check, workdir, recipe.commands, command_seconds))
        for check in recipe.checks
    ]
    criteria = {
        criterion: Outcome(
            not failed and all(ok for c, ok, _ in checked if c == criterion),
            "; ".join(failed + [detail for c, _, detail in checked if c == criterion]),
        )
        for criterion in recipe.criteria
    }
    passed = not failed and all(ok for _, ok, _ in checked)
    detail = "; ".join(failed + [detail for _, _, detail in checked]) or "commands exited 0"
    return RecipeResult(name, passed, detail, time.perf_counter() - started, command_seconds, criteria)


def write_junit(results, path):
    total = len(results)
    failures = sum(0 if r.passed else 1 for r in results)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<testsuite name="recipes" tests="{total}" failures="{failures}">',
    ]
    for r in results:
        lines.append(f'  <testcase name="{escape(r.name)}" time="{r.seconds:.3f}">')
        if not r.passed:
            lines.append(f'    <failure message="{escape(r.detail)}"/>')
        lines.append("  </testcase>")
    lines.append("</testsuite>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="vltrack.docsbench")
    parser.add_argument("recipe", nargs="?", help="recipe name")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--workdir")
    parser.add_argument("--junit", help="write a JUnit-style XML report")
    args = parser.parse_args(argv)

    recipes = load_recipes()
    if args.list:
        for name, recipe in sorted(recipes.items()):
            print(f"{name}: {recipe.description} (~{recipe.runtime_hint})")
        return 0
    names = sorted(recipes) if args.all else ([args.recipe] if args.recipe else [])
    if not names:
        parser.error("name a recipe, or use --all / --list")
    results = []
    for name in names:
        result = run_recipe(name, workdir=args.workdir)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {name}: {result.detail} ({result.seconds:.1f}s)")
    if args.junit:
        write_junit(results, args.junit)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
