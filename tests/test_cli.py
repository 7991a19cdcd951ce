"""Config parsing, checkpoint persistence, and the command-line surface."""

import dataclasses
import json
import os
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from vltrack.checkpoint import RETIRED_KEYS, load_checkpoint, save_checkpoint
from vltrack.cli import main
from vltrack.config import Config, load_config, parse_config_text
from vltrack.errors import CheckpointError, ConfigurationError
from vltrack.model import TrackerModel
from vltrack.numcore import Tensor, named_stream
from vltrack.pipeline import AdamW, evaluate, resolve_vocab

def small_config_text():
    return "dim=32\nlayers=1\nheads=2\nalign_dim=16\nhead_channels=8,8,8\n"


@pytest.fixture
def small_cfg_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(small_config_text())
    return str(path)


class TestConfig:
    def test_defaults_are_desk_profile(self):
        cfg = Config()
        assert (cfg.dim, cfg.layers, cfg.heads) == (96, 4, 4)
        assert (cfg.patch, cfg.search_size, cfg.template_size) == (8, 64, 32)
        assert (cfg.tau, cfg.lambda_giou, cfg.lambda_l1) == (0.5, 2.0, 5.0)
        assert (cfg.lambda_cma, cfg.lambda_ima) == (1.0, 1.0)
        assert (cfg.lr, cfg.iters, cfg.batch_size) == (4e-4, 2000, 8)

    def test_parse_overrides_and_comments(self):
        cfg = parse_config_text("# comment\nlayers=2\ntau=0.25  # inline\n", base=Config())
        assert cfg.layers == 2 and cfg.tau == 0.25

    @pytest.mark.parametrize("key", ["no_such_key", "canvas", "num_frames", "data_dir", "out_dir"])
    def test_unknown_key_rejected(self, key):
        # the four retired data and run-directory keys are unknown like any other
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
            parse_config_text(f"{key}=1\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("just words\n")

    def test_text_roundtrip(self):
        cfg = Config().replace(layers=2, tau=0.25, window_weight=0.0)
        again = parse_config_text(cfg.to_text())
        assert again == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = Config().replace(dim=48, heads=3)
        path = tmp_path / "c.cfg"
        path.write_text(cfg.to_text(), encoding="utf-8")
        assert load_config(path) == cfg

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Config(dim=30, heads=4)
        with pytest.raises(ConfigurationError):
            Config(tau=-1.0)
        with pytest.raises(ConfigurationError):
            Config(denominator_mode="middle")
        with pytest.raises(ConfigurationError):
            Config(head_channels="8,8")

    @pytest.mark.parametrize(
        "values",
        [
            {"tau": 0.0},
            {"denominator_mode": "both"},
            {"heads": 5, "dim": 8},
            {"heads": 0},
            {"layers": -1},
            {"search_size": 60},
            {"dim": 0},
            {"align_dim": 0},
            {"search_size": 0},
            {"template_size": 0},
            {"iters": -5},
            {"batch_size": 0, "ablate": "no-mma"},
            {"log_every": 0},
            {"checkpoint_every": 0},
        ],
        ids=[
            "tau",
            "denominator_mode",
            "dim-heads",
            "heads",
            "layers",
            "search_size-patch",
            "dim",
            "align_dim",
            "search_size",
            "template_size",
            "iters",
            "batch_size",
            "log_every",
            "checkpoint_every",
        ],
    )
    def test_model_description_rejected(self, values):
        # Config is the only validator of the model and loss fields
        with pytest.raises(ConfigurationError):
            Config(**values)

    def test_full_scale_values_remain_valid(self):
        cfg = Config(
            patch=16,
            search_size=256,
            template_size=128,
            dim=768,
            layers=12,
            heads=12,
            align_dim=256,
            head_channels="256,128,64",
        )
        assert cfg.head_channel_plan == (256, 128, 64)

    def test_readme_table_names_every_key_once(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | set or backed by |\n", 1)[1].split("\n\n", 1)[0]
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        named = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(named) == sorted(f.name for f in dataclasses.fields(Config))
        assert not set(named) & set(RETIRED_KEYS)


class TestCheckpoint:
    def make_parts(self, tmp_path):
        cfg = Config().replace(dim=32, layers=1, heads=2, align_dim=16, head_channels="8,8,8")
        model = TrackerModel(cfg, resolve_vocab(cfg))
        opt = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        rng = named_stream(cfg.seed, "train.sampler")
        return cfg, model, opt, rng

    def test_save_load_save_is_byte_identical(self, tmp_path):
        cfg, model, opt, rng = self.make_parts(tmp_path)
        a = tmp_path / "a.aio"
        b = tmp_path / "b.aio"
        save_checkpoint(a, cfg, model, opt, 5, rng.bit_generator.state)
        state = load_checkpoint(a)
        model2 = TrackerModel(state.config, resolve_vocab(state.config))
        model2.load_state(state.params)
        opt2 = AdamW(model2.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        opt2.load_state_dict(state.optimizer)
        save_checkpoint(b, state.config, model2, opt2, state.iteration, state.rng_state)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_and_iteration(self, tmp_path):
        cfg, model, opt, rng = self.make_parts(tmp_path)
        path = tmp_path / "c.aio"
        save_checkpoint(path, cfg, model, opt, 42, rng.bit_generator.state)
        assert path.read_bytes()[:4] == b"AIO1"
        assert load_checkpoint(path).iteration == 42

    def test_mismatched_config_fails_fast(self, tmp_path):
        cfg, model, opt, rng = self.make_parts(tmp_path)
        path = tmp_path / "c.aio"
        save_checkpoint(path, cfg, model, opt, 0, rng.bit_generator.state)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect=cfg.replace(dim=64))

    def test_retired_keys_load_only_at_their_former_default(self, tmp_path):
        cfg, model, opt, rng = self.make_parts(tmp_path)
        path = tmp_path / "c.aio"
        save_checkpoint(path, cfg, model, opt, 3, rng.bit_generator.state)
        original = path.read_bytes()

        def with_retired_lines(**retired):
            # splice the lines into the sorted config block, as a checkpoint
            # written while these keys existed stored them
            (n,) = struct.unpack("<I", original[8:12])
            lines = original[12 : 12 + n].decode("utf-8").splitlines(keepends=True)
            lines += [f"{key}={value}\n" for key, value in retired.items()]
            block = "".join(sorted(lines)).encode("utf-8")
            old = tmp_path / "old.aio"
            old.write_bytes(original[:8] + struct.pack("<I", len(block)) + block + original[12 + n :])
            return old

        former = dict(
            canvas="256",
            data_dir="data/train",
            focal_alpha="2.0",
            focal_beta="4.0",
            lang_pool="mean",
            mean_includes_cls="true",
            mixup_shared_linear="true",
            norm_placement="post",
            num_frames="6",
            out_dir="run",
            text_embed_std="1.0",
            token_reduce="mean",
            window_enabled="true",
        )
        state = load_checkpoint(with_retired_lines(**former))
        assert state.config == cfg
        for name, arr in load_checkpoint(path).params.items():
            assert state.params[name].tobytes() == arr.tobytes()
        model2 = TrackerModel(state.config, resolve_vocab(state.config))
        model2.load_state(state.params)
        opt2 = AdamW(model2.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        opt2.load_state_dict(state.optimizer)
        resaved = tmp_path / "resaved.aio"
        save_checkpoint(resaved, state.config, model2, opt2, state.iteration, state.rng_state)
        assert resaved.read_bytes() == original

        with pytest.raises(CheckpointError, match="norm_placement=pre"):
            load_checkpoint(with_retired_lines(**dict(former, norm_placement="pre")))
        with pytest.raises(CheckpointError, match="window_enabled=false"):
            load_checkpoint(with_retired_lines(**dict(former, window_enabled="false")))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.aio")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.aio"
        path.write_bytes(b"AIO1" + b"\x00" * 4)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def saved_with_moments(self, tmp_path):
        """A saved checkpoint whose m and v hold distinct values, with its parts."""
        cfg, model, opt, rng = self.make_parts(tmp_path)
        fill = np.random.default_rng(5)
        for name in opt.m:
            opt.m[name][...] = fill.standard_normal(opt.m[name].shape)
            opt.v[name][...] = fill.random(opt.v[name].shape)
        path = tmp_path / "c.aio"
        save_checkpoint(path, cfg, model, opt, 7, rng.bit_generator.state)
        return path, model, opt

    def test_a_cut_in_any_section_is_a_truncated_checkpoint(self, tmp_path):
        path, model, *_ = self.saved_with_moments(tmp_path)
        blob = path.read_bytes()
        (config_len,) = struct.unpack("<I", blob[8:12])
        params = model.named_parameters()
        payload = 4 * sum(t.size for t in params.values())
        # per parameter: u16 name length, name, u8 ndim, u32 dims, payload
        headers = sum(3 + len(name.encode("utf-8")) + 4 * t.ndim for name, t in params.items())
        params_end = 12 + config_len + 4 + headers + payload
        rng_start = params_end + 4 + 2 * payload + 8
        assert struct.unpack("<I", blob[rng_start : rng_start + 4]) == (len(blob) - rng_start - 4,)
        cuts = {
            "header": 12 + config_len // 2,
            "parameter": params_end - 2,  # inside the last parameter's payload
            "moments": params_end + 4 + payload + 2,
            "rng": rng_start + 4 + (len(blob) - rng_start - 4) // 2,
        }
        for section, at in cuts.items():
            cut = tmp_path / f"cut-{section}.aio"
            cut.write_bytes(blob[:at])
            with pytest.raises(CheckpointError, match=f"^{re.escape(str(cut))}: truncated checkpoint$"):
                load_checkpoint(cut)

    def test_a_corrupt_dimension_is_a_truncated_checkpoint(self, tmp_path):
        # the first parameter claims 2**31 rows: rejected before any buffer is sized
        path, model, _ = self.saved_with_moments(tmp_path)
        blob = bytearray(path.read_bytes())
        (config_len,) = struct.unpack("<I", blob[8:12])
        name = sorted(model.named_parameters())[0].encode("utf-8")
        dims_at = 12 + config_len + 4 + 2 + len(name) + 1
        blob[dims_at : dims_at + 4] = struct.pack("<I", 2**31)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated checkpoint$"):
            load_checkpoint(path)

    def test_one_extra_byte_is_named(self, tmp_path):
        path, *_ = self.saved_with_moments(tmp_path)
        longer = tmp_path / "longer.aio"
        longer.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(longer))}: 1 trailing bytes$"):
            load_checkpoint(longer)

    def test_loaded_arrays_are_writable_contiguous_float32_and_bit_equal(self, tmp_path):
        path, model, opt = self.saved_with_moments(tmp_path)
        state = load_checkpoint(path)
        saved = {
            "params": {name: t.data for name, t in model.named_parameters().items()},
            "m": opt.m,
            "v": opt.v,
        }
        loaded = {"params": state.params, "m": state.optimizer["m"], "v": state.optimizer["v"]}
        for part, arrays in saved.items():
            assert set(loaded[part]) == set(arrays), part
            for name, arr in arrays.items():
                got = loaded[part][name]
                assert got.dtype == np.float32 and got.flags.writeable and got.flags.c_contiguous, (part, name)
                assert got.shape == arr.shape and got.tobytes() == arr.tobytes(), (part, name)

    def test_a_file_in_the_documented_layout_loads_to_its_arrays(self, tmp_path):
        # encoded from the layout in the checkpoint module's docstring, apart
        # from save_checkpoint, so a reader change cannot move the format
        fill = np.random.default_rng(6)
        arrays = {
            "a.scale": np.array(1.5, dtype="<f4"),
            "b.weight": fill.standard_normal((2, 3)).astype("<f4"),
            "c.bias": fill.standard_normal(4).astype("<f4"),
        }
        moments = {name: (arr * 2, arr + 1) for name, arr in arrays.items()}
        config_text = Config().to_text().encode("utf-8")
        rng_blob = json.dumps({"state": 3}).encode("ascii")
        parts = [b"AIO1", struct.pack("<II", 1, len(config_text)), config_text, struct.pack("<I", len(arrays))]
        for name, arr in arrays.items():
            shape = struct.pack(f"<{arr.ndim}I", *arr.shape)
            parts += [struct.pack("<H", len(name)), name.encode("utf-8"), struct.pack("<B", arr.ndim), shape, arr.tobytes()]
        parts.append(struct.pack("<I", 9))
        for m, v in moments.values():
            parts += [m.tobytes(), v.tobytes()]
        parts += [struct.pack("<QI", 11, len(rng_blob)), rng_blob]
        path = tmp_path / "layout.aio"
        path.write_bytes(b"".join(parts))

        state = load_checkpoint(path)
        assert (state.config, state.iteration, state.rng_state) == (Config(), 11, {"state": 3})
        assert state.optimizer["step"] == 9
        for name, arr in arrays.items():
            m, v = moments[name]
            for got, want in ((state.params[name], arr), (state.optimizer["m"][name], m), (state.optimizer["v"][name], v)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        cfg, model, opt, rng = self.make_parts(tmp_path)
        path = tmp_path / "c.aio"
        save_checkpoint(path, cfg, model, opt, 4, rng.bit_generator.state)
        before = path.read_bytes()

        class MissingMoments:
            step_count, m, v = opt.step_count, {}, opt.v  # fails after the parameters are written

        with pytest.raises(KeyError):
            save_checkpoint(path, cfg, model, MissingMoments(), 8, rng.bit_generator.state)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.aio"]

    def test_rng_state_roundtrip_preserves_stream(self, tmp_path):
        cfg, model, opt, rng = self.make_parts(tmp_path)
        rng.uniform(size=7)  # advance
        path = tmp_path / "c.aio"
        save_checkpoint(path, cfg, model, opt, 0, rng.bit_generator.state)
        upcoming = rng.uniform(size=5)
        fresh = named_stream(cfg.seed, "train.sampler")
        fresh.bit_generator.state = load_checkpoint(path).rng_state
        np.testing.assert_array_equal(fresh.uniform(size=5), upcoming)


class TestCliGenerate:
    def test_default_manifest_counts(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["generate", "--out", str(out), "--frames", "4", "--train-count", "3", "--eval-count", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert len(os.listdir(out / "train")) == 3
        assert len(os.listdir(out / "eval")) == 2

    def test_same_seed_same_hashes(self, tmp_path, capsys):
        main(["generate", "--out", str(tmp_path / "a"), "--seed", "7", "--frames", "4", "--train-count", "2", "--eval-count", "0"])
        first = capsys.readouterr().out
        main(["generate", "--out", str(tmp_path / "b"), "--seed", "7", "--frames", "4", "--train-count", "2", "--eval-count", "0"])
        second = capsys.readouterr().out
        assert [l.split()[1] for l in first.strip().splitlines()] == [l.split()[1] for l in second.strip().splitlines()]

    def test_refuses_nonempty_without_force(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert main(["generate", "--out", str(out), "--frames", "4", "--train-count", "1", "--eval-count", "0"]) == 2
        assert "refusing" in capsys.readouterr().err
        assert main(["generate", "--out", str(out), "--force", "--frames", "4", "--train-count", "1", "--eval-count", "0"]) == 0

    def test_seed_environment_variable_is_ignored(self, tmp_path, capsys, monkeypatch):
        argv = ["generate", "--seed", "5", "--frames", "4", "--train-count", "2", "--eval-count", "1"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        plain = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        monkeypatch.setenv("AIO_SEED", "9")
        assert main(argv + ["--out", str(tmp_path / "env")]) == 0
        assert [line.split()[1] for line in capsys.readouterr().out.splitlines()] == plain

    def test_twin_suite_flag(self, tmp_path):
        out = tmp_path / "data"
        main(["generate", "--out", str(out), "--frames", "4", "--train-count", "1", "--eval-count", "0", "--twin-suite", "--twin-count", "2"])
        twins = sorted(os.listdir(out / "twin"))
        assert len(twins) == 2
        meta = json.loads((out / "twin" / twins[0] / "meta.json").read_text())
        assert meta["scenario"]["twin"] is True


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A tiny end-to-end run shared by the command tests."""
    root = tmp_path_factory.mktemp("run")
    data = root / "data"
    cfg = root / "small.cfg"
    cfg.write_text(small_config_text())
    assert main(["generate", "--out", str(data), "--frames", "6", "--train-count", "2", "--eval-count", "1", "--seed", "1"]) == 0
    run = root / "out"
    code = main([
        "train", "--config", str(cfg), "--data", str(data / "train"), "--out", str(run),
        "--iters", "4", "--batch", "2", "--quiet",
    ])
    assert code == 0
    return {"root": root, "data": data, "ckpt": run / "checkpoint.aio", "run": run}


class TestCliTrain:
    def test_zero_iters_checkpoint_and_empty_log(self, tmp_path, small_cfg_file):
        data = tmp_path / "data"
        main(["generate", "--out", str(data), "--frames", "6", "--train-count", "2", "--eval-count", "0"])
        run = tmp_path / "run"
        code = main(["train", "--config", small_cfg_file, "--data", str(data / "train"), "--out", str(run), "--iters", "0", "--batch", "2", "--quiet"])
        assert code == 0
        assert (run / "checkpoint.aio").is_file()
        assert (run / "loss_log.csv").read_text().strip() == "iter,L_total,L_cls,L_giou,L_1,L_cma,L_ima"

    def test_resume_continues_iteration_numbering(self, trained_run):
        run2 = trained_run["root"] / "resumed"
        code = main([
            "train", "--data", str(trained_run["data"] / "train"), "--out", str(run2),
            "--resume", str(trained_run["ckpt"]), "--iters", "8", "--batch", "2", "--quiet",
        ])
        assert code == 0
        rows = (run2 / "loss_log.csv").read_text().strip().splitlines()
        iters = [int(r.split(",")[0]) for r in rows[1:]]
        assert iters and iters[0] > 4 and iters[-1] == 8

    def test_resume_without_out_writes_next_to_checkpoint(self, tmp_path, monkeypatch):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(small_config_text() + "log_every=1\n")
        main(["generate", "--out", str(tmp_path / "data"), "--frames", "6", "--train-count", "2", "--eval-count", "0"])
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(cfg), "--data", "data/train", "--out", "run", "--iters", "4", "--batch", "2", "--quiet"]) == 0
        assert main(["train", "--data", "data/train", "--resume", "run/checkpoint.aio", "--iters", "6", "--quiet"]) == 0
        rows = (tmp_path / "run" / "loss_log.csv").read_text().strip().splitlines()
        assert [int(r.split(",")[0]) for r in rows[1:]] == [1, 2, 3, 4, 5, 6]
        assert load_checkpoint(tmp_path / "run" / "checkpoint.aio").iteration == 6
        assert not (tmp_path / "loss_log.csv").exists() and not (tmp_path / "checkpoint.aio").exists()

    def test_frames_without_a_visible_target_are_never_drawn(self, tmp_path, small_cfg_file):
        data = tmp_path / "data"
        main(["generate", "--out", str(data), "--frames", "20", "--train-count", "2", "--eval-count", "0"])
        for gt in sorted((data / "train").glob("*/groundtruth.txt")):
            lines = gt.read_text().splitlines()
            gt.write_text("\n".join(lines[:10] + ["0,0,0,0"] * 5 + lines[15:]) + "\n")
        run = tmp_path / "run"
        code = main(["train", "--config", small_cfg_file, "--data", str(data / "train"), "--out", str(run), "--iters", "30", "--batch", "4", "--quiet"])
        assert code == 0
        rows = (run / "loss_log.csv").read_text().strip().splitlines()
        assert rows[-1].startswith("30,")

    def test_negative_iters_is_a_one_line_error(self, tmp_path, small_cfg_file, capsys):
        # once a struct.error traceback from save_checkpoint
        data = tmp_path / "data"
        main(["generate", "--out", str(data), "--frames", "6", "--train-count", "2", "--eval-count", "0"])
        capsys.readouterr()
        run = tmp_path / "run"
        code = main(["train", "--config", small_cfg_file, "--data", str(data / "train"), "--out", str(run), "--iters", "-5", "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ConfigurationError") and err.count("\n") == 1, err
        assert not (run / "checkpoint.aio").exists()

    def test_ablate_flag_recorded_in_checkpoint(self, tmp_path, small_cfg_file):
        data = tmp_path / "data"
        main(["generate", "--out", str(data), "--frames", "6", "--train-count", "2", "--eval-count", "0"])
        run = tmp_path / "run"
        main(["train", "--config", small_cfg_file, "--data", str(data / "train"), "--out", str(run), "--iters", "0", "--batch", "2", "--ablate", "no-mma", "--quiet"])
        assert load_checkpoint(run / "checkpoint.aio").config.ablate == "no-mma"


class TestCliEval:
    def test_oracle_gt_scores_one(self, trained_run, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["eval", "--data", str(trained_run["data"] / "eval"), "--out", str(out), "--oracle-gt"])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["summary"] == {"ACC": 1.0, "AUC": 1.0, "P": 1.0, "P_norm": 1.0, "cAUC": 1.0}
        assert (out / "success_curve.csv").is_file()
        assert (out / "precision_curve.csv").is_file()

    def test_eval_trained_checkpoint(self, trained_run, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["eval", "--data", str(trained_run["data"] / "eval"), "--ckpt", str(trained_run["ckpt"]), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert set(payload["summary"]) == {"P", "P_norm", "AUC", "cAUC", "ACC"}
        # one timing line on the console, none in the report; the summary stays the last line
        timing, summary = capsys.readouterr().out.strip().splitlines()
        assert re.fullmatch(r"tracked 5 frames in \d+\.\d s \(\d+ fps, 1 worker\)", timing), timing
        assert json.loads(summary) == payload["summary"]

    def test_no_window_is_a_zero_window_weight(self, trained_run, tmp_path):
        data, ckpt = str(trained_run["data"] / "eval"), str(trained_run["ckpt"])
        assert main(["eval", "--data", data, "--ckpt", ckpt, "--out", str(tmp_path / "off"), "--no-window"]) == 0
        assert main(["eval", "--data", data, "--ckpt", ckpt, "--out", str(tmp_path / "on")]) == 0
        state = load_checkpoint(ckpt)
        model = TrackerModel(state.config, resolve_vocab(state.config))
        model.load_state(state.params)
        evaluate(model, data, state.config.replace(window_weight=0.0), out_dir=str(tmp_path / "zero"))
        off = (tmp_path / "off" / "report.json").read_bytes()
        assert off == (tmp_path / "zero" / "report.json").read_bytes()
        assert off != (tmp_path / "on" / "report.json").read_bytes()

    def test_missing_checkpoint_exits_2(self, trained_run, tmp_path, capsys):
        code = main(["eval", "--data", str(trained_run["data"] / "eval"), "--ckpt", str(tmp_path / "none.aio"), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_unreadable_sequence_exits_nonzero(self, trained_run, tmp_path):
        bad = tmp_path / "bad_data" / "seq_000" / "img"
        bad.mkdir(parents=True)
        (bad.parent / "groundtruth.txt").write_text("1,2,3,4\n")
        code = main(["eval", "--data", str(tmp_path / "bad_data"), "--ckpt", str(trained_run["ckpt"]), "--out", str(tmp_path / "r")])
        assert code == 2

    @pytest.mark.parametrize(
        "damage",
        [
            ("img/000003.ppm", lambda raw: raw[: len(raw) // 2]),  # a half-written frame
            ("img/000003.ppm", lambda raw: raw[:4]),  # a truncated header
            ("meta.json", lambda raw: raw[:-3]),
            ("meta.json", lambda raw: b"[]"),  # valid JSON, not an object
            ("meta.json", lambda raw: b'{"objects": [{"role": "target"}]}'),  # an object entry without shape
        ],
        ids=["ppm-payload", "ppm-header", "meta-json", "meta-list", "meta-object-keys"],
    )
    def test_malformed_sequence_file_is_a_one_line_parse_error(self, trained_run, tmp_path, capsys, damage):
        data = tmp_path / "data"
        shutil.copytree(trained_run["data"] / "eval", data)
        name, cut = damage
        path = data / "seq_000" / name
        path.write_bytes(cut(path.read_bytes()))
        code = main(["eval", "--data", str(data), "--ckpt", str(trained_run["ckpt"]), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ParseError: ") and err.count("\n") == 1, err
        assert str(path) in err


class TestCliTrack:
    def test_writes_one_line_per_frame_and_echoes_init(self, trained_run, tmp_path, capsys):
        seq = trained_run["data"] / "eval" / "seq_000"
        out = tmp_path / "pred.txt"
        code = main(["track", "--ckpt", str(trained_run["ckpt"]), "--seq", str(seq), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        gt_first = (seq / "groundtruth.txt").read_text().strip().splitlines()[0]
        n_frames = len(os.listdir(seq / "img"))
        assert len(lines) == n_frames
        got = [float(v) for v in lines[0].split(",")]
        want = [float(v) for v in gt_first.split(",")]
        assert got == pytest.approx(want, abs=1e-3)

    def test_init_box_override_echoed(self, trained_run, tmp_path):
        seq = trained_run["data"] / "eval" / "seq_000"
        out = tmp_path / "pred.txt"
        main(["track", "--ckpt", str(trained_run["ckpt"]), "--seq", str(seq), "--out", str(out), "--init-box", "10,12,20,24"])
        first = [float(v) for v in out.read_text().splitlines()[0].split(",")]
        assert first == pytest.approx([10.0, 12.0, 20.0, 24.0], abs=1e-3)

    def test_zero_size_init_box_is_a_one_line_error(self, trained_run, tmp_path, capsys):
        seq = trained_run["data"] / "eval" / "seq_000"
        code = main(["track", "--ckpt", str(trained_run["ckpt"]), "--seq", str(seq), "--out", str(tmp_path / "p.txt"), "--init-box", "0,0,0,0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ContractError: sequence seq_000:") and "\n" not in err.strip()

    @pytest.mark.parametrize(
        "box, kind",
        [("1,2,3", "ParseError"), ("1,2,3,4,5", "ParseError"), ("a,b,c,d", "ParseError"), ("nan,1,5,5", "ParseError")],
    )
    def test_malformed_init_box_is_a_one_line_error(self, trained_run, tmp_path, capsys, box, kind):
        seq = trained_run["data"] / "eval" / "seq_000"
        out = tmp_path / "p.txt"
        code = main(["track", "--ckpt", str(trained_run["ckpt"]), "--seq", str(seq), "--out", str(out), "--init-box", box])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind}: ") and "\n" not in err.strip()
        assert not out.exists()

    def test_prompt_override_accepted(self, trained_run, tmp_path):
        seq = trained_run["data"] / "eval" / "seq_000"
        out = tmp_path / "pred.txt"
        code = main(["track", "--ckpt", str(trained_run["ckpt"]), "--seq", str(seq), "--out", str(out), "--prompt", "blue circle moving left"])
        assert code == 0


class TestCliArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--out", "x", "--no-such-flag"],
            ["eval"],
            ["generate", "--out", "x", "--seed", "abc"],
            ["grad-check", "--tol", "1e-3"],
            ["train", "--out", "x"],
            ["generate", "--config", "f", "--out", "x"],
            ["eval", "--data", "d", "--out", "o"],
            ["eval", "--data", "d", "--out", "o", "--oracle-gt", "--ckpt", "/nonexistent.aio"],
            ["eval", "--data", "d", "--out", "o", "--oracle-gt", "--prompt-mode", "class"],
            ["eval", "--data", "d", "--out", "o", "--oracle-gt", "--no-window"],
        ],
        ids=[
            "unknown-flag",
            "missing-required",
            "bad-int",
            "removed-flag",
            "train-without-data",
            "removed-generate-config",
            "eval-without-ckpt-or-oracle",
            "oracle-gt-with-ckpt",
            "oracle-gt-with-prompt-mode",
            "oracle-gt-with-no-window",
        ],
    )
    def test_malformed_command_line_is_a_one_line_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert err.startswith("error: ArgumentError: ") and err.count("\n") == 1, err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["grad-check", "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: vltrack grad-check")


class TestCliGradCheck:
    def test_zero_heads_config_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("heads=0\n")
        code = main(["grad-check", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ConfigurationError") and err.count("\n") == 1, err

    @pytest.mark.parametrize("line", ["dim=0", "align_dim=0", "search_size=0", "template_size=0"])
    def test_zero_size_config_is_a_one_line_error(self, tmp_path, capsys, line):
        # each of these once crashed with a traceback, at model build or at the forward
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        code = main(["grad-check", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ConfigurationError") and err.count("\n") == 1, err

    @pytest.mark.parametrize("line", ["iters=ten", "tau=half", "dim=3.5"])
    def test_non_numeric_config_value_is_a_one_line_error(self, tmp_path, capsys, line):
        # each of these once ended in a ValueError traceback and exit 1
        path = tmp_path / "bad.cfg"
        path.write_text(f"# a comment\n{line}\n")
        code = main(["grad-check", "--config", str(path)])
        err = capsys.readouterr().err
        key, value = line.split("=")
        assert code == 2
        assert err.startswith("error: ConfigurationError: config line 2: ") and err.count("\n") == 1, err
        assert key in err and repr(value) in err

    @pytest.mark.parametrize(
        "ablate, losses",
        [
            ("none", ("cls", "giou", "l1", "cma", "ima", "total")),
            ("no-mma", ("cls", "giou", "l1", "total")),
            ("vision-only", ("cls", "giou", "l1", "total")),
        ],
    )
    def test_ablated_model_checks_the_losses_it_computes(self, tmp_path, capsys, ablate, losses):
        # an ablated model computes no contrastive terms, so none is checked
        path = tmp_path / "ablated.cfg"
        path.write_text(small_config_text() + f"ablate={ablate}\n")
        out = tmp_path / "g.json"
        code = main(["grad-check", "--config", str(path), "--out", str(out)])
        printed = capsys.readouterr().out.splitlines()
        assert code == 0, printed
        assert [line.split(":")[0] for line in printed[:-1]] == [f"PASS {name}" for name in losses]
        assert re.fullmatch(r"runtime \d+\.\ds \(\d+ probe forwards, \d+ full\)", printed[-1]), printed[-1]
        payload = json.loads(out.read_text())
        assert set(payload) == {"h", "tol", "losses", "params", "runtime_s", "passed"}
        assert list(payload["losses"]) == sorted(losses)

    def test_small_model_report(self, tmp_path, small_cfg_file, capsys):
        out = tmp_path / "g.json"
        code = main(["grad-check", "--config", small_cfg_file, "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0, printed
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert set(payload["losses"]) == {"cls", "giou", "l1", "cma", "ima", "total"}
