import contextlib
import csv
import ctypes
import inspect
import io
import os
import platform
import resource
import struct
import subprocess
import sys
import zlib
from dataclasses import fields

import numpy as np
import pytest

import rseg
from rseg.backbones import BACKBONES, ModelConfig, ParamStore, build_model
from rseg import cli
from rseg.cli import (_OPTIONS, UsageError, _cmd_evaluate, _parse_size, _write_history_csv,
                      build_parser, pin_malloc, run_cli)
from rseg.data import PhantomSpec, load_volume, save_volume, Volume
from rseg.metrics import EmptyMaskError, MetricsReport, VolumeMask, write_report_csv
from rseg.recurrent import MODES, segment_volume
from rseg.trainer import EpochStats, TrainConfig, load_checkpoint, save_checkpoint


def child_env():
    """The environment with the imported rseg's directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(rseg.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def synth(out, count=2, size="8x32x32", seed=7, extra=()):
    argv = ["synth", "--out", str(out), "--count", str(count),
            "--size", size, "--seed", str(seed), *extra]
    assert run_cli(argv) == 0


class TestSynth:
    def test_writes_paired_files(self, tmp_path):
        synth(tmp_path / "d", count=3)
        names = sorted(os.listdir(tmp_path / "d"))
        assert names == ["mask_000.mvf", "mask_001.mvf", "mask_002.mvf",
                         "vol_000.mvf", "vol_001.mvf", "vol_002.mvf"]
        vol = load_volume(tmp_path / "d" / "vol_001.mvf")
        mask = load_volume(tmp_path / "d" / "mask_001.mvf")
        assert isinstance(vol, Volume) and isinstance(mask, VolumeMask)
        assert vol.dims == (8, 32, 32) == mask.dims

    def test_same_seed_reproduces_directory(self, tmp_path):
        synth(tmp_path / "a", seed=7)
        synth(tmp_path / "b", seed=7)
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        synth(tmp_path / "a", seed=7)
        synth(tmp_path / "b", seed=8)
        assert read_tree(tmp_path / "a") != read_tree(tmp_path / "b")

    def test_banner_dumps_every_resolved_key(self, tmp_path, capsys):
        synth(tmp_path / "d", count=1)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "command = synth"
        keys = {l.split(" = ")[0] for l in lines[1:] if " = " in l}
        assert {"out", "count", "size", "seed", "decoys", "noise", "threads"} <= keys

    def test_bad_size_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli(["synth", "--out", str(tmp_path), "--size", "16x48"]) == 1
        assert "DxHxW" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_apply(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = 3   # three is plenty\n\nnoise = 0.0\n")
        assert run_cli(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 0
        assert "count = 3" in capsys.readouterr().out
        assert len(os.listdir(tmp_path / "d")) == 6

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = 3\n")
        assert run_cli(["synth", "--out", str(tmp_path / "d"),
                        "--config", str(cfg), "--count", "1"]) == 0
        assert "count = 1" in capsys.readouterr().out
        assert len(os.listdir(tmp_path / "d")) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume_count = 3\n")
        assert run_cli(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 1
        assert "volume_count" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count 3\n")
        assert run_cli(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_value_outside_choices_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dtype = f16\n")
        assert run_cli(["gradcheck", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'f16'" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["synth", "--out", str(tmp_path / "d"),
                        "--config", str(tmp_path / "nope.cfg")]) == 1


class TestTrainCommand:
    def _train(self, tmp_path, seed=1, epochs=1):
        synth(tmp_path / "d", count=2)
        out = tmp_path / "m.rsck"
        argv = ["train", "--data", str(tmp_path / "d"), "--val", str(tmp_path / "d"),
                "--out", str(out), "--backbone", "unet", "--levels", "2",
                "--base-channels", "4", "--recurrent", "--epochs", str(epochs),
                "--lr", "1e-3", "--seed", str(seed)]
        assert run_cli(argv) == 0
        return out

    def test_emits_checkpoint_and_history_csv(self, tmp_path):
        out = self._train(tmp_path)
        store = load_checkpoint(out)
        assert store.config.backbone == "unet"
        assert store.config.levels == 2
        assert store.config.recurrent
        csv = (tmp_path / "m.csv").read_text().splitlines()
        assert csv[0] == "epoch,train_loss,val_loss,val_dice"
        assert csv[1].startswith("0,")

    def test_fixed_seed_is_bit_reproducible(self, tmp_path):
        out1 = self._train(tmp_path / "r1")
        out2 = self._train(tmp_path / "r2")
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1" / "m.csv").read_text() == (tmp_path / "r2" / "m.csv").read_text()

    def test_missing_mask_file_rejected(self, tmp_path, capsys):
        synth(tmp_path / "d", count=1)
        os.remove(tmp_path / "d" / "mask_000.mvf")
        argv = ["train", "--data", str(tmp_path / "d"), "--val", str(tmp_path / "d"),
                "--out", str(tmp_path / "m.rsck"), "--epochs", "1"]
        assert run_cli(argv) == 1
        assert "mask" in capsys.readouterr().err

    def test_empty_data_dir_rejected(self, tmp_path):
        os.makedirs(tmp_path / "d")
        argv = ["train", "--data", str(tmp_path / "d"), "--val", str(tmp_path / "d"),
                "--out", str(tmp_path / "m.rsck")]
        assert run_cli(argv) == 1


class TestSegmentAndEvaluate:
    @pytest.fixture()
    def trained(self, tmp_path):
        synth(tmp_path / "d", count=2)
        out = tmp_path / "m.rsck"
        run_cli(["train", "--data", str(tmp_path / "d"), "--val", str(tmp_path / "d"),
                 "--out", str(out), "--levels", "2", "--base-channels", "4",
                 "--recurrent", "--epochs", "1", "--lr", "1e-3", "--seed", "3"])
        return tmp_path, out

    def test_segment_roundtrip(self, trained):
        tmp_path, model = trained
        pred = tmp_path / "p.mvf"
        assert run_cli(["segment", "--model", str(model),
                        "--in", str(tmp_path / "d" / "vol_000.mvf"),
                        "--out", str(pred)]) == 0
        mask = load_volume(pred)
        assert isinstance(mask, VolumeMask)
        assert mask.dims == (8, 32, 32)

    def test_segment_rejects_mask_input(self, trained, capsys):
        tmp_path, model = trained
        assert run_cli(["segment", "--model", str(model),
                        "--in", str(tmp_path / "d" / "mask_000.mvf"),
                        "--out", str(tmp_path / "p.mvf")]) == 1
        assert "volume" in capsys.readouterr().err

    def test_segment_missing_model(self, tmp_path):
        assert run_cli(["segment", "--model", str(tmp_path / "no.rsck"),
                        "--in", str(tmp_path / "v.mvf"),
                        "--out", str(tmp_path / "p.mvf")]) == 1

    def test_evaluate_identical_masks(self, tmp_path, capsys):
        synth(tmp_path / "d", count=1)
        gt = tmp_path / "d" / "mask_000.mvf"
        csv = tmp_path / "r.csv"
        assert run_cli(["evaluate", "--pred", str(gt), "--gt", str(gt),
                        "--csv", str(csv)]) == 0
        assert "dice 1.000000" in capsys.readouterr().out
        rows = csv.read_text().splitlines()
        assert rows[0] == "scan_id,dice,asd_mm,hd95_mm,hd_mm"
        assert rows[1] == "mask_000,1.000000,0.000000,0.000000,0.000000"

    def test_evaluate_quotes_a_scan_id_that_holds_a_comma(self, tmp_path, capsys):
        synth(tmp_path / "d", count=1)
        gt = tmp_path / "d" / "mask_000.mvf"
        pred = tmp_path / "p,x.mvf"
        pred.write_bytes(gt.read_bytes())
        report = tmp_path / "r.csv"
        assert run_cli(["evaluate", "--pred", str(pred), "--gt", str(gt),
                        "--csv", str(report)]) == 0
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["p,x", "1.000000", "0.000000", "0.000000", "0.000000"]

    @pytest.mark.parametrize("side", ["prediction", "ground truth"])
    def test_evaluate_empty_mask_names_its_input(self, tmp_path, capsys, side):
        synth(tmp_path / "d", count=1)
        full = tmp_path / "d" / "mask_000.mvf"
        empty = tmp_path / "empty.mvf"
        save_volume(VolumeMask(np.zeros((8, 32, 32), dtype=np.uint8), (1.0, 1.0, 1.0)), empty)
        pred, gt = (empty, full) if side == "prediction" else (full, empty)
        csv = tmp_path / "r.csv"
        argv = ["evaluate", "--pred", str(pred), "--gt", str(gt), "--csv", str(csv)]
        assert run_cli(argv) == 1
        assert f"error: {side} {empty} is an empty mask" in capsys.readouterr().err
        assert not csv.exists()
        with pytest.raises(EmptyMaskError, match=side):
            _cmd_evaluate({"pred": str(pred), "gt": str(gt), "csv": str(csv)})

    def test_evaluate_rejects_intensity_volume(self, tmp_path):
        synth(tmp_path / "d", count=1)
        vol = tmp_path / "d" / "vol_000.mvf"
        assert run_cli(["evaluate", "--pred", str(vol), "--gt", str(vol),
                        "--csv", str(tmp_path / "r.csv")]) == 1


@pytest.mark.parametrize("writer", ["history", "report"])
def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.csv"

    def write(value):
        if writer == "history":
            _write_history_csv(str(path), [EpochStats(0, value, value, value)])
        else:
            write_report_csv([MetricsReport("s", value, value, value, value)], path)

    write(0.25)
    before = path.read_bytes()

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated"):
        write(0.5)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


class TestGradcheckCommand:
    def test_f64_passes(self, capsys):
        assert run_cli(["gradcheck", "--backbone", "unet"]) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_f32_noise_fails_as_runtime_failure(self, capsys):
        # f32 finite differences at h=1e-5 are noise-dominated by design
        assert run_cli(["gradcheck", "--dtype", "f32"]) == 2


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run_cli(["synth", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_missing_required_flag(self, capsys):
        assert run_cli(["segment"]) == 1
        assert "--model" in capsys.readouterr().err

    def test_truncated_header_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "cut.mvf"
        path.write_bytes(b"MVF1\x01\x02")
        assert run_cli(["evaluate", "--pred", str(path), "--gt", str(path),
                        "--csv", str(tmp_path / "r.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_checkpoint_is_a_validation_error(self, tmp_path, capsys):
        synth(tmp_path / "d", count=1)
        store = build_model(ModelConfig(levels=2, base_channels=4), seed=0)
        store["head.b"].data[...] = np.nan
        model = tmp_path / "m.rsck"
        save_checkpoint(store, model)
        assert run_cli(["segment", "--model", str(model),
                        "--in", str(tmp_path / "d" / "vol_000.mvf"),
                        "--out", str(tmp_path / "p.mvf")]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "p.mvf").exists()

    # no version since 2 has either key: each is unknown, even at its old default
    @pytest.mark.parametrize("key, value", [("bn_eps", "1e-05"), ("bn_momentum", "0.1")])
    def test_bad_batch_norm_setting_in_checkpoint_is_a_validation_error(self, tmp_path, capsys,
                                                                       key, value):
        self._segment_with_patched_checkpoint(tmp_path, capsys, key, value)

    @pytest.mark.parametrize("key, value", [("levels", "two"), ("base_channels", "4.5"),
                                            ("recurrent", "yes")])
    def test_badly_typed_config_echo_names_the_key(self, tmp_path, capsys, key, value):
        err = self._segment_with_patched_checkpoint(tmp_path, capsys, key, value)
        assert err.startswith(f"error: config key {key!r}: ")

    def test_version_1_checkpoint_asks_for_retraining(self, tmp_path, capsys):
        # version 1 kept running batch-norm buffers
        self._segment_with_version(tmp_path, capsys, 1)

    def test_version_2_checkpoint_asks_for_retraining(self, tmp_path, capsys):
        # version 2 kept a bias on every conv that feeds a batch norm
        self._segment_with_version(tmp_path, capsys, 2)

    @staticmethod
    def _segment_with_version(tmp_path, capsys, version):
        synth(tmp_path / "d", count=1)
        model = tmp_path / "m.rsck"
        save_checkpoint(build_model(ModelConfig(levels=2, base_channels=4), seed=0), model)
        raw = bytearray(model.read_bytes())
        raw[4:8] = struct.pack("<I", version)
        model.write_bytes(bytes(raw))
        assert run_cli(["segment", "--model", str(model),
                        "--in", str(tmp_path / "d" / "vol_000.mvf"),
                        "--out", str(tmp_path / "p.mvf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: checkpoint version {version} ")
        assert "retrain" in err
        assert not (tmp_path / "p.mvf").exists()

    def test_attunet_checkpoint_with_a_gate_bias_on_wx_is_a_validation_error(self, tmp_path,
                                                                               capsys):
        # files saved before each gate kept one bias: wg's, as wx's was the same parameter
        synth(tmp_path / "d", count=1)
        store = build_model(ModelConfig(backbone="attunet", levels=2, base_channels=4), seed=0)
        old = ParamStore(store.config)
        for name, t in store.items():
            old.add(name, t.data)
            if name.endswith(".wx.w"):
                old.add(name[:-1] + "b", np.zeros(t.shape[0], dtype=np.float32))
        model = tmp_path / "m.rsck"
        save_checkpoint(old, model)
        assert run_cli(["segment", "--model", str(model),
                        "--in", str(tmp_path / "d" / "vol_000.mvf"),
                        "--out", str(tmp_path / "p.mvf")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: unknown parameters for this architecture: "
                       "['att1.wx.b', 'att0.wx.b']\n")
        assert not (tmp_path / "p.mvf").exists()

    @pytest.mark.parametrize("levels, base", [(2, 100000), (10, 16)])
    def test_too_wide_a_model_is_a_validation_error(self, tmp_path, capsys, levels, base):
        # the widest layer, base * 2^(levels - 1), bounds every weight's size;
        # the patched checkpoint (levels 2) gets the same widest layer
        self._segment_with_patched_checkpoint(tmp_path, capsys, "base_channels",
                                              str(base * 2 ** (levels - 2)))
        data = str(tmp_path / "d")
        assert run_cli(["train", "--data", data, "--val", data, "--levels", str(levels),
                        "--base-channels", str(base), "--out", str(tmp_path / "w.rsck")]) == 1
        assert capsys.readouterr().err.startswith("error: base_channels * 2^(levels - 1)")
        assert not (tmp_path / "w.rsck").exists()

    def test_too_large_a_phantom_is_a_validation_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli(["synth", "--out", str(out), "--size", "100000x100000x100000"]) == 1
        assert capsys.readouterr().err.startswith("error: size: ")
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_noise_is_a_validation_error(self, tmp_path, capsys, noise):
        out = tmp_path / "d"
        assert run_cli(["synth", "--out", str(out), "--noise", noise]) == 1
        assert capsys.readouterr().err.startswith("error: noise: noise_sigma must be finite")
        assert not out.exists()

    def test_levels_beyond_the_bound_is_a_validation_error(self, tmp_path, capsys):
        # 2^17 px a side: a build pass's input, or one padded slice, would take 64 GiB
        self._segment_with_patched_checkpoint(tmp_path, capsys, "levels", "17")
        data = str(tmp_path / "d")
        assert run_cli(["train", "--data", data, "--val", data, "--levels", "17",
                        "--out", str(tmp_path / "m17.rsck")]) == 1
        assert capsys.readouterr().err.startswith("error: levels must be in [2, 10]")

    @staticmethod
    def _segment_with_patched_checkpoint(tmp_path, capsys, key, value):
        synth(tmp_path / "d", count=1)
        model = tmp_path / "m.rsck"
        save_checkpoint(build_model(ModelConfig(levels=2, base_channels=4), seed=0), model)
        raw = model.read_bytes()[:-4]
        blob_end = 12 + struct.unpack_from("<I", raw, 8)[0]
        lines = [ln for ln in raw[12:blob_end].decode("utf-8").splitlines()
                 if not ln.startswith(f"{key} =")]
        blob = "".join(ln + "\n" for ln in lines + [f"{key} = {value}"]).encode("utf-8")
        body = raw[:8] + struct.pack("<I", len(blob)) + blob + raw[blob_end:]
        # a fresh CRC-32 trailer: the file is well formed and holds one bad value
        model.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert run_cli(["segment", "--model", str(model),
                        "--in", str(tmp_path / "d" / "vol_000.mvf"),
                        "--out", str(tmp_path / "p.mvf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "p.mvf").exists()
        return err

    @pytest.mark.parametrize("argv, flag", [
        (["gradcheck", "--eps", "0"], "--eps"),
        (["gradcheck", "--eps", "nan"], "--eps"),
        (["gradcheck", "--eps", "inf"], "--eps"),
        (["gradcheck", "--eps", "-0.5"], "--eps"),
        (["synth", "--out", "unused", "--count", "-1"], "--count"),
        (["synth", "--out", "unused", "--count", "0"], "--count"),
        (["synth", "--out", "unused", "--threads", "-3"], "--threads"),
        (["synth", "--out", "unused", "--threads", "0"], "--threads"),
        (["train", "--data", "unused", "--val", "unused", "--out", "unused", "--lr", "nan"],
         "--lr"),
        (["train", "--data", "unused", "--val", "unused", "--out", "unused", "--lr", "inf"],
         "--lr"),
        (["train", "--data", "unused", "--val", "unused", "--out", "unused", "--lr", "0"],
         "--lr"),
    ])
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "usage" in err and f"argument {flag}:" in err
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("command, line", [
        ("gradcheck", "eps = nan"),
        ("gradcheck", "eps = 0"),
        ("synth", "count = -1"),
        ("synth", "threads = -3"),
        ("train", "lr = nan"),
        ("train", "lr = inf"),
    ])
    def test_out_of_range_config_value_is_a_validation_error(self, tmp_path, capsys,
                                                            command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv = [command, "--config", str(cfg)]
        if command == "synth":
            argv += ["--out", str(tmp_path / "d")]
        elif command == "train":
            # real data, so that only the option check can stop the run
            synth(tmp_path / "data", count=1)
            argv += ["--data", str(tmp_path / "data"), "--val", str(tmp_path / "data"),
                     "--out", str(tmp_path / "d"), "--levels", "2", "--base-channels", "4",
                     "--epochs", "1"]
        assert run_cli(argv) == 1
        key = line.split()[0]
        assert capsys.readouterr().err.startswith(f"error: config key {key!r}: ")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_fails_before_any_work(self, tmp_path, capsys, command, source):
        out = tmp_path / "d"
        argv = [command, "--out", str(out)]
        if command == "train":
            # a data directory that does not exist: the seed is checked before loading
            argv += ["--data", str(tmp_path / "none"), "--val", str(tmp_path / "none")]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("seed = -1\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be >= 0, got -1" in err
        assert not out.exists()

    def test_nan_spacing_is_a_validation_error(self, tmp_path, capsys):
        synth(tmp_path / "d", count=1)
        path = tmp_path / "d" / "mask_000.mvf"
        raw = bytearray(path.read_bytes())
        raw[17:21] = struct.pack("<f", float("nan"))  # z spacing follows magic, code, dims
        path.write_bytes(bytes(raw))
        assert run_cli(["evaluate", "--pred", str(path), "--gt", str(path),
                        "--csv", str(tmp_path / "r.csv")]) == 1
        assert "positive finite" in capsys.readouterr().err

    @staticmethod
    def _mvf(path, code, dims):
        """A hand-written MVF1 file: magic, dtype code, (D, H, W), unit spacing, zero payload."""
        size = (4 if code == 0 else 1) * int(np.prod(dims))
        path.write_bytes(b"MVF1" + struct.pack("<B3I3f", code, *dims, 1.0, 1.0, 1.0)
                         + bytes(size))
        return path

    def test_train_on_a_zero_slice_pair_is_a_validation_error(self, tmp_path, capsys):
        synth(tmp_path / "val", count=1)
        vol = self._mvf(tmp_path / "vol_000.mvf", 0, (0, 32, 32))
        self._mvf(tmp_path / "mask_000.mvf", 1, (0, 32, 32))
        capsys.readouterr()
        assert run_cli(["train", "--data", str(tmp_path), "--val", str(tmp_path / "val"),
                        "--out", str(tmp_path / "m.rsck"), "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(vol) in err and "zero extent" in err

    @pytest.mark.parametrize("dims", [(0, 32, 32), (1, 0, 32)], ids=["slices", "height"])
    def test_segment_on_a_zero_extent_volume_is_a_validation_error(self, tmp_path, capsys,
                                                                   dims):
        model = tmp_path / "m.rsck"
        save_checkpoint(build_model(ModelConfig(levels=2, base_channels=4), seed=0), model)
        vol = self._mvf(tmp_path / "v.mvf", 0, dims)
        assert run_cli(["segment", "--model", str(model), "--in", str(vol),
                        "--out", str(tmp_path / "p.mvf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(vol) in err and "zero extent" in err
        assert not (tmp_path / "p.mvf").exists()


class TestTruncatedFiles:
    """Every cut of a checkpoint, a volume or a mask is a validation error, and so is
    every bit flip of a checkpoint."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cuts")
        synth(root / "d", count=1)
        model = root / "m.rsck"
        save_checkpoint(build_model(ModelConfig(levels=2, base_channels=4), seed=0), model)
        return root, model, root / "d" / "vol_000.mvf", root / "d" / "mask_000.mvf"

    @staticmethod
    def _cut_points(size, header_ends, seed, count=40):
        """0, 1, the header field ends, size - 1, then seeded draws up to `count` points."""
        rng = np.random.default_rng(seed)
        points = {0, 1, size - 1, *header_ends}
        while len(points) < count:
            points.add(int(rng.integers(0, size)))
        return sorted(points)

    def _sweep(self, capsys, good, cut_file, argv, header_ends, seed):
        raw = good.read_bytes()
        outcomes = []
        for cut in self._cut_points(len(raw), header_ends, seed):
            cut_file.write_bytes(raw[:cut])
            code = run_cli(argv)
            err = capsys.readouterr().err
            outcomes.append((cut, code, "error:" in err))
        failed = [o for o in outcomes if o[1:] != (1, True)]
        assert len(outcomes) >= 40 and not failed, failed

    def test_checkpoint(self, files, capsys):
        root, model, vol, _ = files
        cut = root / "cut.rsck"
        blob_end = 12 + struct.unpack_from("<I", model.read_bytes(), 8)[0]
        # magic, version, blob length, config blob, array count
        header_ends = (4, 8, 12, blob_end, blob_end + 4)
        self._sweep(capsys, model, cut, ["segment", "--model", str(cut), "--in", str(vol),
                                         "--out", str(root / "p.mvf")], header_ends, seed=1)

    @staticmethod
    def _checkpoint_regions(raw):
        """Byte offsets of the header, config echo, parameter names, payloads and CRC."""
        blob_end = 12 + struct.unpack_from("<I", raw, 8)[0]
        names, payloads = [], []
        off = blob_end + 4
        while off < len(raw) - 4:
            (name_len,) = struct.unpack_from("<H", raw, off)
            names += range(off + 2, off + 2 + name_len)
            off += 2 + name_len
            rank = raw[off]
            size = 4 * int(np.prod(struct.unpack_from(f"<{rank}I", raw, off + 1)))
            off += 1 + 4 * rank
            payloads += range(off, off + size)
            off += size
        return (range(12), range(12, blob_end), names, payloads, range(len(raw) - 4, len(raw)))

    def test_checkpoint_bit_flips(self, files, capsys):
        root, model, vol, _ = files
        raw = model.read_bytes()
        rng = np.random.default_rng(4)
        header, config, names, payloads, trailer = self._checkpoint_regions(raw)
        spots = [*header, *trailer]
        for region in (config, names, payloads):
            spots += rng.choice(region, size=12, replace=False).tolist()
        flipped, out = root / "flip.rsck", root / "flip.mvf"
        outcomes = []
        for at in spots:
            bit = int(rng.integers(8))
            damaged = bytearray(raw)
            damaged[at] ^= 1 << bit
            flipped.write_bytes(bytes(damaged))
            code = run_cli(["segment", "--model", str(flipped), "--in", str(vol),
                            "--out", str(out)])
            err = capsys.readouterr().err
            outcomes.append((at, bit, code, "error:" in err, out.exists()))
        failed = [o for o in outcomes if o[2:] != (1, True, False)]
        assert len(outcomes) == 52 and not failed, failed

    def test_volume(self, files, capsys):
        root, model, vol, _ = files
        cut = root / "cut_vol.mvf"
        # magic, then dtype code, dims and spacing
        self._sweep(capsys, vol, cut, ["segment", "--model", str(model), "--in", str(cut),
                                       "--out", str(root / "p.mvf")], (4, 29), seed=2)

    def test_mask(self, files, capsys):
        root, _, _, mask = files
        cut = root / "cut_mask.mvf"
        self._sweep(capsys, mask, cut, ["evaluate", "--pred", str(mask), "--gt", str(cut),
                                        "--csv", str(root / "r.csv")], (4, 29), seed=3)


class TestOptionTable:
    """The settable surface: every config field is an option, with the same default."""

    @staticmethod
    def _rows():
        return {cmd: {o.key: o for o in opts} for cmd, (_, opts) in _OPTIONS.items()}

    def test_literal_defaults_match_library(self):
        rows = self._rows()
        train = {key: o.default for key, o in rows["train"].items()}
        mconfig, tconfig = ModelConfig(), TrainConfig()
        for key in ("backbone", "levels", "base_channels", "recurrent"):
            assert train[key] == getattr(mconfig, key), key
        for key in ("lr", "epochs", "patience", "seed", "teacher_forcing", "threshold",
                    "max_seq_len"):
            assert train[key] == getattr(tconfig, key), key
        assert train["bptt"] == tconfig.bptt_mode
        threshold = inspect.signature(segment_volume).parameters["threshold"].default
        assert rows["segment"]["threshold"].default == threshold
        spec = PhantomSpec()
        assert rows["synth"]["noise"].default == spec.noise_sigma
        assert rows["synth"]["decoys"].default == spec.decoys
        assert _parse_size(rows["synth"]["size"].default) == spec.dims
        for cmd in ("train", "gradcheck"):
            assert rows[cmd]["backbone"].choices == BACKBONES
        assert rows["train"]["bptt"].choices == MODES

    def test_config_fields_are_exactly_the_options(self):
        rows = self._rows()
        model_and_paths = {"data", "val", "out", "backbone", "levels", "base_channels",
                           "recurrent"}
        train = {{"bptt": "bptt_mode"}.get(k, k) for k in rows["train"]} - model_and_paths
        assert {f.name for f in fields(TrainConfig)} == train
        synth = {{"size": "dims", "noise": "noise_sigma"}.get(k, k) for k in rows["synth"]}
        # artifact_streaks is library-only; out and count drive the loop, not the spec
        assert {f.name for f in fields(PhantomSpec)} == (synth - {"out", "count"}
                                                        | {"artifact_streaks"})


class TestThreads:
    def test_thread_cap_sets_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        synth(tmp_path / "d", count=1, extra=("--threads", "2"))
        assert os.environ["OMP_NUM_THREADS"] == "2"


class TestAllocator:
    @pytest.fixture(autouse=True)
    def _fresh_pin(self):
        pin_malloc.cache_clear()
        yield
        pin_malloc.cache_clear()

    def test_every_command_pins(self, tmp_path, monkeypatch):
        # the test session pins malloc itself, so only a spy sees a CLI that does not
        calls = []
        monkeypatch.setattr(cli, "pin_malloc", lambda: calls.append(True))
        synth(tmp_path / "d", count=1)
        assert run_cli(["gradcheck"]) == 0
        assert calls == [True, True]

    def test_importing_the_package_pins_nothing(self):
        code = ("import rseg.cli, rseg.trainer, rseg.recurrent; "
                "print(rseg.cli.pin_malloc.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_second_train_keeps_its_pages(self, tmp_path):
        # the benchmark's train-small request: by default glibc unmaps the
        # freed tape and temporaries and each call faults about 1,650 pages
        # back in; with the thresholds pinned a repeat call faults almost none
        for i, sub in enumerate(("train", "val")):
            synth(tmp_path / sub, count=1, size="8x48x48", seed=20 + i, extra=("--decoys",))
        argv = ["train", "--data", str(tmp_path / "train"), "--val", str(tmp_path / "val"),
                "--out", str(tmp_path / "m.rsck"), "--backbone", "unet", "--levels", "2",
                "--base-channels", "8", "--recurrent", "--teacher-forcing", "--epochs", "1",
                "--patience", "1", "--lr", "1e-3", "--seed", "1"]
        faults = []
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(argv) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[1] < 300, faults

    @pytest.mark.parametrize("missing", [AttributeError, OSError])
    def test_runs_without_mallopt(self, tmp_path, monkeypatch, missing):
        def cdll(name):
            if missing is OSError:
                raise OSError("no C library")
            return object()  # a library without mallopt, as on macOS

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        synth(tmp_path / "d", count=1)
        assert pin_malloc.cache_info().currsize == 1


class TestParser:
    """A call builds only the parser of the command it runs, and prints what the full one does."""

    @staticmethod
    def _full_parser_output(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                build_parser().parse_args(argv)
            except UsageError as exc:
                print(exc, file=sys.stderr)
            except SystemExit:
                pass
        return out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [
        ["--help"], *([command, "--help"] for command in _OPTIONS),
        ["frobnicate"], ["--threads", "2"], ["synth", "--bogus"], ["synth", "--count", "0"],
        ["train", "--lr", "nan"], ["segment", "--threshold", "x"], ["evaluate", "--pred"],
        ["gradcheck", "--dtype", "f16"],
    ], ids=" ".join)
    def test_help_and_usage_errors_are_unchanged(self, argv, capsys):
        want = self._full_parser_output(argv)
        assert run_cli(argv) == (0 if "--help" in argv else 1)
        got = capsys.readouterr()
        assert (got.out, got.err) == want

    def test_a_command_builds_only_its_own_parser(self):
        (full,) = (a for a in build_parser()._actions if a.dest == "command")
        (one,) = (a for a in build_parser("evaluate")._actions if a.dest == "command")
        assert list(full.choices) == list(_OPTIONS) and list(one.choices) == ["evaluate"]


class TestOutputPaths:
    """An output path that cannot be written fails before any data or model loads."""

    @staticmethod
    def _bad(tmp_path, kind, name):
        if kind == "missing directory":
            return tmp_path / "nowhere" / name
        target = tmp_path / "taken" / name
        os.makedirs(target)
        return target

    @pytest.mark.parametrize("kind", ["missing directory", "a directory"])
    def test_train_out_fails_before_the_first_epoch(self, tmp_path, capsys, kind):
        synth(tmp_path / "d", count=1)
        out = self._bad(tmp_path, kind, "m.rsck")
        capsys.readouterr()
        assert run_cli(["train", "--data", str(tmp_path / "d"), "--val", str(tmp_path / "d"),
                        "--out", str(out), "--levels", "2", "--base-channels", "4",
                        "--epochs", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: ")
        assert not any(line.startswith("epoch ") for line in captured.out.splitlines())

    def test_train_history_csv_that_is_a_directory(self, tmp_path, capsys):
        synth(tmp_path / "d", count=1)
        os.makedirs(tmp_path / "m.csv")
        assert run_cli(["train", "--data", str(tmp_path / "d"), "--val", str(tmp_path / "d"),
                        "--out", str(tmp_path / "m.rsck"), "--epochs", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --out: {tmp_path / 'm.csv'} is a directory")
        assert not any(line.startswith("epoch ") for line in captured.out.splitlines())

    def test_train_out_that_is_its_own_history_csv(self, tmp_path, capsys):
        # the CSV path is --out with its extension replaced by .csv; writing it
        # would overwrite the checkpoint
        synth(tmp_path / "d", count=1)
        capsys.readouterr()
        out = tmp_path / "m.csv"
        assert run_cli(["train", "--data", str(tmp_path / "d"), "--val", str(tmp_path / "d"),
                        "--out", str(out), "--levels", "2", "--base-channels", "4",
                        "--epochs", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --out: {out} is where the history CSV goes")
        assert not any(line.startswith("epoch ") for line in captured.out.splitlines())
        assert not out.exists()

    # the inputs do not exist: an error naming the output shows it was checked first
    @pytest.mark.parametrize("kind", ["missing directory", "a directory"])
    @pytest.mark.parametrize("command, option", [("segment", "out"), ("evaluate", "csv")])
    def test_segment_and_evaluate_check_before_loading(self, tmp_path, capsys, kind,
                                                       command, option):
        target = self._bad(tmp_path, kind, "x.out")
        inputs = {"segment": ["--model", tmp_path / "m.rsck", "--in", tmp_path / "v.mvf"],
                  "evaluate": ["--pred", tmp_path / "p.mvf", "--gt", tmp_path / "g.mvf"]}
        argv = [command, *inputs[command], f"--{option}", target]
        assert run_cli([str(a) for a in argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: --{option}: ")

    @pytest.mark.parametrize("command, option", [("train", "out"), ("segment", "out"),
                                                 ("evaluate", "csv")])
    def test_an_empty_output_path_fails_before_any_work(self, tmp_path, capsys, command,
                                                        option):
        inputs = {"train": ["--data", tmp_path, "--val", tmp_path],
                  "segment": ["--model", tmp_path / "m.rsck", "--in", tmp_path / "v.mvf"],
                  "evaluate": ["--pred", tmp_path / "p.mvf", "--gt", tmp_path / "g.mvf"]}
        argv = [command, *inputs[command], f"--{option}", ""]
        assert run_cli([str(a) for a in argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: --{option}: the path is empty")

    # each output names an input that exists: the command must refuse before
    # loading anything, so that the input keeps its bytes
    @pytest.mark.parametrize("command, option, clash", [
        ("segment", "out", "in"), ("segment", "out", "model"),
        ("evaluate", "csv", "pred"), ("evaluate", "csv", "gt")])
    def test_an_output_that_names_an_input_fails_before_any_load(
            self, tmp_path, capsys, monkeypatch, command, option, clash):
        synth(tmp_path / "d", count=1)
        model = tmp_path / "m.rsck"
        save_checkpoint(build_model(ModelConfig(levels=2, base_channels=4), seed=0), str(model))
        gt = tmp_path / "gt.mvf"
        gt.write_bytes((tmp_path / "d" / "mask_000.mvf").read_bytes())
        inputs = {"segment": {"model": model, "in": tmp_path / "d" / "vol_000.mvf"},
                  "evaluate": {"pred": tmp_path / "d" / "mask_000.mvf", "gt": gt}}[command]
        before = inputs[clash].read_bytes()

        def no_load(*args, **kwargs):
            raise AssertionError("an input was loaded before the output check")

        monkeypatch.setattr("rseg.data.load_volume", no_load)
        monkeypatch.setattr("rseg.trainer.load_checkpoint", no_load)
        # the same file by another spelling of its path
        target = os.path.join(os.path.dirname(inputs[clash]), ".", inputs[clash].name)
        argv = [command, *[a for key, path in inputs.items() for a in (f"--{key}", path)],
                f"--{option}", target]
        capsys.readouterr()
        assert run_cli([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{option}: {target} is the --{clash} file"), err
        assert inputs[clash].read_bytes() == before

    def test_synth_out_that_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_bytes(b"x")
        assert run_cli(["synth", "--out", str(taken), "--count", "1", "--size", "8x32x32"]) == 1
        assert f"error: --out: {taken} is a file" in capsys.readouterr().err
        assert taken.read_bytes() == b"x"


class TestEntryPoint:
    def test_segment_loads_neither_scipy_linalg_nor_scipy_spatial(self, tmp_path):
        synth(tmp_path / "d", count=1)
        model = tmp_path / "m.rsck"
        save_checkpoint(build_model(ModelConfig(levels=2, base_channels=4, recurrent=True),
                                    seed=0), model)
        argv = ["segment", "--model", str(model), "--in", str(tmp_path / "d" / "vol_000.mvf"),
                "--out", str(tmp_path / "p.mvf")]
        code = ("import sys; from rseg.cli import run_cli; "
                f"assert run_cli({argv!r}) == 0; "
                "print(sorted(m for m in ('scipy.linalg', 'scipy.spatial') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "p.mvf").exists()

    def test_train_loads_no_scipy(self, tmp_path):
        # free running: a per-slice taped unroll adds each weight's gradient per slice
        synth(tmp_path / "d", count=1)
        argv = ["train", "--data", str(tmp_path / "d"), "--val", str(tmp_path / "d"),
                "--out", str(tmp_path / "m.rsck"), "--levels", "2", "--base-channels", "4",
                "--recurrent", "--epochs", "1"]
        code = ("import sys; from rseg.cli import run_cli; "
                f"assert run_cli({argv!r}) == 0; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "m.rsck").exists()

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rseg.cli", "synth", "--out", str(tmp_path / "d"),
             "--count", "1", "--size", "8x32x32", "--seed", "0"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "command = synth" in proc.stdout
        assert sorted(os.listdir(tmp_path / "d")) == ["mask_000.mvf", "vol_000.mvf"]



class TestExitCodeFuzz:
    """Seeded random calls of all five subcommands: hostile flag and config
    values (non-UTF-8 bytes included), bad paths and mutated input files.
    Each call exits 0, or 1 with an ``error:`` line; none exits 2 or raises.

    A call draws its options from pools of valid values, then takes zero,
    one or two faults, so that most faults reach the code past the parser.
    A hostile value is invalid for the key it goes to (``HOSTILE`` for every
    key, ``HOSTILE_FOR`` for one), so a call that takes one, or a bad config
    line, exits 1. Every pool value is cheap to run: no pool holds a count,
    an epoch number or a model size that would make a call slow, and a
    dropped argument is never the epochs or count one. The gradcheck pools
    leave out f32 and tiny steps, whose failed check exits 2 by design (a
    runtime failure, not an invalid input).
    """

    CASES = {"synth": 30, "train": 40, "segment": 60, "evaluate": 60, "gradcheck": 16}
    VALID = {
        "count": ("1", "٢", " 1 "),
        "size": ("8x32x32", "8X32X32", " 8 x32x 32"),
        "seed": ("0", "3", "9" * 30),
        "noise": ("30", "0", "1e30", "1e-320"),
        "backbone": ("unet", "segunet", "attunet"),
        "levels": ("2", "3"),
        "base_channels": ("4", "5"),
        "bptt": ("detach", "full"),
        "lr": ("1e-3", "1e-320", "1e3"),
        "epochs": ("1", "2"),
        "patience": ("1", "5"),
        "threshold": ("0.5", "1e-320", "0.999"),
        "max_seq_len": ("1", "3", "9" * 30),
        "eps": ("1e-5",),
        "dtype": ("f64",),
        "threads": ("1", "2"),
    }
    HOSTILE = ("", "x", "-1", "nan", "inf", "-inf", "1e309", "0x10", "-" + "9" * 30,
               "\udcff", "8x32", "0x32x32", "axbxc", "99999x99999x99999", "UNet", "f16")
    HOSTILE_FOR = {
        "count": ("0", "1.5"),
        "size": ("7x32x32", "8x32x31"),
        "seed": ("1.5",),
        "noise": ("-0.5",),
        "levels": ("0", "1", "11", "2048"),
        "base_channels": ("0", "3", "2048"),
        "bptt": ("Detach", "none"),
        "lr": ("0", "1e-400"),
        "epochs": ("0", "1.5"),
        "patience": ("0", "1.5"),
        "threshold": ("0", "1", "1.5"),
        "max_seq_len": ("0", "1.5"),
        "eps": ("0", "1e-400"),
        "dtype": ("f8",),
        "threads": ("0", "1.5"),
    }
    FLAGS = ("true", "false", "1", "0", "yes", "off")
    BAD_FLAGS = ("maybe", "", "2", "\udcff")
    BAD_LINES = (b"no equals sign", b"bogus_key = 1", b"seed = \xff\xfe", b"\xc3\x28 = 1",
                 b" = 3", b"\xff")
    INPUTS = {"model": "m.rsck", "in": "d/vol_000.mvf", "pred": "d/mask_001.mvf",
              "gt": "d/mask_000.mvf", "data": "d", "val": "d"}
    OUTPUTS = {"synth": "synth", "train": "m.rsck", "segment": "p.mvf", "evaluate": "r.csv"}

    @pytest.fixture(scope="class")
    def pool(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        synth(root / "d", count=2, size="8x32x32", extra=["--decoys"])
        config = ModelConfig(backbone="unet", levels=2, base_channels=4, recurrent=True)
        save_checkpoint(build_model(config, seed=0), root / "m.rsck")
        empty = VolumeMask(np.zeros((8, 32, 32), dtype=np.uint8), (1.0, 1.0, 1.0))
        save_volume(empty, root / "empty.mvf")
        (root / "p,x \"q\".mvf").write_bytes((root / "d" / "mask_001.mvf").read_bytes())
        (root / "nodata").mkdir()
        return root

    @staticmethod
    def _pick(rng, seq):
        return seq[int(rng.integers(len(seq)))]

    def _mutate(self, raw, rng):
        """``raw`` cut, bit-flipped, overwritten, extended, emptied or replaced by noise."""
        kind = int(rng.integers(6))
        at = int(rng.integers(len(raw)))
        data = bytearray(raw)
        if kind == 0:
            del data[at:]
        elif kind == 1:
            data[at] ^= 1 << int(rng.integers(8))
        elif kind == 2:
            data[at : at + 8] = rng.bytes(8)
        elif kind == 3:
            data += rng.bytes(int(rng.integers(1, 64)))
        elif kind == 4:
            data = b""
        else:
            data = rng.bytes(int(rng.integers(1, 128)))
        return bytes(data)

    def _mutated_input(self, rng, root, case, key):
        good = root / self.INPUTS[key]
        if good.is_dir():  # a data directory with one file mutated or one mask missing
            copy = case / key
            copy.mkdir()
            names = sorted(os.listdir(good))
            victim = self._pick(rng, names)
            for name in names:
                raw = (good / name).read_bytes()
                if name == victim:
                    if rng.random() < 0.2 and name.startswith("mask_"):
                        continue
                    raw = self._mutate(raw, rng)
                (copy / name).write_bytes(raw)
            return str(copy)
        path = case / f"mut_{good.name}"
        path.write_bytes(self._mutate(good.read_bytes(), rng))
        return str(path)

    def _argv(self, rng, root, case, command):
        """The call's argv, and whether it must exit 1: it took a hostile
        value or a bad config line, and no argument was dropped."""
        options = {opt.key: opt for opt in cli._OPTIONS[command][1] + (cli._THREADS,)}
        valued = [k for k, o in options.items()
                  if k not in self.INPUTS and k not in ("out", "csv") and o.coerce is not cli._flag]
        kinds = ["value", "config", "argv"]
        if command != "gradcheck":
            kinds.append("output")
        if command in ("train", "segment", "evaluate"):
            kinds += ["input", "mutate", "mutate"]
        faults = [self._pick(rng, kinds) for _ in range(self._pick(rng, (0, 1, 1, 1, 2)))]
        hostile_key = self._pick(rng, valued) if "value" in faults else None
        inputs = [k for k in options if k in self.INPUTS]
        bad_input = self._pick(rng, inputs) if "input" in faults else None
        mutated = self._pick(rng, inputs) if "mutate" in faults else None
        argv, config = [command], []
        for key, opt in options.items():
            flag = "--" + key.replace("_", "-")
            if key in self.INPUTS:
                if key == bad_input:
                    bad = ["missing.mvf", "nodata", "empty.mvf", "d/vol_000.mvf", "m.rsck", ""]
                    value = str(root / self._pick(rng, bad))
                elif key == mutated:
                    value = self._mutated_input(rng, root, case, key)
                elif key == "pred" and rng.random() < 0.3:
                    value = str(root / "p,x \"q\".mvf")  # a scan_id the CSV must quote
                else:
                    value = str(root / self.INPUTS[key])
            elif key in ("out", "csv"):
                value = str(case / self.OUTPUTS[command])
                if "output" in faults:
                    taken = case / "taken"  # an existing file, overwritten
                    taken.write_bytes(b"x")
                    value = self._pick(rng, [str(case / "no_dir" / "f"), str(case),
                                             str(taken), ""])
            elif opt.coerce is cli._flag:
                roll = rng.random()
                if roll < 0.3:
                    argv.append(flag)
                elif roll < 0.5:
                    config.append((key, self._pick(rng, self.FLAGS)))
                elif roll < 0.55 and "value" in faults:
                    config.append((key, self._pick(rng, self.BAD_FLAGS)))
                continue
            elif key == hostile_key:
                value = self._pick(rng, self.HOSTILE + self.HOSTILE_FOR.get(key, ()))
            elif key in ("epochs", "count") or rng.random() < 0.4:
                value = self._pick(rng, self.VALID[key])
            else:
                continue
            if key not in self.INPUTS and key not in ("out", "csv") and rng.random() < 0.3:
                config.append((key, value))
            else:
                argv.append(f"{flag}={value}")  # a value may start with a dash
        if config or "config" in faults:
            lines = [f"{k} = {v}".encode("utf-8", "surrogateescape") for k, v in config]
            lines.insert(0, b"# a comment")
            if "config" in faults:
                lines.insert(int(rng.integers(len(lines) + 1)), self._pick(rng, self.BAD_LINES))
            path = case / "c.cfg"
            path.write_bytes(b"\n".join(lines) + b"\n")
            argv += ["--config", str(path)]
        dropped = False
        if "argv" in faults:
            broken = self._pick(rng, ["--bogus", "stray", "--threads", "--config", "drop"])
            # one argument left out, often a required option; never the epochs
            # or count, whose defaults would make the call slow
            slow = ("--epochs=", "--count=")
            droppable = [i for i, arg in enumerate(argv) if i and not arg.startswith(slow)]
            if broken != "drop":
                argv.append(broken)
            elif droppable:
                argv.pop(self._pick(rng, droppable))
                dropped = True
        return argv, ("value" in faults or "config" in faults) and not dropped

    @pytest.mark.parametrize("command", list(CASES))
    def test_exit_codes(self, pool, command, capsys, monkeypatch):
        for var in cli._THREAD_ENV:  # --threads sets these; later tests get them back
            monkeypatch.setenv(var, os.environ.get(var, "1"))
        rng = np.random.default_rng(list(self.CASES).index(command) + 2026)
        failed, codes = [], []
        for i in range(self.CASES[command]):
            case = pool / f"{command}_{i}"
            case.mkdir()
            argv, must_fail = self._argv(rng, pool, case, command)
            try:
                code = run_cli(argv)
            except (Exception, SystemExit) as exc:  # run_cli must return, whatever the input
                code = f"raised {type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            codes.append(code)
            if (not (code == 0 or (code == 1 and "error:" in err)) or "Traceback" in err
                    or (must_fail and code == 0)):
                failed.append((argv, code, err[-300:]))
        assert not failed, failed
        # both outcomes occur: the faults reach past the parser, and clean draws run
        assert codes.count(0) >= 2 and codes.count(1) >= 2
