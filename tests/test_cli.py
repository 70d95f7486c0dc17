import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import luxprobe
from luxprobe.cli import main, thread_limit
from luxprobe.envmap import EnvironmentMap, rotate_env
from luxprobe.fusion import init_uniform, load_fusion_net, save_fusion_net
from luxprobe.imgio import read_pfm, read_png, write_pfm, write_png
from luxprobe.tonemap import tonemap_ldr
from conftest import evaluate_sequence, hot_spot_env
from test_acceptance import _determinism_commands


def smooth_env(height=32, top=400.0):
    width = 2 * height
    rows = np.arange(height)[:, None, None]
    cols = np.arange(width)[None, :, None]
    chans = np.arange(3)[None, None, :]
    data = 0.05 + top * (0.5 + 0.5 * np.sin(2 * np.pi * cols / width + chans)) * np.exp(
        -(((rows - height / 3) / (height / 4)) ** 2)
    )
    return EnvironmentMap(data)


@pytest.fixture
def env_file(tmp_path):
    path = tmp_path / "env.pfm"
    write_pfm(path, smooth_env().data)
    return path


def manifest_of(path):
    with open(str(path) + ".manifest.json") as f:
        return json.load(f)


def traced_peak(argv) -> int:
    """Peak bytes that `main(argv)` allocates, by tracemalloc; the command must succeed."""
    tracemalloc.start()
    try:
        assert main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTonemapInverse:
    def test_round_trip_under_quantization_floor(self, tmp_path, env_file):
        ldr, log = tmp_path / "ldr.png", tmp_path / "log.png"
        out = tmp_path / "rec.pfm"
        assert main(["tonemap", "--in", str(env_file), "--out-ldr", str(ldr),
                     "--out-log", str(log)]) == 0
        assert main(["inverse", "--ldr", str(ldr), "--log", str(log),
                     "--out", str(out)]) == 0
        original = read_pfm(env_file).astype(np.float64)
        recovered = read_pfm(out).astype(np.float64)
        rel = np.abs(recovered - original) / np.maximum(original, 1e-9)
        assert np.median(rel) < 0.02

    def test_ldr_pngs_carry_curve_metadata(self, tmp_path, env_file):
        ldr, log = tmp_path / "ldr.png", tmp_path / "log.png"
        main(["tonemap", "--in", str(env_file), "--out-ldr", str(ldr),
              "--out-log", str(log)])
        _, meta_ldr = read_png(ldr)
        _, meta_log = read_png(log)
        assert meta_ldr["tonecurve"] == "dual-reinhard16"
        assert meta_log["tonecurve"] == "dual-log10000"

    def test_manifest_written_with_hashes(self, tmp_path, env_file):
        ldr, log = tmp_path / "ldr.png", tmp_path / "log.png"
        main(["tonemap", "--in", str(env_file), "--out-ldr", str(ldr),
              "--out-log", str(log)])
        m = manifest_of(ldr)
        assert m["command"] == "tonemap"
        assert m["seed"] == 0
        assert set(m["outputs"]) == {str(ldr), str(log)}
        for digest in m["outputs"].values():
            assert len(digest) == 64


class TestEval:
    def test_identity_scores_zero(self, tmp_path):
        gt = tmp_path / "g.pfm"
        write_pfm(gt, hot_spot_env(height=16, value=20.0, base=0.2).data)
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(gt), "--gt", str(gt),
                     "--probe-size", "32", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for mat in ("diffuse", "matte", "mirror"):
            for metric in ("si_rmse", "angular_deg", "n_rmse"):
                assert abs(report["materials"][mat][metric]) < 1e-6
        assert abs(report["pae_deg"]) < 1e-9

    def test_eval_video(self, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        env = hot_spot_env(height=16, value=20.0, base=0.2)
        for i in range(3):
            write_pfm(pred_dir / f"f{i}.pfm", env.data)
            write_pfm(gt_dir / f"f{i}.pfm", env.data)
        out = tmp_path / "video.json"
        assert main(["eval-video", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--probe-size", "32", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["temporal"]["mirror.si_rmse"] == {"mean": 0.0, "std": 0.0}
        assert report["temporal"]["pae_deg"]["std"] == 0.0

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_eval_video_is_evaluate_sequence(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("LUXPROBE_THREADS", threads)
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        gt = hot_spot_env(height=16, row=6, col=10, value=40.0, base=0.25)
        for i, yaw in enumerate((0.0, 22.5, 45.0)):
            write_pfm(pred_dir / f"f{i}.pfm", rotate_env(gt, yaw).data)
            write_pfm(gt_dir / f"f{i}.pfm", gt.data)
        out = tmp_path / "video.json"
        assert main(["eval-video", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--probe-size", "32", "--out", str(out)]) == 0

        def frames(d):
            return [EnvironmentMap(read_pfm(p).astype(np.float64))
                    for p in sorted(d.iterdir()) if p.suffix == ".pfm"]

        expected = evaluate_sequence(frames(pred_dir), frames(gt_dir), probe_size=32)
        report = json.loads(out.read_text())
        assert report == expected.to_dict()
        assert report["temporal"]["mirror.si_rmse"]["std"] > 0.0

    def test_eval_video_memory_flat_in_frame_count(self, tmp_path, monkeypatch):
        # each pool task loads and scores its own frame pair, so one thread
        # holds one pair however many frames there are
        monkeypatch.setenv("LUXPROBE_THREADS", "1")
        rng = np.random.default_rng(0)
        frame_bytes = 64 * 128 * 3 * 8  # one float64 frame

        def run(frames):
            d = tmp_path / f"n{frames}"
            for sub in ("pred", "gt"):
                (d / sub).mkdir(parents=True)
                for i in range(frames):
                    write_pfm(d / sub / f"f{i}.pfm", rng.random((64, 128, 3)) + 0.1)
            return traced_peak(["eval-video", "--pred-dir", d / "pred", "--gt-dir", d / "gt",
                                "--probe-size", "16", "--out", d / "r.json"])

        run(1)  # warm up: first-call allocations stay out of the comparison
        few, many = run(2), run(8)
        assert many - few < frame_bytes, f"{(many - few) / frame_bytes:.2f} frames more"

    def test_frame_count_mismatch_is_data_error(self, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        env = hot_spot_env(height=16)
        write_pfm(pred_dir / "a.pfm", env.data)
        write_pfm(gt_dir / "a.pfm", env.data)
        write_pfm(gt_dir / "b.pfm", env.data)
        code = main(["eval-video", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR DATA:")


    def test_eval_video_empty_dir_is_data_error(self, tmp_path, capsys):
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        write_pfm(gt_dir / "a.pfm", hot_spot_env(height=16).data)
        out = tmp_path / "r.json"
        code = main(["eval-video", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("ERROR DATA: no frames") and "\n" not in err
        assert not out.exists()


class TestCropRotatePeak:
    def test_crop_pfm_and_png(self, tmp_path, env_file):
        out_pfm = tmp_path / "c.pfm"
        out_png = tmp_path / "c.png"
        assert main(["crop", "--pano", str(env_file), "--az", "15", "--fov", "60",
                     "--w", "40", "--h", "30", "--out", str(out_pfm)]) == 0
        assert read_pfm(out_pfm).shape == (30, 40, 3)
        assert main(["crop", "--pano", str(env_file), "--az", "15", "--fov", "60",
                     "--w", "40", "--h", "30", "--tonemap", "aces",
                     "--out", str(out_png)]) == 0
        img, meta = read_png(out_png)
        assert img.shape == (30, 40, 3)
        assert meta["tonecurve"] == "aces"

    def test_rotate_matches_library(self, tmp_path, env_file):
        out = tmp_path / "rot.pfm"
        assert main(["rotate", "--env", str(env_file), "--yaw", "90", "--out", str(out)]) == 0
        expected = rotate_env(EnvironmentMap(read_pfm(env_file).astype(np.float64)), 90.0)
        np.testing.assert_allclose(read_pfm(out), expected.data.astype(np.float32), atol=1e-6)

    def test_peak_prints_direction(self, tmp_path, capsys):
        path = tmp_path / "hot.pfm"
        write_pfm(path, hot_spot_env(height=16, base=0.0).data)
        assert main(["peak", "--env", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["direction"]) == 3
        assert np.linalg.norm(out["direction"]) == pytest.approx(1.0, abs=1e-9)


class TestRenderProbes:
    def test_emits_six_files(self, tmp_path, env_file):
        prefix = str(tmp_path / "p_")
        assert main(["render-probes", "--env", str(env_file), "--size", "32",
                     "--out-prefix", prefix]) == 0
        for name in ("mirror", "matte", "diffuse"):
            assert (tmp_path / f"p_{name}.pfm").is_file()
            assert (tmp_path / f"p_{name}.png").is_file()
        m = manifest_of(f"{prefix}mirror.pfm")
        assert len(m["outputs"]) == 6


class TestFuseCommands:
    def test_zero_steps_manifest_is_strict_json(self, tmp_path, capsys):
        net = tmp_path / "net.bin"
        assert main(["fuse-train", "--steps", "0", "--out", str(net)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        m = json.loads((tmp_path / "net.bin.manifest.json").read_text(), parse_constant=reject)
        assert m["parameters"]["final_loss"] is None

    def test_train_and_apply(self, tmp_path, env_file):
        net = tmp_path / "net.bin"
        assert main(["fuse-train", "--steps", "300", "--batch", "256",
                     "--out", str(net), "--seed", "7"]) == 0
        assert net.is_file() and not (tmp_path / "net.bin.layers.txt").exists()
        ldr, log = tmp_path / "l.png", tmp_path / "g.png"
        main(["tonemap", "--in", str(env_file), "--out-ldr", str(ldr), "--out-log", str(log)])
        out = tmp_path / "fused.pfm"
        assert main(["fuse-apply", "--net", str(net), "--ldr", str(ldr),
                     "--log", str(log), "--out", str(out)]) == 0
        fused = read_pfm(out)
        assert np.isfinite(fused).all() and (fused > 0).all()

    def test_inverse_with_net(self, tmp_path, env_file):
        net = tmp_path / "net.bin"
        main(["fuse-train", "--steps", "200", "--batch", "256", "--out", str(net)])
        ldr, log = tmp_path / "l.png", tmp_path / "g.png"
        main(["tonemap", "--in", str(env_file), "--out-ldr", str(ldr), "--out-log", str(log)])
        out = tmp_path / "rec.pfm"
        assert main(["inverse", "--ldr", str(ldr), "--log", str(log),
                     "--net", str(net), "--out", str(out)]) == 0
        assert (read_pfm(out) > 0).all()


class TestDatasetGen:
    def test_generates_samples_and_listing(self, tmp_path, env_file):
        out_dir = tmp_path / "ds"
        assert main(["dataset-gen", "--panos-dir", str(env_file.parent),
                     "--count", "2", "--w", "40", "--h", "30",
                     "--out-dir", str(out_dir), "--seed", "3"]) == 0
        listing = (out_dir / "dataset.jsonl").read_text().strip().split("\n")
        assert len(listing) == 2
        rec = json.loads(listing[0])
        assert (out_dir / "sample_0000" / "crop_000.png").is_file()
        assert rec["target_ldr"] == str(out_dir / "source_0000" / "target_ldr.pfm")
        assert rec["target_log"] == str(out_dir / "source_0000" / "target_log.pfm")
        assert Path(rec["target_ldr"]).is_file() and Path(rec["target_log"]).is_file()

    def test_ldr_png_source_omits_log(self, tmp_path):
        src = tmp_path / "panos"
        src.mkdir()
        write_png(src / "pano.png", np.clip(smooth_env(16).data / 500.0, 0, 1))
        out_dir = tmp_path / "ds"
        assert main(["dataset-gen", "--panos-dir", str(src), "--count", "1",
                     "--w", "40", "--h", "30", "--out-dir", str(out_dir)]) == 0
        rec = json.loads((out_dir / "dataset.jsonl").read_text().strip())
        assert rec["target_log"] is None

    def test_targets_written_once_per_source(self, tmp_path):
        src = tmp_path / "panos"
        src.mkdir()
        write_pfm(src / "a.pfm", smooth_env(16).data)
        write_png(src / "b.png", np.clip(smooth_env(16).data / 500.0, 0, 1))
        out_dir = tmp_path / "ds"
        assert main(["dataset-gen", "--panos-dir", str(src), "--count", "6", "--w", "8",
                     "--h", "6", "--out-dir", str(out_dir), "--seed", "0"]) == 0
        listing = out_dir / "dataset.jsonl"
        records = [json.loads(line) for line in listing.read_text().splitlines()]
        assert {rec["source"] for rec in records} == {"a.pfm", "b.png"}
        for rec in records:  # the records of a source name its one target set
            tdir = out_dir / ("source_0000" if rec["source"] == "a.pfm" else "source_0001")
            assert rec["target_ldr"] == str(tdir / "target_ldr.pfm")
            assert rec["target_log"] == (str(tdir / "target_log.pfm")
                                         if rec["source"] == "a.pfm" else None)
        written = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("target_*"))
        assert written == ["source_0000/target_ldr.pfm", "source_0000/target_log.pfm",
                           "source_0001/target_ldr.pfm"]  # and none under sample_XXXX
        expected = tonemap_ldr(read_pfm(src / "a.pfm").astype(np.float64))
        assert read_pfm(out_dir / written[0]).tobytes() == expected.astype(np.float32).tobytes()
        with open(str(listing) + ".manifest.json") as f:  # every output listed once
            pairs = json.load(f, object_pairs_hook=lambda kv: kv)
        outputs = [name for name, _ in dict(pairs)["outputs"]]
        assert len(outputs) == len(set(outputs))
        assert sorted(outputs) == sorted({str(listing), *(str(out_dir / w) for w in written),
                                          *(c for rec in records for c in rec["crops"])})

    def test_memory_grows_by_less_than_two_maps_per_drawn_source(self, tmp_path):
        # a source's targets are written and dropped, not kept with its panorama
        height = 128  # large enough that the maps outweigh the fixed allocations
        map_bytes = height * 2 * height * 3 * 8  # one float64 panorama

        def run(sources, tag):
            src = tmp_path / f"panos_{tag}"
            src.mkdir()
            for k in range(sources):
                write_pfm(src / f"p{k}.pfm", smooth_env(height, top=100.0 * (k + 1)).data)
            out_dir = tmp_path / f"ds_{tag}"
            peak = traced_peak(["dataset-gen", "--panos-dir", src, "--count", "12", "--w", "8",
                                "--h", "6", "--seed", "0", "--out-dir", out_dir])
            listing = (out_dir / "dataset.jsonl").read_text().splitlines()
            assert len({json.loads(line)["source"] for line in listing}) == sources
            return peak

        run(1, "warm")  # first-call allocations stay out of the comparison
        one, four = run(1, "one"), run(4, "four")
        per_source = (four - one) / 3
        assert per_source < 2 * map_bytes, f"{per_source / map_bytes:.2f} maps per source"

    def test_memory_flat_in_count(self, tmp_path):
        # each sample is written before the next one is drawn
        src = tmp_path / "panos"
        src.mkdir()
        write_pfm(src / "a.pfm", smooth_env(32).data)
        crop_bytes = 120 * 160 * 3 * 8  # one float64 crop

        def run(count):
            return traced_peak(["dataset-gen", "--panos-dir", src, "--count", count,
                                "--w", "160", "--h", "120", "--out-dir", tmp_path / f"n{count}"])

        run(1)  # warm up: first-call allocations stay out of the comparison
        few, many = run(2), run(8)
        assert many - few < crop_bytes, f"{(many - few) / crop_bytes:.2f} crops more"


class TestManifest:
    def test_lists_exactly_the_files_written(self, tmp_path):
        # each command of criterion 10, once, in a fresh directory: the files it
        # creates or rewrites, apart from its manifest, are the manifest's outputs
        root = tmp_path / "work"
        commands = _determinism_commands(root)

        def stamps():
            return {str(p): p.stat().st_mtime_ns for p in root.rglob("*") if p.is_file()}

        for name, argv, primary in commands:
            before = stamps()
            assert main(argv) == 0, name
            after = stamps()
            written = {p for p, t in after.items() if before.get(p) != t}
            manifest_path = primary + ".manifest.json"
            assert manifest_path in written, name
            m = manifest_of(primary)
            assert m["command"] == argv[0], name
            assert set(m["outputs"]) == written - {manifest_path}, name
            assert primary in m["outputs"], name


class TestCliContract:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_input_exits_1_with_error_line(self, tmp_path, capsys):
        code = main(["tonemap", "--in", str(tmp_path / "nope.pfm"),
                     "--out-ldr", str(tmp_path / "a.png"),
                     "--out-log", str(tmp_path / "b.png")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("ERROR DATA:") and "\n" not in err

    def test_config_file_supplies_defaults(self, tmp_path, env_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"percentile": 0.9, "env": str(env_file)}))
        assert main(["peak", "--config", str(cfg)]) == 0

    def test_config_key_is_the_flag_name(self, tmp_path, env_file):
        # --in stores to `infile`; the key is the flag's name, as for every other flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"in": str(env_file)}))
        outs = {}
        for route, argv in (("config", ["--config", str(cfg)]), ("flag", ["--in", str(env_file)])):
            outs[route] = [tmp_path / f"{route}_ldr.png", tmp_path / f"{route}_log.png"]
            assert main(["tonemap", *argv, "--out-ldr", str(outs[route][0]),
                         "--out-log", str(outs[route][1])]) == 0
        assert [p.read_bytes() for p in outs["config"]] == [p.read_bytes() for p in outs["flag"]]

    def test_flags_override_config(self, tmp_path, env_file):
        out_a = tmp_path / "a.pfm"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"yaw": 10.0}))
        assert main(["rotate", "--config", str(cfg), "--env", str(env_file),
                     "--yaw", "90", "--out", str(out_a)]) == 0
        m = manifest_of(out_a)
        assert m["parameters"]["yaw"] == 90.0

    def test_abbreviated_flags_are_usage_errors(self, tmp_path, env_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"w": 12, "h": 8}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        crop = ["crop", "--pano", str(env_file), "--out", str(out_dir / "c.pfm")]
        evaluate = ["eval", "--pred", str(env_file), "--gt", str(env_file),
                    "--out", str(out_dir / "r.json")]
        for argv, bad in ((crop, "--conf"), (evaluate, "--probe")):
            assert main(argv + [bad, str(cfg) if bad == "--conf" else "16"]) == 2
            assert f"unrecognized arguments: {bad} " in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []
        assert main(crop + ["--config", str(cfg)]) == 0  # the full spelling reads the file
        assert read_pfm(out_dir / "c.pfm").shape == (8, 12, 3)

    def test_config_path_in_one_token(self, tmp_path, env_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"w": 12, "h": 8}))
        out = tmp_path / "c.pfm"
        assert main(["crop", "--pano", str(env_file), "--out", str(out),
                     f"--config={cfg}"]) == 0
        assert read_pfm(out).shape == (8, 12, 3)

    def test_config_holding_a_list_is_data_error(self, tmp_path, env_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"w": 12}]))
        out = tmp_path / "c.pfm"
        assert main(["crop", "--pano", str(env_file), "--out", str(out),
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("ERROR DATA:") and "must hold a JSON object" in err
        assert "\n" not in err and not out.exists()

    @pytest.mark.parametrize("line", [b"EXPOSURE=0", b"EXPOSURE=-1", b"EXPOSURE=nan",
                                      b"EXPOSURE=abc", b"COLORCORR=1 2"])
    def test_invalid_hdr_multiplier_is_data_error(self, tmp_path, capsys, line):
        pano = tmp_path / "pano.hdr"
        pano.write_bytes(b"#?RADIANCE\n" + line + b"\n\n-Y 2 +X 4\n"
                         + bytes([128, 64, 32, 129]) * 8)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["crop", "--pano", str(pano), "--w", "4", "--h", "3",
                     "--out", str(out_dir / "c.pfm")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("ERROR DATA:") and "\n" not in err
        assert list(out_dir.iterdir()) == []

    def test_hdr_exposure_scales_the_crop(self, tmp_path):
        crops = []
        for name, line in (("plain", b""), ("exposed", b"EXPOSURE=4\n")):
            pano = tmp_path / f"{name}.hdr"
            pano.write_bytes(b"#?RADIANCE\n" + line + b"\n-Y 2 +X 4\n"
                             + bytes([128, 64, 32, 129]) * 8)
            out = tmp_path / f"{name}.pfm"
            assert main(["crop", "--pano", str(pano), "--w", "4", "--h", "3",
                         "--out", str(out)]) == 0
            crops.append(read_pfm(out))
        assert (crops[1] * 4 == crops[0]).all()

    def test_nan_channel_is_data_error(self, tmp_path, capsys):
        ldr = np.full((4, 8, 3), 0.5)
        ldr[1, 2, 1] = np.nan
        write_pfm(tmp_path / "ldr.pfm", ldr)
        write_pfm(tmp_path / "log.pfm", np.full((4, 8, 3), 0.25))
        out = tmp_path / "rec.pfm"
        code = main(["inverse", "--ldr", str(tmp_path / "ldr.pfm"),
                     "--log", str(tmp_path / "log.pfm"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("ERROR DATA:") and "\n" not in err
        assert not out.exists()

    def test_bad_png_crc_is_data_error(self, tmp_path, env_file, capsys):
        ldr, log = tmp_path / "ldr.png", tmp_path / "log.png"
        assert main(["tonemap", "--in", str(env_file), "--out-ldr", str(ldr),
                     "--out-log", str(log)]) == 0
        blob = bytearray(ldr.read_bytes())
        blob[blob.find(b"IEND") - 5] ^= 0xFF  # last byte of the IDAT CRC
        ldr.write_bytes(bytes(blob))
        capsys.readouterr()
        out = tmp_path / "rec.pfm"
        code = main(["inverse", "--ldr", str(ldr), "--log", str(log), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("ERROR DATA:") and "CRC" in err and "\n" not in err
        assert not out.exists()

    def test_thread_limit_env(self, monkeypatch):
        monkeypatch.setenv("LUXPROBE_THREADS", "3")
        assert thread_limit() == 3
        monkeypatch.setenv("LUXPROBE_THREADS", "0")
        assert thread_limit() >= 1
        monkeypatch.setenv("LUXPROBE_THREADS", "lots")
        with pytest.raises(ValueError):
            thread_limit()

    @pytest.mark.parametrize("value", [None, "0"])
    def test_default_pool_is_the_usable_cpus(self, monkeypatch, value):
        # a 2-CPU affinity set on a 64-CPU host
        if value is None:
            monkeypatch.delenv("LUXPROBE_THREADS", raising=False)
        else:
            monkeypatch.setenv("LUXPROBE_THREADS", value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert thread_limit() == 2
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without it
        assert thread_limit() == 64

    def test_bad_thread_env_is_data_error(self, tmp_path, env_file, monkeypatch, capsys):
        monkeypatch.setenv("LUXPROBE_THREADS", "-2")
        code = main(["peak", "--env", str(env_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR DATA:")

    def test_rerun_manifest_hashes_match(self, tmp_path, env_file):
        out = tmp_path / "r.pfm"
        main(["rotate", "--env", str(env_file), "--yaw", "33.3", "--out", str(out)])
        first = manifest_of(out)["outputs"]
        main(["rotate", "--env", str(env_file), "--yaw", "33.3", "--out", str(out)])
        second = manifest_of(out)["outputs"]
        assert first == second

    def test_inputs_not_mutated(self, tmp_path, env_file):
        before = env_file.read_bytes()
        main(["rotate", "--env", str(env_file), "--yaw", "45", "--out",
              str(tmp_path / "o.pfm")])
        assert env_file.read_bytes() == before


def _argv(command, bad, good, net, out):
    """Arguments that make `command` read `bad`, with any other input valid."""
    return {
        "crop": ["crop", "--pano", bad, "--w", "8", "--h", "6", "--out", out / "c.pfm"],
        "dataset-gen": ["dataset-gen", "--panos-dir", bad.parent, "--count", "1",
                        "--w", "8", "--h", "6", "--out-dir", out / "ds"],
        "tonemap": ["tonemap", "--in", bad, "--out-ldr", out / "l.png",
                    "--out-log", out / "g.png"],
        "inverse": ["inverse", "--ldr", bad, "--log", good, "--out", out / "r.pfm"],
        "fuse-apply": ["fuse-apply", "--net", net, "--ldr", bad, "--log", good,
                       "--out", out / "f.pfm"],
        "render-probes": ["render-probes", "--env", bad, "--size", "16",
                          "--out-prefix", out / "p_"],
        "eval": ["eval", "--pred", bad, "--gt", good, "--probe-size", "16",
                 "--out", out / "e.json"],
        "eval-video": ["eval-video", "--pred-dir", bad.parent, "--gt-dir", good.parent,
                       "--probe-size", "16", "--out", out / "v.json"],
        "peak": ["peak", "--env", bad, "--out", out / "k.json"],
        "rotate": ["rotate", "--env", bad, "--yaw", "90", "--out", out / "o.pfm"],
    }[command]


def _assert_rejected(argv, out, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR DATA:"), captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []  # no output and no manifest
    return lines[0]


FILE_COMMANDS = ["crop", "dataset-gen", "tonemap", "inverse", "fuse-apply",
                 "render-probes", "eval", "eval-video", "peak", "rotate"]


# (command, output flag, file name): an image output whose suffix is not that of
# the format the command writes there
OUTPUT_SUFFIX_CASES = [
    ("crop", "--out", "c.jpg"), ("crop", "--out", "c.hdr"), ("crop", "--out", "c"),
    ("tonemap", "--out-ldr", "l.pfm"), ("tonemap", "--out-log", "g.pfm"),
    ("inverse", "--out", "r.png"), ("fuse-apply", "--out", "f.png"),
    ("rotate", "--out", "o.png"), ("rotate", "--out", "o.PFM"),
]


def _valid_map():
    """A map every command accepts: in [0, 1] for the dual-pair commands, with a peak."""
    data = np.full((8, 16, 3), 0.25)
    data[2, 4] = 0.9
    return data


class TestInputRule:
    """Every command that reads a file rejects bad input before writing anything."""

    @pytest.fixture
    def inputs(self, tmp_path):
        good = tmp_path / "good" / "x.pfm"
        good.parent.mkdir()
        write_pfm(good, _valid_map())
        net = tmp_path / "net.bin"
        save_fusion_net(init_uniform(0, dtype=np.float32), net)
        out = tmp_path / "out"
        out.mkdir()
        return good, net, out

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_valid_input_runs(self, tmp_path, inputs, command):
        good, net, out = inputs
        bad = tmp_path / "bad" / "x.pfm"  # the same map: the control for the cases below
        bad.parent.mkdir()
        write_pfm(bad, _valid_map())
        assert main([str(a) for a in _argv(command, bad, good, net, out)]) == 0

    @pytest.mark.parametrize("texel", ["nan", "+inf", "-inf", "missing"])
    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_non_finite_or_missing_input_exits_1(self, tmp_path, capsys, inputs, command, texel):
        good, net, out = inputs
        bad = tmp_path / "bad" / "x.pfm"
        if texel != "missing":  # else neither the file nor its directory exists
            data = _valid_map()
            data[3, 5, 1] = float(texel)
            bad.parent.mkdir()
            write_pfm(bad, data)
        _assert_rejected(_argv(command, bad, good, net, out), out, capsys)

    @pytest.mark.parametrize("az", ["nan", "inf", "-inf"])
    def test_crop_rejects_non_finite_azimuth(self, capsys, inputs, az):
        good, _, out = inputs
        _assert_rejected(["crop", "--pano", good, f"--az={az}", "--w", "8", "--h", "6",
                          "--out", out / "c.pfm"], out, capsys)

    def test_crop_rejects_xyze_hdr(self, tmp_path, capsys, inputs):
        # the header's FORMAT line was skipped, so XYZE texels were cropped as RGB
        _, _, out = inputs
        pano = tmp_path / "x.hdr"
        pano.write_bytes(b"#?RADIANCE\nFORMAT=32-bit_rle_xyze\n\n-Y 16 +X 32\n"
                         + bytes([128, 64, 32, 129]) * (16 * 32))
        err = _assert_rejected(["crop", "--pano", pano, "--w", "8", "--h", "6",
                                "--out", out / "c.png"], out, capsys)
        assert "32-bit_rle_xyze" in err

    @pytest.mark.parametrize("command, flag, name", OUTPUT_SUFFIX_CASES)
    def test_output_suffix_must_match_format(self, tmp_path, capsys, inputs, command, flag, name):
        good, net, out = inputs
        missing = tmp_path / "missing" / "x.pfm"  # the suffix is checked before any read
        argv = _argv(command, missing, good, net, out)
        argv[argv.index(flag) + 1] = out / name
        assert "unsupported output format" in _assert_rejected(argv, out, capsys)

    @pytest.mark.parametrize("command, net", [
        ("inverse", None), ("inverse", "net.bin"), ("fuse-apply", "net.bin"),
        ("fuse-apply", "missing.bin"),  # the width rule comes before the net is opened
    ])
    def test_dual_pair_must_be_a_panorama(self, tmp_path, capsys, inputs, command, net):
        _, _, out = inputs
        pair = tmp_path / "pair"
        pair.mkdir()
        for name in ("ldr.png", "log.png"):
            write_png(pair / name, np.full((16, 16, 3), 0.5))
        argv = [command, "--ldr", pair / "ldr.png", "--log", pair / "log.png",
                "--out", out / "r.pfm"]
        if net is not None:
            argv += ["--net", tmp_path / net]
        assert "width must equal 2*height" in _assert_rejected(argv, out, capsys)

    @pytest.mark.parametrize("out_log", ["./same.png", "{out}/same.png"])
    def test_tonemap_outputs_must_be_two_files(self, capsys, monkeypatch, inputs, out_log):
        good, _, out = inputs
        monkeypatch.chdir(out)
        argv = ["tonemap", "--in", good, "--out-ldr", "same.png",
                "--out-log", out_log.format(out=out)]
        assert "name one file" in _assert_rejected(argv, out, capsys)

    @pytest.mark.parametrize("suffix", [".pfm", ".png"])
    def test_dataset_gen_rejects_non_2to1_panorama(self, tmp_path, capsys, suffix):
        pano = tmp_path / "panos" / f"x{suffix}"
        pano.parent.mkdir()
        (write_pfm if suffix == ".pfm" else write_png)(pano, np.full((8, 12, 3), 0.5))
        out = tmp_path / "out"
        out.mkdir()
        _assert_rejected(["dataset-gen", "--panos-dir", pano.parent, "--count", "1",
                          "--out-dir", out / "ds"], out, capsys)


# the maps of the stderr sweep, as (PFM scale line, texels): a scale whose product
# overflows float32, values at both ends of float32's range, and all zeros
def _sweep_maps():
    one_big = _valid_map()
    one_big[3, 5] = 3e38
    return {"overflowing_scale": (b"-1e38", np.full((8, 16, 3), 100.0)),
            "all_3e38": (b"-1.0", np.full((8, 16, 3), 3e38)),
            "all_1e-45": (b"-1.0", np.full((8, 16, 3), 1e-45)),
            "one_3e38": (b"-1.0", one_big),
            "zeros": (b"-1.0", np.zeros((8, 16, 3)))}


class TestStderrOfAFreshProcess:
    """stderr as a user sees it: pytest captures warnings apart from capsys, so
    each command runs in its own interpreter."""

    def test_one_error_line_or_none(self, tmp_path):
        good = tmp_path / "good" / "x.pfm"
        good.parent.mkdir()
        write_pfm(good, _valid_map())
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(luxprobe.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        for name, (scale, texels) in _sweep_maps().items():
            bad = tmp_path / f"{name}.pfm"
            bad.write_bytes(b"PF\n16 8\n" + scale + b"\n" + texels[::-1].astype("<f4").tobytes())
            for command in ("tonemap", "crop", "render-probes", "eval", "peak", "rotate"):
                out = tmp_path / f"{name}_{command}"
                out.mkdir()
                argv = [str(a) for a in _argv(command, bad, good, None, out)]
                run = subprocess.run([sys.executable, "-m", "luxprobe.cli", *argv], env=env,
                                     capture_output=True, text=True, timeout=60)
                lines = run.stderr.splitlines()
                if run.returncode == 0:
                    assert run.stderr == "", (name, command, run.stderr)
                else:
                    assert run.returncode == 1, (name, command, run.stderr)
                    assert len(lines) == 1 and lines[0].startswith("ERROR DATA:"), \
                        (name, command, run.stderr)
                if name == "overflowing_scale":
                    assert "overflows float32" in run.stderr, (command, run.stderr)


class TestUniformMap:
    """A uniform map has no peak, so its report cannot be complete: exit 1, write nothing."""

    @pytest.mark.parametrize("command", ["eval", "eval-video"])
    def test_uniform_map_exits_1(self, tmp_path, capsys, command):
        flat = tmp_path / "flat" / "x.pfm"
        flat.parent.mkdir()
        write_pfm(flat, np.full((16, 32, 3), 0.5))
        out = tmp_path / "out"
        out.mkdir()
        _assert_rejected(_argv(command, flat, flat, None, out), out, capsys)


# ---------------------------------------------------------------------------
# the argument boundary: flags and --config values parse the same way, and each
# value out of range exits 1 or 2 before anything is written

def _boundary_base(command, good, out) -> dict:
    """Small valid arguments for `command`, flag -> value."""
    return {
        "crop": {"--pano": good, "--w": 8, "--h": 6, "--out": out / "c.pfm"},
        "tonemap": {"--in": good, "--out-ldr": out / "l.png", "--out-log": out / "g.png"},
        "inverse": {"--ldr": good, "--log": good, "--out": out / "r.pfm"},
        "fuse-apply": {"--net": good.parent.parent / "net.bin", "--ldr": good, "--log": good,
                       "--out": out / "f.pfm"},
        "dataset-gen": {"--panos-dir": good.parent, "--count": 1, "--w": 8, "--h": 6,
                        "--out-dir": out / "ds"},
        "fuse-train": {"--steps": 2, "--batch": 8, "--out": out / "n.bin"},
        "render-probes": {"--env": good, "--size": 16, "--out-prefix": out / "p_"},
        "eval": {"--pred": good, "--gt": good, "--probe-size": 16, "--out": out / "e.json"},
        "eval-video": {"--pred-dir": good.parent, "--gt-dir": good.parent,
                       "--probe-size": 16, "--out": out / "v.json"},
        "peak": {"--env": good, "--out": out / "k.json"},
        "rotate": {"--env": good, "--yaw": 90, "--out": out / "o.pfm"},
    }[command]


NUMERIC_FLAGS = [
    ("crop", "--az"), ("crop", "--el"), ("crop", "--fov"), ("crop", "--w"), ("crop", "--h"),
    ("crop", "--seed"), ("dataset-gen", "--count"), ("dataset-gen", "--video-frames"),
    ("dataset-gen", "--w"), ("dataset-gen", "--h"), ("dataset-gen", "--seed"),
    ("fuse-train", "--steps"), ("fuse-train", "--batch"), ("fuse-train", "--lr"),
    ("fuse-train", "--seed"), ("render-probes", "--size"), ("eval", "--probe-size"),
    ("eval-video", "--probe-size"), ("peak", "--percentile"), ("rotate", "--yaw"),
]
EDGE_VALUES = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "0": 0,
               "-1": -1, "1e308": 1e308, "1e-300": 1e-300}


# (command, flag, input under the boundary directory): both dual-pair channels
# are 16x16 PNGs, which are not a panorama, and `flag` names one of them or a
# net file; the width rule is reported before the net file is opened
SQUARE_PAIR_CASES = [
    ("inverse", "--ldr", "square/ldr.png"), ("inverse", "--net", "net.bin"),
    ("fuse-apply", "--log", "square/log.png"), ("fuse-apply", "--net", "missing.bin"),
]


def _run(argv):
    """main(argv) with its stdout and stderr, warnings included as a terminal shows
    them; a traceback fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


def _check_outcome(code, err, out_dir):
    written = sorted(p for p in out_dir.rglob("*"))
    if code == 0:
        for path in written:
            if path.suffix == ".pfm":
                assert np.isfinite(read_pfm(path)).all(), path
            elif path.suffix in (".json", ".jsonl"):
                text = path.read_text()
                for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                    json.loads(doc, parse_constant=lambda name: pytest.fail(f"{name} in {path}"))
            elif path.suffix == ".bin":
                assert np.isfinite(load_fusion_net(path).params).all()
        return
    assert written == [], f"exit {code} wrote {written}"
    lines = err.splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("ERROR DATA:"), err
    else:
        assert code == 2, err
        assert lines[0].startswith("usage: luxprobe ")
        assert re.match(r"luxprobe [\w-]+: error: ", lines[-1]), err
        assert sum("error:" in line for line in lines) == 1, err


@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    good = root / "maps" / "x.pfm"
    good.parent.mkdir()
    write_pfm(good, hot_spot_env(height=16, value=20.0, base=0.2).data)
    save_fusion_net(init_uniform(0, dtype=np.float32), root / "net.bin")
    (root / "square").mkdir()
    for name in ("ldr.png", "log.png"):
        write_png(root / "square" / name, np.full((16, 16, 3), 0.5))
    return root, good


class TestArgumentBoundary:
    # 153 cases, each numeric flag at each edge value, each output whose suffix
    # names another format and each dual pair that is not a panorama; hypothesis
    # stops once it has tried each (about 10 s)
    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from([(*c, v) for c in NUMERIC_FLAGS for v in EDGE_VALUES]
                                + OUTPUT_SUFFIX_CASES + SQUARE_PAIR_CASES))
    def test_flag_and_config_agree(self, boundary_dir, case):
        root, good = boundary_dir
        command, flag, value = case
        square = case in SQUARE_PAIR_CASES
        codes = []
        for route in ("flag", "config"):
            work = Path(tempfile.mkdtemp(dir=root))
            out = work / "out"
            out.mkdir()
            base = _boundary_base(command, good, out)
            if square:
                base.update({"--ldr": root / "square" / "ldr.png",
                             "--log": root / "square" / "log.png"})
            base.pop(flag, None)
            argv = [command, *(tok for item in base.items() for tok in item)]
            path = (root if square else out) / value
            token, config = ((value, EDGE_VALUES[value]) if value in EDGE_VALUES
                             else (path, str(path)))
            if route == "flag":
                argv.insert(1, f"{flag}={token}")
            else:
                cfg = work / "cfg.json"
                cfg.write_text(json.dumps({flag[2:]: config}))
                argv[1:1] = ["--config", cfg]
            code, _, err = _run(argv)
            _check_outcome(code, err, out)
            assert not square or "width must equal 2*height" in err, err
            codes.append(code)
        assert codes[0] == codes[1], f"{command} {flag}={value}: flag {codes[0]}, config {codes[1]}"
        assert value in EDGE_VALUES or codes == [1, 1], f"{command} {flag}={value}: {codes}"

    @pytest.mark.parametrize("command, config", [
        ("crop", {"w": 8.5}),
        ("crop", {"tonemap": "bogus"}),
        ("crop", {"az": None}),
        ("rotate", {"yaw": [1]}),
        ("fuse-train", {"steps": 2.5}),
        ("fuse-train", {"no_quantize": "yes"}),
        ("rotate", {"out": None}),
        ("dataset-gen", {"seed": 1.5}),
        ("eval", {"probe_size": 16.5}),
    ])
    def test_bad_config_value_is_usage_error(self, boundary_dir, command, config):
        root, good = boundary_dir
        work = Path(tempfile.mkdtemp(dir=root))
        out = work / "out"
        out.mkdir()
        cfg = work / "cfg.json"
        cfg.write_text(json.dumps(config))
        base = _boundary_base(command, good, out)
        argv = [command, "--config", cfg, *(tok for item in base.items() for tok in item)]
        code, _, err = _run(argv)
        assert code == 2, err
        _check_outcome(code, err, out)

    @pytest.mark.parametrize("command, flag, value", [
        ("rotate", "--yaw", "inf"), ("rotate", "--yaw", "-inf"), ("rotate", "--yaw", "1e308"),
        ("dataset-gen", "--count", "-1"), ("dataset-gen", "--count", "0"),
        ("dataset-gen", "--video-frames", "0"), ("dataset-gen", "--video-frames", "-1"),
        ("fuse-train", "--steps", "-1"), ("fuse-train", "--batch", "0"),
        ("fuse-train", "--lr", "nan"),
    ])
    def test_out_of_range_flag_is_data_error(self, boundary_dir, command, flag, value):
        root, good = boundary_dir
        out = Path(tempfile.mkdtemp(dir=root)) / "out"
        out.mkdir()
        base = _boundary_base(command, good, out)
        base[flag] = value
        code, _, err = _run([command, *(f"{k}={v}" for k, v in base.items())])
        assert code == 1, err
        _check_outcome(code, err, out)

    def test_config_store_true_and_unknown_keys(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for no_quantize, quantize in ((True, False), (False, True)):
            cfg.write_text(json.dumps({"no-quantize": no_quantize, "not_a_flag": 1}))
            net = tmp_path / "n.bin"
            code, _, err = _run(["fuse-train", "--config", cfg, "--steps", 0, "--out", net])
            assert code == 0, err
            assert manifest_of(net)["parameters"]["quantize"] is quantize

    def test_config_int_for_float_flag_records_float(self, tmp_path, env_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"yaw": 10}))
        outs = [tmp_path / "config.pfm", tmp_path / "flag.pfm"]
        assert main(["rotate", "--config", str(cfg), "--env", str(env_file),
                     "--out", str(outs[0])]) == 0
        assert main(["rotate", "--yaw", "10", "--env", str(env_file), "--out", str(outs[1])]) == 0
        yaws = [manifest_of(p)["parameters"]["yaw"] for p in outs]
        assert yaws == [10.0, 10.0] and all(isinstance(y, float) for y in yaws)
        assert outs[0].read_bytes() == outs[1].read_bytes()
