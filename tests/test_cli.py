import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import luxprobe
from luxprobe.cli import main, thread_limit
from luxprobe.envmap import BLOCK_PIXELS, EnvironmentMap, rotate_env, sample_equirect
from luxprobe.fusion import fusion_forward, init_uniform, load_fusion_net, save_fusion_net
from luxprobe.imgio import read_pfm, read_png, write_pfm, write_png
from luxprobe.probes import PROBE_BLOCK_PIXELS, STANDARD_MATERIALS, render_probe
from luxprobe.projection import CameraSpec, camera_rays
from luxprobe.tonemap import apply_display_tonemap, inverse_rule, tonemap_ldr, tonemap_log
from conftest import (allocation_peak, evaluate_sequence, hot_spot_env, overflowing_inside_net,
                      overflowing_net, png_with_row_filters)
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
    with allocation_peak() as probe:
        assert main([str(a) for a in argv]) == 0
    return probe.bytes


# ---------------------------------------------------------------------------
# the harness of every CLI check: two runners, each returning (exit code, stdout,
# stderr) as a terminal shows them, the one outcome check and the one table of
# small valid arguments

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


def _fresh_env(**extra) -> dict:
    """This process's environment with this package on PYTHONPATH, plus `extra`."""
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(luxprobe.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def _fresh(argv, preexec_fn=None, **env):
    """`luxprobe argv` run in a new interpreter with this package on its path and
    `env` added to its environment, as a user runs it."""
    run = subprocess.run([sys.executable, "-m", "luxprobe.cli", *map(str, argv)],
                         env=_fresh_env(**env), preexec_fn=preexec_fn,
                         capture_output=True, text=True, timeout=60)
    return run.returncode, run.stdout, run.stderr


def _check_outcome(code, stdout, stderr, out_dir) -> int:
    """The one rule for how a command ends; returns its exit code. Exit 0: nothing
    on stderr, and every PFM and net written under `out_dir` is finite and every
    JSON document strict. Exit 1: one stderr line, `ERROR DATA: ...`. Exit 2:
    argparse's usage line and one `error:` line. Exit 1 and 2 print nothing on
    stdout and write nothing, no manifest either."""
    written = sorted(out_dir.rglob("*"))
    if code == 0:
        assert stderr == "", stderr
        for path in written:
            if path.suffix == ".pfm":
                assert np.isfinite(read_pfm(path)).all(), path
            elif path.suffix in (".json", ".jsonl"):
                text = path.read_text()
                for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                    json.loads(doc, parse_constant=lambda name: pytest.fail(f"{name} in {path}"))
            elif path.suffix == ".bin":
                assert np.isfinite(load_fusion_net(path).params).all()
        return code
    assert written == [], f"exit {code} wrote {written}"
    assert stdout == "", stdout
    lines = stderr.splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("ERROR DATA:"), stderr
    else:
        assert code == 2, stderr
        assert lines[0].startswith("usage: luxprobe "), stderr
        assert re.match(r"luxprobe( [\w-]+)?: error: ", lines[-1]), stderr
        assert sum("error:" in line for line in lines) == 1, stderr
    return code


def _argv(command, good, out, bad=None, net=None, flags=None) -> list:
    """Small valid arguments for `command`, as --flag=value tokens: it reads the map
    file `good`, or its directory, and writes under the directory `out`. With `bad`,
    the command's first input is `bad` (or its directory) instead, and `net` is
    the net `fuse-apply` reads. `flags` sets flags, or drops those set to None."""
    bad = good if bad is None else bad
    args = {
        "crop": {"--pano": bad, "--w": 8, "--h": 6, "--out": out / "c.pfm"},
        "dataset-gen": {"--panos-dir": bad.parent, "--count": 1, "--w": 8, "--h": 6,
                        "--out-dir": out / "ds"},
        "tonemap": {"--in": bad, "--out-ldr": out / "l.png", "--out-log": out / "g.png"},
        "inverse": {"--ldr": bad, "--log": good, "--out": out / "r.pfm"},
        "fuse-apply": {"--net": net, "--ldr": bad, "--log": good, "--out": out / "f.pfm"},
        "fuse-train": {"--steps": 2, "--batch": 8, "--out": out / "n.bin"},
        "render-probes": {"--env": bad, "--size": 16, "--out-prefix": out / "p_"},
        "eval": {"--pred": bad, "--gt": good, "--probe-size": 16, "--out": out / "e.json"},
        "eval-video": {"--pred-dir": bad.parent, "--gt-dir": good.parent,
                       "--probe-size": 16, "--out": out / "v.json"},
        "peak": {"--env": bad, "--out": out / "k.json"},
        "rotate": {"--env": bad, "--yaw": 90, "--out": out / "o.pfm"},
    }[command]
    args.update(flags or {})
    return [command, *(f"{flag}={value}" for flag, value in args.items() if value is not None)]


@pytest.fixture
def out_dir(tmp_path):
    """An empty directory for a command's outputs, which the outcome check reads."""
    path = tmp_path / "out"
    path.mkdir()
    return path


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

    # bytes per map value that each command holds whole, its float32 decoded
    # inputs and its output: the float32 map `inverse` and `fuse-apply` write,
    # the uint8 codes of one `tonemap` channel and the copies its PNG write
    # makes of them (filtered rows, compressed stream, file), and the float64
    # map `rotate` resamples into
    WHOLE_BYTES = {"inverse": 2 * 4 + 4, "fuse-apply": 2 * 4 + 4, "tonemap": 4 + 6,
                   "rotate": 4 + 8}

    @pytest.mark.parametrize("command", list(WHOLE_BYTES))
    def test_memory_flat_in_map_size(self, tmp_path, command):
        # 128x256 and 512x1024 float32 PFMs: beyond its inputs and its output,
        # each command holds a few float64 row blocks at either size
        block = BLOCK_PIXELS * 3 * 8
        rng = np.random.default_rng(7)
        net = tmp_path / "net.bin"
        save_fusion_net(init_uniform(0, np.float32), net)
        for height in (128, 512):
            shape = (height, 2 * height, 3)
            env, pair = tmp_path / f"env{height}.pfm", []
            write_pfm(env, rng.gamma(1.0, 2.0, shape).astype(np.float32))
            for name in ("ldr", "log"):
                pair += [f"--{name}", tmp_path / f"{name}{height}.pfm"]
                write_pfm(pair[-1], rng.uniform(-0.05, 1.05, shape).astype(np.float32))
            argv = {"inverse": ["inverse", *pair, "--out", tmp_path / "hdr.pfm"],
                    "fuse-apply": ["fuse-apply", "--net", net, *pair,
                                   "--out", tmp_path / "hdr.pfm"],
                    "tonemap": ["tonemap", "--in", env, "--out-ldr", tmp_path / "ldr.png",
                                "--out-log", tmp_path / "log.png"],
                    "rotate": ["rotate", "--env", env, "--yaw", 17.3, "--out", tmp_path / "r.pfm"],
                    }[command]
            traced_peak(argv)  # warm up: first-call allocations stay out of the comparison
            rest = traced_peak(argv) - self.WHOLE_BYTES[command] * np.prod(shape)
            assert rest < 10 * block, f"{height} rows: {rest / block:.2f} blocks"


class TestEval:
    def test_identity_scores_zero(self, tmp_path):
        # a hot spot, and a map with an odd row count: all ten values exactly 0
        maps = {"hot": hot_spot_env(height=16, value=20.0, base=0.2).data,
                "odd": np.random.default_rng(2).gamma(1.0, 2.0, (33, 66, 3))}
        for name, data in maps.items():
            gt = tmp_path / f"{name}.pfm"
            write_pfm(gt, data)
            out = tmp_path / f"{name}.json"
            assert main(["eval", "--pred", str(gt), "--gt", str(gt),
                         "--probe-size", "32", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            values = [v for m in report["materials"].values() for v in m.values()]
            assert values + [report["pae_deg"]] == [0.0] * 10, (name, report)

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

    def test_frame_count_mismatch_is_data_error(self, tmp_path, out_dir):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        env = hot_spot_env(height=16)
        write_pfm(pred_dir / "a.pfm", env.data)
        write_pfm(gt_dir / "a.pfm", env.data)
        write_pfm(gt_dir / "b.pfm", env.data)
        assert _check_outcome(*_run(["eval-video", "--pred-dir", pred_dir, "--gt-dir", gt_dir,
                                     "--out", out_dir / "r.json"]), out_dir) == 1

    def test_eval_video_empty_dir_is_data_error(self, tmp_path, out_dir):
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        write_pfm(gt_dir / "a.pfm", hot_spot_env(height=16).data)
        code, stdout, err = _run(["eval-video", "--pred-dir", pred_dir, "--gt-dir", gt_dir,
                                  "--out", out_dir / "r.json"])
        assert _check_outcome(code, stdout, err, out_dir) == 1 and "no frames" in err


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

    @pytest.mark.parametrize("case", ["crop-agx", "crop-filmic", "rotate", "inverse",
                                      "render-probes", "tonemap", "dataset-gen", "fuse-apply"])
    def test_command_is_its_whole_array_pipeline(self, tmp_path, case):
        # a float32 160x320 PFM: rotate, inverse and tonemap run in two row blocks
        # of it and fuse-apply in 25; a 1500-wide crop runs in 21-row blocks, so 37
        # rows are a block and a partial one. Each output is the bytes of the
        # whole-array library calls on the float64 map the loaders once made.
        shape = (160, 320, 3)
        rng = np.random.default_rng(1)
        pano = tmp_path / "panos" / "pano.pfm"
        pano.parent.mkdir()
        write_pfm(pano, rng.gamma(1.0, 2.0, shape).astype(np.float32))
        env = read_pfm(pano).astype(np.float64)
        want, got = tmp_path / "want", tmp_path / "got"
        want.mkdir()
        got.mkdir()
        if case.startswith("crop-"):
            tone = case[5:]
            cam = CameraSpec(azimuth=0.0, elevation=0.0, fov=60.0, width=1500, height=37)
            view = sample_equirect(env, camera_rays(cam))
            write_pfm(want / "c.pfm", view)
            write_png(want / "c.png", apply_display_tonemap(view, tone),
                      metadata={"tonecurve": tone})
            runs = [["crop", "--pano", pano, "--w", 1500, "--h", 37, "--tonemap", tone,
                     "--out", got / name] for name in ("c.pfm", "c.png")]
        elif case == "rotate":
            write_pfm(want / "r.pfm", rotate_env(EnvironmentMap(env), 17.3).data)
            runs = [["rotate", "--env", pano, "--yaw", 17.3, "--out", got / "r.pfm"]]
        elif case == "inverse":  # a float32 pair, clipped into [0, 1] as it is loaded
            pair = [tmp_path / "ldr.pfm", tmp_path / "log.pfm"]
            for path in pair:
                write_pfm(path, rng.uniform(-0.05, 1.05, shape).astype(np.float32))
            write_pfm(want / "h.pfm", inverse_rule(
                *(np.clip(read_pfm(p).astype(np.float64), 0.0, 1.0) for p in pair)))
            runs = [["inverse", "--ldr", pair[0], "--log", pair[1], "--out", got / "h.pfm"]]
        elif case == "render-probes":
            for name, material in STANDARD_MATERIALS.items():
                probe = render_probe(EnvironmentMap(env), material, 32)
                write_pfm(want / f"p_{name}.pfm", probe.pixels)
                write_png(want / f"p_{name}.png", apply_display_tonemap(probe.pixels, "gamma24"),
                          metadata={"tonecurve": "gamma24"})
            runs = [["render-probes", "--env", pano, "--size", 32, "--out-prefix", got / "p_"]]
        elif case == "tonemap":
            write_png(want / "l.png", tonemap_ldr(env), metadata={"tonecurve": "dual-reinhard16"})
            write_png(want / "g.png", tonemap_log(env), metadata={"tonecurve": "dual-log10000"})
            runs = [["tonemap", "--in", pano, "--out-ldr", got / "l.png",
                     "--out-log", got / "g.png"]]
        elif case == "dataset-gen":  # each drawn source's dual targets
            (want / "source_0000").mkdir()
            write_pfm(want / "source_0000" / "target_ldr.pfm", tonemap_ldr(env))
            write_pfm(want / "source_0000" / "target_log.pfm", tonemap_log(env))
            runs = [["dataset-gen", "--panos-dir", pano.parent, "--count", 1, "--w", 32,
                     "--h", 24, "--out-dir", got]]
        else:  # fuse-apply, on the tonemapped PNG pair
            net, ldr, log = tmp_path / "net.bin", tmp_path / "l.png", tmp_path / "g.png"
            save_fusion_net(init_uniform(0, np.float32), net)
            write_png(ldr, tonemap_ldr(env))
            write_png(log, tonemap_log(env))
            fused = fusion_forward(load_fusion_net(net),
                                   *(read_png(p)[0].reshape(-1, 3) for p in (ldr, log)))
            write_pfm(want / "f.pfm", fused.reshape(shape))
            runs = [["fuse-apply", "--net", net, "--ldr", ldr, "--log", log,
                     "--out", got / "f.pfm"]]
        for argv in runs:
            assert main([str(a) for a in argv]) == 0, argv
        wanted = [p.relative_to(want) for p in want.rglob("*") if p.is_file()]
        assert wanted
        for rel in wanted:
            assert (got / rel).read_bytes() == (want / rel).read_bytes(), rel

    def test_crop_memory(self, tmp_path):
        # the view, its tone-mapped copy and its float codes were each whole
        path = tmp_path / "big.pfm"
        write_pfm(path, np.random.default_rng(6).gamma(1.0, 2.0, (256, 512, 3)))
        peak = traced_peak(["crop", "--pano", path, "--w", 720, "--h", 480, "--tonemap", "agx",
                            "--out", tmp_path / "c.png"])
        crop, pano = 480 * 720 * 3 * 8, 256 * 512 * 3 * 8  # float64 bytes
        assert peak < 2.5 * crop + pano, (peak - pano) / crop

    def test_crop_memory_flat_in_map_size(self, tmp_path):
        # the map is held as its float32 decode: beyond it, a crop from a
        # 512x1024 PFM peaks no higher than one from a 128x256 PFM
        rest = {}
        for height in (128, 512):
            path = tmp_path / f"m{height}.pfm"
            write_pfm(path, np.random.default_rng(height).gamma(1.0, 2.0, (height, 2 * height, 3)))
            argv = ["crop", "--pano", path, "--tonemap", "agx", "--out", tmp_path / "c.png"]
            traced_peak(argv)  # warm up: first-call allocations stay out of the comparison
            rest[height] = traced_peak(argv) - height * 2 * height * 3 * 4
        block = BLOCK_PIXELS * 3 * 8
        assert rest[512] - rest[128] < block, (rest[512] - rest[128]) / block

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

    def test_memory_flat_in_probe_size(self, tmp_path):
        # beyond its output image, a 1024-pixel probe peaks no higher than a
        # 256-pixel one: per probe pixel, the float32 image the PFMs store, the
        # uint8 codes, the disc mask and the PNG's filtered rows, and the PNG's
        # compressed stream thrice (IDAT body, chunk and file); the rest is a
        # few row blocks of the lookups
        env = tmp_path / "env.pfm"
        write_pfm(env, np.random.default_rng(7).gamma(1.0, 2.0, (64, 128, 3)).astype(np.float32))
        rest = {}
        for size in (256, 1024):
            argv = ["render-probes", "--env", env, "--size", size, "--out-prefix", tmp_path / "p_"]
            traced_peak(argv)  # warm up: first-call allocations stay out of the comparison
            peak = traced_peak(argv)
            png = max((tmp_path / f"p_{name}.png").stat().st_size for name in STANDARD_MATERIALS)
            rest[size] = peak - (4 * 3 + 3 + 1 + 3) * size * size - 3 * png
        block = PROBE_BLOCK_PIXELS * 3 * 8
        assert rest[1024] - rest[256] < block, (rest[1024] - rest[256]) / block


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

    def test_one_step_holds_no_pool(self, tmp_path):
        # one step of 8 pairs reads no pair twice, so it holds no pool: it peaks
        # within 4 MiB of no step, where the float32 pool alone is 36 bytes a pair (69 MiB)
        _fresh_maxrss(["--version"])  # byte-compiles the package if no cache is there
        base = _fresh_maxrss(["fuse-train", "--steps", "0", "--out", tmp_path / "init.bin"])
        train = _fresh_maxrss(["fuse-train", "--steps", "1", "--batch", "8",
                               "--out", tmp_path / "net.bin"])
        assert train - base < 4 << 20, f"{(train - base) / 2**20:.1f} MiB"


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
        # one image as this package's Up-filtered PNG and as a PNG with all five row
        # filters mixed: the same crops and targets, byte for byte
        codes = np.random.default_rng(5).integers(0, 256, (24, 48, 3), dtype=np.uint8)
        mixed = np.random.default_rng(6).permutation(np.arange(24) % 5)
        written = {}
        for name in ("up", "mixed"):
            src = tmp_path / f"panos_{name}"
            src.mkdir()
            if name == "up":
                write_png(src / "pano.png", codes)
            else:
                (src / "pano.png").write_bytes(png_with_row_filters(codes, mixed))
            out_dir = tmp_path / f"ds_{name}"
            assert main(["dataset-gen", "--panos-dir", str(src), "--count", "3", "--w", "32",
                         "--h", "24", "--video-frames", "2", "--out-dir", str(out_dir)]) == 0
            for line in (out_dir / "dataset.jsonl").read_text().splitlines():
                assert json.loads(line)["target_log"] is None
            written[name] = {str(p.relative_to(out_dir)): p.read_bytes()
                             for p in out_dir.rglob("*") if p.suffix in (".png", ".pfm")}
        assert len(written["up"]) == 7 and written["mixed"] == written["up"]

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
    def test_unknown_command_exits_2(self, out_dir):
        assert _check_outcome(*_run(["frobnicate"]), out_dir) == 2

    def test_missing_input_exits_1_with_error_line(self, tmp_path, out_dir):
        assert _check_outcome(*_run(_argv("tonemap", tmp_path / "nope.pfm", out_dir)),
                              out_dir) == 1

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

    def test_abbreviated_flags_are_usage_errors(self, tmp_path, env_file, out_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"w": 12, "h": 8}))
        crop = ["crop", "--pano", str(env_file), "--out", str(out_dir / "c.pfm")]
        evaluate = ["eval", "--pred", str(env_file), "--gt", str(env_file),
                    "--out", str(out_dir / "r.json")]
        for argv, bad in ((crop, "--conf"), (evaluate, "--probe")):
            code, stdout, err = _run(argv + [bad, str(cfg) if bad == "--conf" else "16"])
            assert _check_outcome(code, stdout, err, out_dir) == 2
            assert f"unrecognized arguments: {bad} " in err
        assert main(crop + ["--config", str(cfg)]) == 0  # the full spelling reads the file
        assert read_pfm(out_dir / "c.pfm").shape == (8, 12, 3)

    def test_config_path_in_one_token(self, tmp_path, env_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"w": 12, "h": 8}))
        out = tmp_path / "c.pfm"
        assert main(["crop", "--pano", str(env_file), "--out", str(out),
                     f"--config={cfg}"]) == 0
        assert read_pfm(out).shape == (8, 12, 3)

    def test_config_holding_a_list_is_data_error(self, tmp_path, env_file, out_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"w": 12}]))
        code, stdout, err = _run(["crop", "--pano", env_file, "--out", out_dir / "c.pfm",
                                  "--config", cfg])
        assert _check_outcome(code, stdout, err, out_dir) == 1 and "must hold a JSON object" in err

    @pytest.mark.parametrize("line", [b"EXPOSURE=0", b"EXPOSURE=-1", b"EXPOSURE=nan",
                                      b"EXPOSURE=abc", b"COLORCORR=1 2"])
    def test_invalid_hdr_multiplier_is_data_error(self, tmp_path, out_dir, line):
        pano = tmp_path / "pano.hdr"
        pano.write_bytes(b"#?RADIANCE\n" + line + b"\n\n-Y 2 +X 4\n"
                         + bytes([128, 64, 32, 129]) * 8)
        assert _check_outcome(*_run(["crop", "--pano", pano, "--w", "4", "--h", "3",
                                     "--out", out_dir / "c.pfm"]), out_dir) == 1

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

    def test_nan_channel_is_data_error(self, tmp_path, out_dir):
        ldr = np.full((4, 8, 3), 0.5)
        ldr[1, 2, 1] = np.nan
        write_pfm(tmp_path / "ldr.pfm", ldr)
        write_pfm(tmp_path / "log.pfm", np.full((4, 8, 3), 0.25))
        assert _check_outcome(*_run(["inverse", "--ldr", tmp_path / "ldr.pfm", "--log",
                                     tmp_path / "log.pfm", "--out", out_dir / "rec.pfm"]),
                              out_dir) == 1

    def test_bad_png_crc_is_data_error(self, tmp_path, env_file, out_dir):
        ldr, log = tmp_path / "ldr.png", tmp_path / "log.png"
        assert main(["tonemap", "--in", str(env_file), "--out-ldr", str(ldr),
                     "--out-log", str(log)]) == 0
        blob = bytearray(ldr.read_bytes())
        blob[blob.find(b"IEND") - 5] ^= 0xFF  # last byte of the IDAT CRC
        ldr.write_bytes(bytes(blob))
        code, stdout, err = _run(["inverse", "--ldr", ldr, "--log", log,
                                  "--out", out_dir / "rec.pfm"])
        assert _check_outcome(code, stdout, err, out_dir) == 1 and "CRC" in err

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

    def test_bad_thread_env_is_data_error(self, env_file, monkeypatch, out_dir):
        monkeypatch.setenv("LUXPROBE_THREADS", "-2")
        assert _check_outcome(*_run(_argv("peak", env_file, out_dir)), out_dir) == 1

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
    def inputs(self, tmp_path, out_dir):
        good = tmp_path / "good" / "x.pfm"
        good.parent.mkdir()
        write_pfm(good, _valid_map())
        net = tmp_path / "net.bin"
        save_fusion_net(init_uniform(0, dtype=np.float32), net)
        return good, net, out_dir

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_valid_input_runs(self, tmp_path, inputs, command):
        good, net, out = inputs
        bad = tmp_path / "bad" / "x.pfm"  # the same map: the control for the cases below
        bad.parent.mkdir()
        write_pfm(bad, _valid_map())
        assert _check_outcome(*_run(_argv(command, good, out, bad=bad, net=net)), out) == 0

    @pytest.mark.parametrize("texel", ["nan", "+inf", "-inf", "missing"])
    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_non_finite_or_missing_input_exits_1(self, tmp_path, inputs, command, texel):
        good, net, out = inputs
        bad = tmp_path / "bad" / "x.pfm"
        if texel != "missing":  # else neither the file nor its directory exists
            data = _valid_map()
            data[3, 5, 1] = float(texel)
            bad.parent.mkdir()
            write_pfm(bad, data)
        assert _check_outcome(*_run(_argv(command, good, out, bad=bad, net=net)), out) == 1

    @pytest.mark.parametrize("az", ["nan", "inf", "-inf"])
    def test_crop_rejects_non_finite_azimuth(self, inputs, az):
        good, _, out = inputs
        assert _check_outcome(*_run(_argv("crop", good, out, flags={"--az": az})), out) == 1

    def test_crop_rejects_xyze_hdr(self, tmp_path, inputs):
        # the header's FORMAT line was skipped, so XYZE texels were cropped as RGB
        _, _, out = inputs
        pano = tmp_path / "x.hdr"
        pano.write_bytes(b"#?RADIANCE\nFORMAT=32-bit_rle_xyze\n\n-Y 16 +X 32\n"
                         + bytes([128, 64, 32, 129]) * (16 * 32))
        code, stdout, err = _run(_argv("crop", pano, out, flags={"--out": out / "c.png"}))
        assert _check_outcome(code, stdout, err, out) == 1 and "32-bit_rle_xyze" in err

    @pytest.mark.parametrize("command, flag, name", OUTPUT_SUFFIX_CASES)
    def test_output_suffix_must_match_format(self, tmp_path, inputs, command, flag, name):
        good, net, out = inputs
        missing = tmp_path / "missing" / "x.pfm"  # the suffix is checked before any read
        code, stdout, err = _run(_argv(command, good, out, bad=missing, net=net,
                                       flags={flag: out / name}))
        assert _check_outcome(code, stdout, err, out) == 1 and "unsupported output format" in err

    @pytest.mark.parametrize("command, net", [
        ("inverse", None), ("inverse", "net.bin"), ("fuse-apply", "net.bin"),
        ("fuse-apply", "missing.bin"),  # the width rule comes before the net is opened
    ])
    def test_dual_pair_must_be_a_panorama(self, tmp_path, inputs, command, net):
        _, _, out = inputs
        pair = tmp_path / "pair"
        pair.mkdir()
        for name in ("ldr.png", "log.png"):
            write_png(pair / name, np.full((16, 16, 3), 0.5))
        argv = [command, "--ldr", pair / "ldr.png", "--log", pair / "log.png",
                "--out", out / "r.pfm"]
        if net is not None:
            argv += ["--net", tmp_path / net]
        code, stdout, err = _run(argv)
        assert _check_outcome(code, stdout, err, out) == 1 and "width must equal 2*height" in err

    @pytest.mark.parametrize("out_log", ["./same.png", "{out}/same.png"])
    def test_tonemap_outputs_must_be_two_files(self, monkeypatch, inputs, out_log):
        good, _, out = inputs
        monkeypatch.chdir(out)
        code, stdout, err = _run(["tonemap", "--in", good, "--out-ldr", "same.png",
                                  "--out-log", out_log.format(out=out)])
        assert _check_outcome(code, stdout, err, out) == 1 and "name one file" in err

    @pytest.mark.parametrize("suffix", [".pfm", ".png"])
    def test_dataset_gen_rejects_non_2to1_panorama(self, tmp_path, out_dir, suffix):
        pano = tmp_path / "panos" / f"x{suffix}"
        pano.parent.mkdir()
        (write_pfm if suffix == ".pfm" else write_png)(pano, np.full((8, 12, 3), 0.5))
        assert _check_outcome(*_run(["dataset-gen", "--panos-dir", pano.parent, "--count", "1",
                                     "--out-dir", out_dir / "ds"]), out_dir) == 1


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


# run by a small parent: a child's peak RSS starts at its parent's RSS when it
# is forked, so the test process, often hundreds of MB, cannot be that parent
_MAXRSS_OF_CHILD = """
import os, subprocess, sys
with subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL) as proc:
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _fresh_maxrss(argv) -> int:
    """Peak RSS in bytes (wait4's ru_maxrss) of `luxprobe argv` run in a new
    interpreter with one BLAS thread and this package on its path."""
    run = subprocess.run([sys.executable, "-c", _MAXRSS_OF_CHILD,
                          sys.executable, "-m", "luxprobe.cli", *map(str, argv)],
                         env=_fresh_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
                         capture_output=True, text=True, timeout=120)
    code, kib = map(int, run.stdout.split())
    assert code == 0, (argv, run.stderr)
    return kib * 1024  # ru_maxrss is in KiB on Linux


def _hostile_inputs(d, image):
    """The benchmark's three hostile kinds of a dual-pair channel, built from the
    [0, 1] `image` in directory `d`: a PFM with one NaN texel, a PNG whose IDAT
    CRC is flipped and a PNG whose tEXt chunk runs past the end of the file."""
    nan = image.copy()
    nan[5, 7, 1] = np.nan
    write_pfm(d / "nan_texel.pfm", nan)
    write_png(d / "ok.png", image)
    ok = (d / "ok.png").read_bytes()
    idat_end = ok.index(b"IEND") - 4
    bad_crc = bytearray(ok)
    bad_crc[idat_end - 1] ^= 0xFF
    (d / "idat_crc.png").write_bytes(bytes(bad_crc))
    # a tEXt chunk declaring 1000 bytes where the file ends after 10
    (d / "text_past_eof.png").write_bytes(ok[:idat_end] + b"\x00\x00\x03\xe8tEXtcomment\x00ab")
    return [d / "nan_texel.pfm", d / "idat_crc.png", d / "text_past_eof.png"]


class TestStderrOfAFreshProcess:
    """stderr as a user sees it: pytest captures warnings apart from capsys, so
    each command runs in its own interpreter."""

    def test_one_error_line_or_none(self, tmp_path):
        good = tmp_path / "good" / "x.pfm"
        good.parent.mkdir()
        write_pfm(good, _valid_map())
        for name, (scale, texels) in _sweep_maps().items():
            bad = tmp_path / f"{name}.pfm"
            bad.write_bytes(b"PF\n16 8\n" + scale + b"\n" + texels[::-1].astype("<f4").tobytes())
            for command in ("tonemap", "crop", "render-probes", "eval", "peak", "rotate"):
                out = tmp_path / f"{name}_{command}"
                out.mkdir()
                code, stdout, err = _fresh(_argv(command, good, out, bad=bad))
                assert _check_outcome(code, stdout, err, out) in (0, 1), (name, command)
                if name == "overflowing_scale":
                    assert "overflows float32" in err, (command, err)

    @pytest.mark.parametrize("command", ["inverse", "fuse-apply"])
    def test_hostile_dual_pair_channel(self, tmp_path, command):
        good = tmp_path / "good.pfm"
        write_pfm(good, _valid_map())
        net = tmp_path / "net.bin"
        save_fusion_net(init_uniform(0, dtype=np.float32), net)
        hostile = tmp_path / "hostile"
        hostile.mkdir()
        for bad in [hostile / "ok.png", *_hostile_inputs(hostile, _valid_map())]:
            out = tmp_path / f"{bad.stem}_out"
            out.mkdir()
            code = _check_outcome(*_fresh(_argv(command, good, out, bad=bad, net=net)), out)
            assert code == (0 if bad.name == "ok.png" else 1), bad  # ok.png: the intact control

    def test_dataset_gen_on_a_nan_texel(self, tmp_path, out_dir):
        panos = tmp_path / "panos"
        panos.mkdir()
        data = _valid_map()
        data[3, 5, 0] = np.nan
        write_pfm(panos / "x.pfm", data)
        assert _check_outcome(*_fresh(_argv("dataset-gen", panos / "x.pfm", out_dir)),
                              out_dir) == 1

    @pytest.mark.parametrize("case", [
        "render-probes-size-2**63", "rotate-exposure-1e-300", "peak-exposure-1e-300",
        "fuse-apply-net-1e38", "inverse-net-1e38", "fuse-train-lr-1e308",
        "fuse-apply-net-overflows-inside"])
    def test_one_named_error_line(self, tmp_path, out_dir, case):
        pano = tmp_path / "pano.pfm"
        write_pfm(pano, _valid_map())
        hdr = tmp_path / "pano.hdr"
        hdr.write_bytes(b"#?RADIANCE\nEXPOSURE=1e-300\n\n-Y 8 +X 16\n"
                        + bytes([128, 64, 32, 129]) * 128)
        net, inside = tmp_path / "net.bin", tmp_path / "inside.bin"
        save_fusion_net(overflowing_net(), net)
        save_fusion_net(overflowing_inside_net(), inside)
        argv, cause = {
            # np.arange(2**63) is empty, so the disc is too: the renderer refuses it,
            # where a 0x0 mirror probe, which `read_pfm` rejects, used to be written
            "render-probes-size-2**63": (_argv("render-probes", pano, out_dir,
                                               flags={"--size": 2 ** 63}), str(2 ** 63)),
            # a finite positive EXPOSURE that overflows a texel, where numpy's
            # overflow warning came first
            "rotate-exposure-1e-300": (_argv("rotate", pano, out_dir, bad=hdr),
                                       "EXPOSURE/COLORCORR product"),
            "peak-exposure-1e-300": (_argv("peak", pano, out_dir, bad=hdr),
                                     "EXPOSURE/COLORCORR product"),
            # a finite net of +-1e38 whose output overflows, where four warnings came
            # first and the error blamed the environment map
            "fuse-apply-net-1e38": (_argv("fuse-apply", pano, out_dir, net=net),
                                    "net output is not finite"),
            "inverse-net-1e38": (_argv("inverse", pano, out_dir, flags={"--net": net}),
                                 "net output is not finite"),
            # the last Adam step makes every parameter infinite, where the net was written
            "fuse-train-lr-1e308": (_argv("fuse-train", pano, out_dir,
                                          flags={"--steps": 1, "--lr": 1e308}),
                                    "non-finite parameters"),
            # hidden layers at +inf and a head at -inf, where zeros were written
            "fuse-apply-net-overflows-inside": (_argv("fuse-apply", pano, out_dir, net=inside),
                                                "net output is not finite"),
        }[case]
        code, stdout, err = _fresh(argv)
        assert _check_outcome(code, stdout, err, out_dir) == 1 and cause in err

    @pytest.mark.parametrize("command, size", [
        ("eval", 2 ** 63 - 1), ("eval", 2 ** 63), ("eval-video", 2 ** 63 - 1),
        ("eval-video", 2 ** 63), ("render-probes", 2 ** 63 - 1)])
    def test_probe_size_past_the_index_range_is_named(self, tmp_path, out_dir, command, size):
        # np.arange(size) is empty from 2**63 - 1 on; the error names the size before
        # any prefilter runs, where eval and eval-video reported "empty input" after both
        pano = tmp_path / "frames" / "pano.pfm"
        pano.parent.mkdir()
        write_pfm(pano, _valid_map())
        flag = "--size" if command == "render-probes" else "--probe-size"
        code, stdout, err = _fresh(_argv(command, pano, out_dir, flags={flag: size}))
        assert _check_outcome(code, stdout, err, out_dir) == 1 and str(size) in err


# run in a new interpreter: which of numpy.random and OpenSSL (`_hashlib`) are
# loaded after a bare `import numpy`, after `import luxprobe.cli`, when
# `evaluate_three_spheres` starts (a wrapper records it) and when `main(argv)` ends
_LOADED_BY_STAGE = """
import json, sys
def loaded():
    return [m for m in ("numpy.random", "_hashlib") if m in sys.modules]
import numpy
seen = {"numpy": loaded()}
import luxprobe.cli, luxprobe.metrics
seen["import"] = loaded()
evaluate = luxprobe.metrics.evaluate_three_spheres
def recorded(*args, **kwargs):
    seen.setdefault("evaluate", loaded())
    return evaluate(*args, **kwargs)
luxprobe.metrics.evaluate_three_spheres = recorded
seen["code"] = luxprobe.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
seen["end"] = loaded()
print(json.dumps(seen))
"""


def _loaded_by_stage(argv=()) -> dict:
    run = subprocess.run([sys.executable, "-c", _LOADED_BY_STAGE, *map(str, argv)],
                         env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen["code"] in (None, 0), run.stderr
    return seen


class TestImportRule:
    """A command that draws no random numbers loads neither numpy.random nor
    OpenSSL, and output hashing loads `hashlib` after the work. Where a bare
    `import numpy` already loads them (numpy 1.x does), the rule cannot show."""

    @staticmethod
    def _skip_if_numpy_loads(seen):
        if seen["numpy"]:
            pytest.skip(f"import numpy alone loads {seen['numpy']}")

    def test_import_loads_neither(self):
        seen = _loaded_by_stage()
        self._skip_if_numpy_loads(seen)
        assert seen["import"] == []

    def test_eval_loads_neither_before_it_scores(self, env_file, out_dir):
        seen = _loaded_by_stage(_argv("eval", env_file, out_dir))
        self._skip_if_numpy_loads(seen)
        assert seen["evaluate"] == []
        assert "numpy.random" not in seen["end"]

    def test_fuse_train_loads_numpy_random(self, env_file, out_dir):
        seen = _loaded_by_stage(_argv("fuse-train", env_file, out_dir))
        assert "numpy.random" in seen["end"]


class TestOutOfMemory:
    """An allocation that fails is one ERROR DATA line, not numpy's traceback. Each
    command runs under a 2 GiB address-space cap, so the huge request fails at
    once and takes no memory."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn and RLIMIT_AS")
    @pytest.mark.parametrize("command, flags", [
        ("render-probes", {"--size": 300000}), ("eval", {"--probe-size": 300000}),
        ("crop", {"--w": 200000, "--h": 200000}),
    ], ids=["render-probes", "eval", "crop"])
    def test_allocation_failure_is_one_error_line(self, tmp_path, out_dir, command, flags):
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        pano = tmp_path / "pano.pfm"
        write_pfm(pano, _valid_map())
        # one BLAS thread: the cap is for the request, not for per-thread buffers
        run = _fresh(_argv(command, pano, out_dir, flags=flags), preexec_fn=cap,
                     OPENBLAS_NUM_THREADS="1")
        assert _check_outcome(*run, out_dir) == 1

    def test_bare_memory_error_is_named(self, tmp_path, monkeypatch, out_dir):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(luxprobe.metrics, "evaluate_three_spheres", no_memory)
        pano = tmp_path / "pano.pfm"
        write_pfm(pano, _valid_map())
        code, stdout, err = _run(_argv("eval", pano, out_dir))
        assert _check_outcome(code, stdout, err, out_dir) == 1
        assert err == "ERROR DATA: out of memory\n"


class TestUniformMap:
    """A uniform map has no peak, so its report cannot be complete: exit 1, write nothing."""

    @pytest.mark.parametrize("command", ["eval", "eval-video"])
    def test_uniform_map_exits_1(self, tmp_path, out_dir, command):
        flat = tmp_path / "flat" / "x.pfm"
        flat.parent.mkdir()
        write_pfm(flat, np.full((16, 32, 3), 0.5))
        assert _check_outcome(*_run(_argv(command, flat, out_dir)), out_dir) == 1


# ---------------------------------------------------------------------------
# the argument boundary: flags and --config values parse the same way, and each
# value out of range exits 1 or 2 before anything is written

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
        pair = ({"--ldr": root / "square" / "ldr.png", "--log": root / "square" / "log.png"}
                if square else {})
        codes = []
        for route in ("flag", "config"):
            work = Path(tempfile.mkdtemp(dir=root))
            out = work / "out"
            out.mkdir()
            path = (root if square else out) / value
            token, config = ((value, EDGE_VALUES[value]) if value in EDGE_VALUES
                             else (path, str(path)))
            argv = _argv(command, good, out, net=root / "net.bin",
                         flags={**pair, flag: token if route == "flag" else None})
            if route == "config":
                cfg = work / "cfg.json"
                cfg.write_text(json.dumps({flag[2:]: config}))
                argv += ["--config", cfg]
            code, stdout, err = _run(argv)
            _check_outcome(code, stdout, err, out)
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
        argv = _argv(command, good, out, net=root / "net.bin") + ["--config", cfg]
        assert _check_outcome(*_run(argv), out) == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("rotate", "--yaw", "inf"), ("rotate", "--yaw", "-inf"), ("rotate", "--yaw", "1e308"),
        ("dataset-gen", "--count", "-1"), ("dataset-gen", "--count", "0"),
        ("dataset-gen", "--video-frames", "0"), ("dataset-gen", "--video-frames", "-1"),
        ("fuse-train", "--steps", "-1"), ("fuse-train", "--batch", "0"),
        ("fuse-train", "--lr", "nan"), ("fuse-train", "--seed", "-1"),
        ("dataset-gen", "--seed", "-1"), ("dataset-gen", "--w", "0"), ("dataset-gen", "--h", "-1"),
        ("crop", "--w", "0"),
    ])
    def test_out_of_range_flag_is_data_error(self, boundary_dir, command, flag, value):
        # the one error line names the value it got
        root, good = boundary_dir
        out = Path(tempfile.mkdtemp(dir=root)) / "out"
        out.mkdir()
        argv = _argv(command, good, out, net=root / "net.bin", flags={flag: value})
        code, stdout, err = _run(argv)
        assert _check_outcome(code, stdout, err, out) == 1 and ", got " in err, err

    def test_dataset_gen_refuses_a_negative_seed_before_any_read(self, boundary_dir):
        # the 16x16 PNGs under square/ are no panoramas: a read of them fails otherwise
        root, good = boundary_dir
        out = Path(tempfile.mkdtemp(dir=root)) / "out"
        out.mkdir()
        argv = _argv("dataset-gen", good, out, bad=root / "square" / "ldr.png",
                     flags={"--seed": -1})
        code, stdout, err = _run(argv)
        assert _check_outcome(code, stdout, err, out) == 1
        assert err == "ERROR DATA: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("flag, value, size", [("--w", 0, "0x6"), ("--h", -4, "8x-4")])
    def test_dataset_gen_refuses_an_empty_crop_before_any_read(self, boundary_dir, flag, value,
                                                               size):
        root, good = boundary_dir
        out = Path(tempfile.mkdtemp(dir=root)) / "out"
        out.mkdir()
        argv = _argv("dataset-gen", good, out, bad=root / "square" / "ldr.png",
                     flags={flag: value})
        code, stdout, err = _run(argv)
        assert _check_outcome(code, stdout, err, out) == 1
        assert err == f"ERROR DATA: output size must be positive, got {size}\n"

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
