"""The benchmark's workloads: seeded inputs, the luxprobe commands one
iteration runs, and checks of every output against the benchmark's own
oracles (see formats.py) or against values committed in reference.json.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import formats as fmt

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 20250903  # inputs compared with reference.json never depend on --seed
REFERENCE_TRAIN_SEED = 0  # the fuse-train default seed
COMMAND_TIMEOUT_S = 120  # a command still running then is killed and counts as failed


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Command:
    """One luxprobe invocation and the work units it completes."""

    argv: list
    items: float


@dataclass
class CliResult:
    code: int
    wall_s: float
    cpu_s: float
    sys_s: float  # the kernel's share of cpu_s
    maxrss_mb: float
    stderr: str


def run_cli(argv, log_dir: Path) -> CliResult:
    """Run `python -m luxprobe.cli argv` from src/ and wait for it alone.

    os.wait4 gives the rusage of this one child, so set-up commands and
    earlier commands do not leak into its peak RSS.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(log_dir / "stdout.log", "wb") as out, open(log_dir / "stderr.log", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "luxprobe.cli", *map(str, argv)],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return CliResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_stime,
                     usage.ru_maxrss / 1024.0, stderr)


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_manifest(primary) -> dict:
    """The manifest next to `primary`, after checking it hashes every output right."""
    path = Path(str(primary) + ".manifest.json")
    require(path.is_file(), f"missing manifest {path}")
    manifest = json.loads(path.read_text())
    require(str(primary) in manifest["outputs"], f"manifest does not list {primary}")
    for out, digest in manifest["outputs"].items():
        require(Path(out).is_file(), f"manifest lists missing file {out}")
        require(sha256(out) == digest, f"manifest hash of {out} does not match the file")
    return manifest


def decoded(reader, path):
    """reader(path), with a file the benchmark's own codecs reject as a failed check."""
    try:
        return reader(path)
    except (ValueError, zlib.error) as exc:
        raise CheckFailed(f"{path}: {exc}") from exc


def close(got, want, rtol, atol, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    require(np.isfinite(got).all(), f"{what}: non-finite values")
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    require(err.max() <= 0, f"{what}: off by up to {np.abs(got - want).max():.3g} "
                            f"(rtol {rtol}, atol {atol})")


def within(got, lo, hi, what: str, tol: float = 1e-6) -> None:
    """Every value of `got` lies in [lo - tol, hi + tol] (float32 outputs)."""
    got = np.asarray(got, dtype=np.float64)
    require(got.shape == np.shape(lo), f"{what}: shape {got.shape}, expected {np.shape(lo)}")
    require(np.isfinite(got).all(), f"{what}: non-finite values")
    miss = np.maximum(lo - tol - got, got - hi - tol).max()
    require(miss <= 0, f"{what}: up to {miss + tol:.3g} outside the values its source allows")


def hot_spot_map(rng, height: int, row: float | None = None) -> np.ndarray:
    """Noisy sky of radiance ~0.1-3 with one Gaussian hot spot of 300-3000.

    `row` fixes the spot centre's row coordinate (height / 2 puts it on the
    equator); by default it is drawn away from the poles.
    """
    width = 2 * height
    rows = (np.arange(height) + 0.5)[:, None]
    cols = (np.arange(width) + 0.5)[None, :]
    gradient = 1.0 + 0.5 * np.cos(np.pi * rows / height)
    noise = rng.uniform(0.6, 1.4, size=(height, width))
    data = rng.uniform(0.3, 1.5) * (gradient * noise)[..., None] * rng.uniform(0.7, 1.3, 3)
    r0 = rng.uniform(0.25, 0.75) * height if row is None else row
    c0 = rng.uniform(0.0, width)
    sigma = rng.uniform(1.0, 2.0) * height / 64
    dc = np.abs(cols - c0)
    dc = np.minimum(dc, width - dc)
    spot = 10.0 ** rng.uniform(2.5, 3.5) * np.exp(-((rows - r0) ** 2 + dc ** 2) / (2 * sigma ** 2))
    return data + spot[..., None] * np.array([1.0, 0.95, 0.85])


class Workload:
    """Interface: set up inputs, list one iteration's commands, check outputs."""

    name = ""
    metric = ""  # the workload's throughput under its own name
    unit = ""
    min_iterations = 1  # iterations every run makes, so every check runs

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def commands(self, iteration: int) -> list:
        raise NotImplementedError

    def check(self, iteration: int) -> None:
        raise NotImplementedError

    def hostile(self) -> list:
        """(label, argv) of malformed inputs the program should reject."""
        return []


# ---------------------------------------------------------------------------

class EvalVideo(Workload):
    """`eval-video` on 64x128 hot-spot maps.

    Why: the probes prefilters do about 95% of the work here and none in any
    other workload, so the exact azimuthal-FFT prefilter must show here.
    64x128 because one 256x512 frame costs 84 s with the dense prefilter.
    Iterations alternate between two sets of two frame pairs: two frames
    keep both pool threads busy, and let each frame's metric be recovered
    from the reported mean and std.
    """

    name = "eval_video"
    metric, unit = "eval_frames_per_s", "frame_pairs/s"
    min_iterations = 2
    HEIGHT = 64
    METRICS = [f"{m}.{k}" for m in ("mirror", "matte", "diffuse")
               for k in ("si_rmse", "angular_deg", "n_rmse")] + ["pae_deg"]

    def setup(self, work, seed):
        rng = np.random.default_rng([seed, 1])
        h = self.HEIGHT
        gt0 = hot_spot_map(rng, h).astype(np.float32)
        gt1 = hot_spot_map(rng, h, row=h / 2).astype(np.float32)
        self.roll = int(rng.integers(8, 49))
        ref_rng = np.random.default_rng(REFERENCE_SEED)
        ref_pairs = [(hot_spot_map(ref_rng, h), hot_spot_map(ref_rng, h)) for _ in range(2)]
        self.sets = {
            "reference": ref_pairs,
            # frame 0: pred = 2 x gt, every metric exactly 0;
            # frame 1: pred = gt rolled by `roll` columns, PAE = roll * 360 / W
            "known": [(2 * gt0, gt0), (np.roll(gt1, self.roll, axis=1), gt1)],
        }
        for name, pairs in self.sets.items():
            for sub in ("pred", "gt"):
                (work / name / sub).mkdir(parents=True)
            for i, (pred, gt) in enumerate(pairs):
                fmt.write_pfm(work / name / "pred" / f"f{i}.pfm", pred)
                fmt.write_pfm(work / name / "gt" / f"f{i}.pfm", gt)
        self.work = work

    def _set(self, iteration) -> str:
        return list(self.sets)[iteration % len(self.sets)]

    def commands(self, iteration):
        name = self._set(iteration)
        return [Command(["eval-video", "--pred-dir", self.work / name / "pred",
                         "--gt-dir", self.work / name / "gt",
                         "--out", self.work / name / "report.json"], len(self.sets[name]))]

    def _temporal(self, name) -> dict:
        out = self.work / name / "report.json"
        check_manifest(out)
        temporal = json.loads(out.read_text())["temporal"]
        require(sorted(temporal) == sorted(self.METRICS), f"{name}: metrics {sorted(temporal)}")
        return temporal

    def check(self, iteration):
        if self._set(iteration) == "known":
            self.check_known()
        else:
            self.check_reference()

    def check_known(self):
        temporal = self._temporal("known")
        for key in self.METRICS:
            mean, std = temporal[key]["mean"], temporal[key]["std"]
            require(np.isfinite([mean, std]).all() and mean >= 0 and std >= 0,
                    f"known.{key}: mean {mean}, std {std}")
            # two frames: their values are mean - std and mean + std
            zero, other = mean - std, mean + std
            require(abs(zero) <= 1e-12 * mean, f"known.{key}: pred = 2 x gt scored {zero}, not 0")
            if key == "pae_deg":
                width = 2 * self.HEIGHT
                want = self.roll * 360.0 / width
                require(abs(other - want) <= max(360.0 / width, 0.5),
                        f"known.pae_deg: roll by {self.roll} columns scored {other:.3f}, "
                        f"expected {want:.3f}")

    def check_reference(self):
        reference = json.loads(REFERENCE.read_text())["eval_video"]
        temporal = self._temporal("reference")
        for key in self.METRICS:
            for stat in ("mean", "std"):
                close(temporal[key][stat], reference[key][stat], 1e-6, 1e-9,
                      f"reference.{key}.{stat}")


# ---------------------------------------------------------------------------

class HdrDecode(Workload):
    """`inverse` (rule) then `fuse-apply` on one dual-tonemapped PNG pair.

    Why: fusion inference and PNG decoding dominate; rows use the filters
    None/Sub/Up/Avg/Paeth as external encoders choose them, each filter on a
    fifth of the rows in a seeded order, so decoding costs the same for every
    seed (Sub, Avg and Paeth rows decode far slower than None and Up rows).
    256x512 rather than 1024x2048: the activation-keeping forward pass peaks
    near 5 GB at 1024x2048, and at 256x512 a 25-s run makes about ten
    iterations instead of three while fuse_image's memory still dominates
    the peak RSS.
    """

    name = "hdr_decode"
    metric, unit = "decode_mpix_per_s", "Mpx/s"
    HEIGHT = 256
    SAMPLE = 4096

    def setup(self, work, seed):
        rng = np.random.default_rng([seed, 2])
        h, w = self.HEIGHT, 2 * self.HEIGHT
        self.source = hot_spot_map(rng, h)
        self.ldr8, self.log8 = (fmt.quantize_u8(c) for c in fmt.dual_tonemap(self.source))
        work.mkdir(parents=True)
        self.work = work
        for name, img in (("ldr", self.ldr8), ("log", self.log8)):
            filters = rng.permutation(np.arange(h) % 5).astype(np.uint8)
            (work / f"{name}.png").write_bytes(fmt.encode_png(img, filters))
        weights = [rng.uniform(-1, 1, (fi, fo)) / np.sqrt(fi)
                   for fi, fo in zip(fmt.FUSION_WIDTHS[:-1], fmt.FUSION_WIDTHS[1:])]
        biases = [rng.uniform(-0.1, 0.1, fo) for fo in fmt.FUSION_WIDTHS[1:]]
        fmt.write_fusion_net(work / "net.bin", weights, biases)
        self.weights = [x.astype(np.float32) for x in weights]
        self.biases = [x.astype(np.float32) for x in biases]
        self.sample = rng.choice(h * w, self.SAMPLE, replace=False)
        self._write_hostile(rng)

    def _write_hostile(self, rng):
        small = hot_spot_map(rng, 16)
        ldr8, log8 = (fmt.quantize_u8(c) for c in fmt.dual_tonemap(small))
        zeros = np.zeros(16, dtype=np.uint8)
        ok_ldr, ok_log = fmt.encode_png(ldr8, zeros), fmt.encode_png(log8, zeros)
        d = self.work / "hostile"
        d.mkdir()
        (d / "log.png").write_bytes(ok_log)
        nan_ldr = ldr8 / 255.0
        nan_ldr[5, 7, 1] = np.nan
        fmt.write_pfm(d / "nan_ldr.pfm", nan_ldr)
        fmt.write_pfm(d / "log.pfm", log8 / 255.0)
        # flip the low byte of the IDAT CRC, leaving the data intact
        idat_end = ok_ldr.index(b"IEND") - 4
        bad_crc = bytearray(ok_ldr)
        bad_crc[idat_end - 1] ^= 0xFF
        (d / "bad_crc.png").write_bytes(bytes(bad_crc))
        # a tEXt chunk declaring 1000 bytes where the file ends after 10
        overrun = ok_ldr[:idat_end] + b"\x00\x00\x03\xe8tEXtcomment\x00ab"
        (d / "overrun.png").write_bytes(overrun)
        self.hostile_cases = [
            ("nan_pfm_texel", ["inverse", "--ldr", d / "nan_ldr.pfm", "--log", d / "log.pfm",
                               "--out", d / "out_nan.pfm"]),
            ("png_idat_crc", ["inverse", "--ldr", d / "bad_crc.png", "--log", d / "log.png",
                              "--out", d / "out_crc.pfm"]),
            ("png_chunk_past_eof", ["inverse", "--ldr", d / "overrun.png", "--log", d / "log.png",
                                    "--out", d / "out_overrun.pfm"]),
        ]

    def hostile(self):
        return self.hostile_cases

    def commands(self, iteration):
        mpx = self.ldr8.shape[0] * self.ldr8.shape[1] / 1e6
        pair = ["--ldr", self.work / "ldr.png", "--log", self.work / "log.png"]
        return [Command(["inverse", *pair, "--out", self.work / "rule.pfm"], mpx),
                Command(["fuse-apply", "--net", self.work / "net.bin", *pair,
                         "--out", self.work / "fused.pfm"], mpx)]

    def _inputs(self):
        x = np.concatenate([self.ldr8, self.log8], axis=2).reshape(-1, 6)[self.sample]
        return x / 255.0

    def check_rule(self, rule):
        require(rule.shape == self.ldr8.shape, f"rule output shape {rule.shape}")
        require(np.isfinite(rule).all(), "rule output has non-finite texels")
        x = self._inputs()
        want = fmt.inverse_rule(x[:, :3], x[:, 3:]).astype(np.float32)
        close(rule.reshape(-1, 3)[self.sample], want, 1e-6, 0.0, "rule inverse subsample")
        # criterion 1: 8-bit round trip, median relative error under 2%
        err = np.median(np.abs(rule - self.source) / self.source)
        require(err < 0.02, f"rule inverse median relative error {err:.4f} >= 0.02")

    def check_fused(self, fused):
        require(fused.shape == self.ldr8.shape, f"fused output shape {fused.shape}")
        require(np.isfinite(fused).all() and (fused > 0).all(),
                "fused output has non-finite or non-positive texels (softplus is > 0)")
        want = fmt.mlp_forward(self.weights, self.biases, self._inputs())
        close(fused.reshape(-1, 3)[self.sample], want, 1e-4, 1e-6, "MLP forward subsample")

    def check(self, iteration):
        for name in ("rule", "fused"):
            check_manifest(self.work / f"{name}.pfm")
        self.check_rule(decoded(fmt.read_pfm, self.work / "rule.pfm"))
        self.check_fused(decoded(fmt.read_pfm, self.work / "fused.pfm"))


# ---------------------------------------------------------------------------

def sample_pairs(rng, count: int):
    """Held-out ((ldr, log) 8-bit inputs, radiance targets), as the trainer draws them:
    log-uniform 1e-3..1e4 radiance, +/-1 octave hue jitter, 0.25x-4x exposure."""
    base = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), count))
    hdr = base[:, None] * 2.0 ** rng.uniform(-1, 1, (count, 3))
    hdr = np.clip(hdr * np.exp(rng.uniform(np.log(0.25), np.log(4.0), count))[:, None],
                  1e-3, 1e4)
    ldr, log = (fmt.quantize_u8(c) / 255.0 for c in fmt.dual_tonemap(hdr))
    return np.concatenate([ldr, log], axis=1), hdr


class FuseTrain(Workload):
    """`fuse-train --steps N --lr 3e-4 --seed s`.

    Why: the same fusion module as hdr_decode, through the training path:
    2048-row batches with forward, backward and Adam. A change to inference
    that costs training, or the other way round, shows here. The first
    iteration trains the default seed, whose loss and net are committed.
    The learning rate is lowered from the default 1e-2, which the schedule
    holds for 4000 steps: over a run this short the held-out loss then
    wanders above the structured initialisation's (at 1e-3 too, for 2 of
    10 seeds tried), while at 3e-4 every seed tried improved on it by more
    than a quarter, so the check below can require progress. The step cost
    does not depend on the learning rate.
    """

    name = "fuse_train"
    metric, unit = "train_steps_per_s", "steps/s"
    min_iterations = 2
    STEPS = 600
    LR = "3e-4"

    def setup(self, work, seed):
        rng = np.random.default_rng([seed, 3])
        self.seed = 1 + int(rng.integers(0, 1_000_000))
        self.heldout = sample_pairs(rng, 20000)
        work.mkdir(parents=True)
        self.work = work
        self.init_losses = {}

    def _seed(self, iteration):
        return REFERENCE_TRAIN_SEED if iteration == 0 else self.seed

    def commands(self, iteration):
        s = self._seed(iteration)
        return [Command(["fuse-train", "--steps", self.STEPS, "--lr", self.LR, "--seed", s,
                         "--out", self.work / f"net_{s}.bin"], self.STEPS)]

    def heldout_loss(self, path) -> float:
        weights, biases = decoded(fmt.read_fusion_net, path)
        x, y = self.heldout
        return fmt.huber(fmt.mlp_forward(weights, biases, x), y)

    def init_loss(self, s) -> float:
        """Held-out loss of the untrained net for seed s (`--steps 0`, untimed)."""
        if s not in self.init_losses:
            out = self.work / f"init_{s}.bin"
            res = run_cli(["fuse-train", "--steps", 0, "--seed", s, "--out", out],
                          self.work / "logs")
            require(res.code == 0, f"fuse-train --steps 0 exited {res.code}: {res.stderr}")
            self.init_losses[s] = self.heldout_loss(out)
        return self.init_losses[s]

    def check_net(self, s, path, final_loss):
        # the reported loss is of the last 2048-pair batch, too noisy to compare
        # with the initial loss; the 20000 held-out pairs are not
        require(np.isfinite(final_loss), f"seed {s}: final loss {final_loss} is not finite")
        init, trained = self.init_loss(s), self.heldout_loss(path)
        require(trained < init, f"seed {s}: held-out loss {trained:.5f} after training is "
                                f"not below the initial {init:.5f}")
        if s == REFERENCE_TRAIN_SEED:
            ref = json.loads(REFERENCE.read_text())["fuse_train"]
            require((ref["steps"], ref["lr"]) == (self.STEPS, self.LR),
                    "reference.json is for another step count or learning rate")
            close(final_loss, ref["final_loss"], 1e-5, 0.0, "default-seed final loss")
            weights, biases = fmt.read_fusion_net(path)
            close(fmt.mlp_forward(weights, biases, np.array(ref["probe_inputs"])),
                  ref["probe_outputs"], 1e-4, 1e-6, "default-seed net forward pass")

    def check(self, iteration):
        s = self._seed(iteration)
        path = self.work / f"net_{s}.bin"
        manifest = check_manifest(path)
        self.check_net(s, path, float(manifest["parameters"]["final_loss"]))


# ---------------------------------------------------------------------------

class DatasetGen(Workload):
    """`dataset-gen` with default 720x480 crops, in still and video mode.

    Why: the only workload that exercises projection and the write side of
    imgio; it writes many PNGs and PFMs and hashes each into the manifest.
    The panoramas are a PFM, an RLE Radiance .hdr and an 8-bit PNG with
    per-row filters, so every reader runs. Each command gets a directory
    holding one of them: with all three in one directory the program draws
    each sample's source from the seed, and HDR and LDR sources cost
    differently, so the work of an iteration would change with the seed.
    """

    name = "dataset_gen"
    metric, unit = "gen_crops_per_s", "crops/s"
    HEIGHT = 256
    # run: (panorama, samples, frames per sample)
    RUNS = {"still_pfm": ("a_sky.pfm", 3, 1), "still_png": ("c_sky.png", 3, 1),
            "video": ("b_sky.hdr", 2, 4)}
    CROP = (480, 720)
    CONE_DEG = 15.0

    def setup(self, work, seed):
        rng = np.random.default_rng([seed, 4])
        h = self.HEIGHT
        self.work = work
        for source, _, _ in self.RUNS.values():
            self._panos(source).mkdir(parents=True)
        self.gen_seed = int(rng.integers(0, 1_000_000))
        # source name -> (lowest, highest) radiance the file can decode to
        self.sources = {}
        pfm = hot_spot_map(rng, h).astype(np.float32)
        fmt.write_pfm(self._panos("a_sky.pfm") / "a_sky.pfm", pfm)
        self.sources["a_sky.pfm"] = (pfm, pfm)
        hdr = hot_spot_map(rng, h)
        hdr[3 * h // 4 :] = rng.uniform(0.1, 0.5, 3)  # flat ground: long RLE runs
        rgbe = fmt.write_hdr_rle(self._panos("b_sky.hdr") / "b_sky.hdr", hdr)
        self.sources["b_sky.hdr"] = fmt.rgbe_bounds(rgbe)
        ldr = hot_spot_map(rng, h)
        ldr8 = fmt.quantize_u8(np.clip(ldr / np.percentile(ldr, 99), 0.0, 1.0) ** (1 / 2.2))
        filters = rng.permutation(np.arange(h) % 5).astype(np.uint8)
        (self._panos("c_sky.png") / "c_sky.png").write_bytes(fmt.encode_png(ldr8, filters))
        self.sources["c_sky.png"] = (ldr8 / 255.0, ldr8 / 255.0)

    def _panos(self, source) -> Path:
        return self.work / "panos" / Path(source).stem

    def commands(self, iteration):
        return [Command(["dataset-gen", "--panos-dir", self._panos(source), "--count", count,
                         "--video-frames", frames, "--seed", self.gen_seed,
                         "--out-dir", self.work / mode], count * frames)
                for mode, (source, count, frames) in self.RUNS.items()]

    def check_run(self, mode):
        source, count, frames = self.RUNS[mode]
        listing = self.work / mode / "dataset.jsonl"
        manifest = check_manifest(listing)
        records = [json.loads(line) for line in listing.read_text().splitlines()]
        require(len(records) == count, f"{mode}: {len(records)} samples, expected {count}")
        expected = {str(listing)}
        for rec in records:
            where = f"{mode} sample {rec['index']}"
            require(len(rec["crops"]) == frames and len(rec["cameras"]) == frames,
                    f"{where}: {len(rec['crops'])} crops, expected {frames}")
            for crop in rec["crops"]:
                require(Path(crop).is_file(), f"{where}: missing crop {crop}")
                img = decoded(lambda p: fmt.decode_png(p.read_bytes()), Path(crop))
                require(img.shape[:2] == self.CROP, f"{where}: crop shape {img.shape}")
            cams = rec["cameras"]
            require(all((c["height"], c["width"]) == self.CROP for c in cams),
                    f"{where}: camera size is not 720x480")
            require(45.0 <= cams[0]["fov"] <= 80.0 and len({c["fov"] for c in cams}) == 1,
                    f"{where}: field of view outside 45-80 or changing")
            require(abs(cams[0]["elevation"]) <= 10.0, f"{where}: start elevation off range")
            f0 = fmt.unit_direction(cams[0]["azimuth"], cams[0]["elevation"])
            for c in cams:
                f = fmt.unit_direction(c["azimuth"], c["elevation"])
                dev = np.degrees(np.arccos(np.clip(f0 @ f, -1.0, 1.0)))
                require(dev <= self.CONE_DEG + 1e-6, f"{where}: camera {dev:.3f} deg off "
                                                     f"frame 0, cone is {self.CONE_DEG}")
            require(rec["source"] == source, f"{where}: source {rec['source']}, not {source}")
            bounds = self.sources[source]
            (lo_ldr, lo_log), (hi_ldr, hi_log) = (fmt.dual_tonemap(b) for b in bounds)
            within(decoded(fmt.read_pfm, rec["target_ldr"]), lo_ldr, hi_ldr, f"{where} target_ldr")
            if rec["source"].endswith(".png"):
                require(rec["target_log"] is None, f"{where}: LDR source has a log target")
            else:
                within(decoded(fmt.read_pfm, rec["target_log"]), lo_log, hi_log, f"{where} target_log")
            expected.update(rec["crops"])
            expected.update(p for p in (rec["target_ldr"], rec["target_log"]) if p)
        require(set(manifest["outputs"]) == expected,
                f"{mode}: manifest lists {len(manifest['outputs'])} files, "
                f"expected {len(expected)}")

    def check(self, iteration):
        for mode in self.RUNS:
            self.check_run(mode)


WORKLOADS = {w.name: w for w in (EvalVideo, HdrDecode, FuseTrain, DatasetGen)}
