"""Command-line surface: reproducible pipelines over the library modules.

Each command registers every file it writes, in write order, with one
output recorder. `main` then writes the command's JSON manifest next to its
primary output (path + ".manifest.json"), recording the command, tool
version, seed, inputs, parameters, and the SHA-256 of each output. Exit
codes are stable: 0 success, 1 data error ("ERROR DATA: <message>" on
stderr), 2 usage error. Flags take no abbreviations. LUXPROBE_THREADS sizes
the eval-video frame pool (0 = one thread per usable CPU); BLAS threads follow
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS.
"""

import argparse
import dataclasses
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import fusion, metrics, probes, projection, tonemap
from .envmap import EnvironmentMap, map_rows, peak_direction, rotate_env
from .imgio import codes8, read_hdr, read_pfm, read_png, write_pfm, write_png


def thread_limit() -> int:
    """eval-video pool size from LUXPROBE_THREADS (0 or unset = one per CPU this
    process may run on: its affinity set, or the host's CPUs where the platform
    has no `sched_getaffinity`)."""
    raw = os.environ.get("LUXPROBE_THREADS", "0")
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"LUXPROBE_THREADS must be an integer, got {raw!r}") from exc
    if val < 0:
        raise ValueError("LUXPROBE_THREADS must be >= 0")
    if val > 0:
        return val
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sha256(path) -> str:
    import hashlib  # loads OpenSSL: only once the outputs are written

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _json_text(obj, indent=None) -> str:
    """JSON for an output file, newline-terminated; a NaN or infinity raises
    ValueError before any file opens."""
    return json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False) + "\n"


class _Recorder:
    """The files one command writes, and the only code here that opens one.

    A command registers each output with `path` just before writing it;
    `main` then hashes every registered file into the command's manifest.
    """

    def __init__(self):
        self.paths = []

    def path(self, p) -> str:
        """Register `p` as the command's next output; returns the path to write to."""
        self.paths.append(str(p))
        return str(p)

    def text(self, p, text: str) -> None:
        self._write(self.path(p), text)

    def manifest(self, primary, record: dict) -> None:
        """Write `record` plus the SHA-256 of every output to <primary>.manifest.json."""
        outputs = {p: _sha256(p) for p in self.paths}
        self._write(str(primary) + ".manifest.json",
                    _json_text({**record, "outputs": outputs}, indent=2))

    @staticmethod
    def _write(path, text: str) -> None:
        with open(path, "w") as f:
            f.write(text)


# The one suffix -> decoder table for every CLI image input. Entries look the
# decoder up at call time, so a rebound name (bench/tracer.py) reaches every read.
_READERS = {
    ".pfm": lambda path: read_pfm(path),
    ".hdr": lambda path: read_hdr(path),
    ".png": lambda path: read_png(path)[0],
}


def _suffix(path, suffixes, what) -> str:
    """The suffix of `path`, which must be one of `suffixes`; `what` ("image" or
    "output") names the path in the error. Commands check outputs before any read."""
    suffix = Path(path).suffix
    if suffix not in suffixes:
        raise ValueError(f"unsupported {what} format (not {'/'.join(suffixes)}): {path}")
    return suffix


def _list_images(directory, suffixes, what) -> list:
    """The files of `directory` with one of `suffixes`, sorted; there must be one."""
    d = Path(directory)
    found = sorted(p for p in d.iterdir() if p.suffix in suffixes)
    if not found:
        raise ValueError(f"no {what} ({', '.join('*' + s for s in suffixes)}) in {d}")
    return found


def _read_image(path, suffixes) -> np.ndarray:
    """Decode `path` by its suffix (one of `suffixes`); reject non-finite values
    before any caller clips them. A missing file raises FileNotFoundError."""
    data = _READERS[_suffix(path, suffixes, "image")](path)
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite value in {path}")
    return data


def _load_env(path) -> EnvironmentMap:
    """HDR radiance from PFM or Radiance HDR, as decoded (float32); negatives clip to 0."""
    data = _read_image(path, (".pfm", ".hdr"))
    return EnvironmentMap(np.clip(data, 0.0, None, out=data))


def _load_channel(path) -> np.ndarray:
    """A [0,1] image from PNG or PFM, as decoded; PFM values clip to [0, 1]."""
    data = _read_image(path, (".png", ".pfm"))
    return np.clip(data, 0.0, 1.0, out=data)  # in place: PNG data is already in range


# ---------------------------------------------------------------------------
# command implementations

def _cmd_crop(args, out):
    suffix = _suffix(args.out, (".png", ".pfm"), "output")
    cam = projection.CameraSpec(  # before the read
        azimuth=args.az, elevation=args.el, fov=args.fov,
        width=args.w, height=args.h,
    )
    env = _load_env(args.pano)
    view = projection.project_perspective(env, cam)
    path = out.path(args.out)
    if suffix == ".png":
        codes = projection._display_codes(view, 1.0, args.tonemap)
        write_png(path, codes, metadata={"tonecurve": args.tonemap})
    else:
        write_pfm(path, view)
    params = {"az": args.az, "el": args.el, "fov": args.fov, "w": args.w,
              "h": args.h, "tonemap": args.tonemap}
    return path, {"pano": args.pano}, params


def _cmd_dataset_gen(args, out):
    projection.check_dataset_args(args.seed, args.count, args.video_frames,
                                  args.w, args.h)  # before any read
    src_dir = Path(args.panos_dir)
    paths = _list_images(src_dir, tuple(_READERS), "panoramas")
    # PNG is display-referred LDR
    sources = [projection.PanoramaSource(_load_channel(p), hdr=False) if p.suffix == ".png"
               else projection.PanoramaSource(_load_env(p).data) for p in paths]
    samples = projection.dataset_gen(
        sources, args.seed, args.count,
        frame_count=args.video_frames, crop_width=args.w, crop_height=args.h,
    )
    out_dir = Path(args.out_dir)
    records = []
    targets = {}  # source index -> the listing's target paths of that source
    for i, sample in enumerate(samples):  # each sample is written before the next is drawn
        sdir = out_dir / f"sample_{i:04d}"
        sdir.mkdir(parents=True, exist_ok=True)
        crops = []
        for k, crop in enumerate(sample.crops):
            crops.append(out.path(sdir / f"crop_{k:03d}.png"))
            write_png(crops[-1], crop, metadata={"tonecurve": sample.tone_curve})
        src = sample.source_index
        if src not in targets:  # a source's targets are written once, with its first sample
            targets[src] = _write_targets(out, out_dir / f"source_{src:04d}", sources[src])
        records.append({
            "index": i,
            "source": paths[src].name,
            "cameras": [dataclasses.asdict(c) for c in sample.cameras],
            "tone_curve": sample.tone_curve,
            "exposure_scale": sample.exposure_scale,
            "crops": crops,
            **targets[src],
        })
    listing = out_dir / "dataset.jsonl"
    out.text(listing, "".join(_json_text(rec) for rec in records))
    params = {"count": args.count, "video_frames": args.video_frames,
              "w": args.w, "h": args.h}
    return listing, {"panos_dir": str(src_dir)}, params


def _write_targets(out, directory, source) -> dict:
    """Write the dual targets of `source` into `directory` as target_{ldr,log}.pfm;
    returns the listing's `target_ldr` and `target_log` paths (log None for LDR)."""
    directory.mkdir(exist_ok=True)
    paths = dict.fromkeys(("target_ldr", "target_log"))
    for key, target in zip(paths, source.targets()):
        if target is not None:
            paths[key] = out.path(directory / f"{key}.pfm")
            write_pfm(paths[key], target)
    return paths


def _cmd_tonemap(args, out):
    for path in (args.out_ldr, args.out_log):
        _suffix(path, (".png",), "output")
    if Path(args.out_ldr).resolve() == Path(args.out_log).resolve():
        raise ValueError(f"--out-ldr and --out-log name one file: {args.out_log}")
    data = _load_env(args.infile).data
    for path, channel, curve in ((args.out_ldr, tonemap.tonemap_ldr, "dual-reinhard16"),
                                 (args.out_log, tonemap.tonemap_log, "dual-log10000")):
        codes = map_rows(lambda e: codes8(channel(e)), data, out=np.empty(data.shape, np.uint8))
        write_png(out.path(path), codes, metadata={"tonecurve": curve})
    return args.out_ldr, {"in": args.infile}, {}


def _cmd_decode(args, out):
    """inverse and fuse-apply: HDR from a dual pair, by the fusion net if one
    is given, else by the analytic rule."""
    _suffix(args.out, (".pfm",), "output")
    maps = tonemap.DualToneMaps(ldr=_load_channel(args.ldr), log=_load_channel(args.log))
    if args.net is None:  # per row block, into the float32 values the PFM stores
        hdr = map_rows(tonemap.inverse_rule, maps.ldr, maps.log,
                       out=np.empty(maps.ldr.shape, dtype=np.float32))
    else:
        hdr = fusion.fuse_image(fusion.load_fusion_net(args.net), maps).data
    write_pfm(out.path(args.out), hdr)
    inputs = {"ldr": args.ldr, "log": args.log}
    if args.command == "fuse-apply":
        return args.out, {"net": args.net, **inputs}, {}
    return args.out, inputs, {"net": args.net}


def _cmd_fuse_train(args, out):
    cfg = fusion.TrainConfig(
        seed=args.seed, steps=args.steps, batch_size=args.batch,
        learning_rate=args.lr, quantize=not args.no_quantize, init=args.init,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises on its own
        net, loss = fusion.train_fusion(cfg)
    fusion.save_fusion_net(net, out.path(args.out))
    print("final loss", "none (no step ran)" if loss is None else f"{loss:.6f}")
    params = {"steps": cfg.steps, "batch": cfg.batch_size, "lr": cfg.learning_rate,
              "quantize": cfg.quantize, "init": cfg.init,
              "final_loss": loss}
    return args.out, {}, params


def _cmd_render_probes(args, out):
    materials = probes.STANDARD_MATERIALS
    rendered = probes.render_probe_blocks([_load_env(args.env)], materials.values(), args.size)
    image = codes = None
    for name, (mask, blocks) in zip(materials, rendered):
        if image is None:  # the size is checked: one image and its codes serve every probe
            image = np.empty((*mask.shape, 3), dtype=np.float32)  # the values a PFM stores
            codes = np.empty(image.shape, dtype=np.uint8)
        for rows, (disc,) in blocks:
            block = probes.ProbeImage.from_disc(mask[rows], disc).pixels
            image[rows] = block
            # coded from float64: the float32 image's codes can differ
            codes[rows] = projection._display_codes(block, 1.0, "gamma24")
        write_pfm(out.path(f"{args.out_prefix}{name}.pfm"), image)
        write_png(out.path(f"{args.out_prefix}{name}.png"), codes,
                  metadata={"tonecurve": "gamma24"})
    params = {"size": args.size, "out_prefix": args.out_prefix}
    return out.paths[0], {"env": args.env}, params


def _cmd_eval(args, out):
    pred = _load_env(args.pred)
    gt = _load_env(args.gt)
    report = metrics.evaluate_three_spheres(pred, gt, probe_size=args.probe_size)
    out.text(args.out, _json_text(report.to_dict(), indent=2))
    return args.out, {"pred": args.pred, "gt": args.gt}, {"probe_size": args.probe_size}


def _cmd_eval_video(args, out):
    pred_frames = _list_images(args.pred_dir, (".pfm",), "frames")
    gt_frames = _list_images(args.gt_dir, (".pfm",), "frames")
    if len(pred_frames) != len(gt_frames):
        raise ValueError(
            f"frame count mismatch: {len(pred_frames)} pred vs {len(gt_frames)} gt"
        )

    def score(pred, gt):  # a task holds one frame pair, so memory is flat in frame count
        return metrics.evaluate_three_spheres(_load_env(pred), _load_env(gt),
                                              probe_size=args.probe_size)

    import concurrent.futures  # eval-video is the one command with a pool

    with concurrent.futures.ThreadPoolExecutor(max_workers=thread_limit()) as pool:
        report = metrics.sequence_report(list(pool.map(score, pred_frames, gt_frames)))
    out.text(args.out, _json_text(report.to_dict(), indent=2))
    params = {"probe_size": args.probe_size, "frames": len(pred_frames)}
    return args.out, {"pred_dir": args.pred_dir, "gt_dir": args.gt_dir}, params


def _cmd_peak(args, out):
    direction = peak_direction(_load_env(args.env), percentile=args.percentile)
    text = _json_text({"direction": [float(v) for v in direction]})
    written = None  # no --out: nothing written, no manifest
    if args.out is not None:
        out.text(args.out, text)
        written = args.out, {"env": args.env}, {"percentile": args.percentile}
    print(text, end="")
    return written


def _cmd_rotate(args, out):
    _suffix(args.out, (".pfm",), "output")
    write_pfm(out.path(args.out), rotate_env(_load_env(args.env), args.yaw).data)
    return args.out, {"env": args.env}, {"yaw": args.yaw}


# ---------------------------------------------------------------------------
# parser plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luxprobe",
        description="HDR lighting toolkit: tonemapping, fusion, probes, metrics",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"luxprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file of flag defaults", default=None)
        p.add_argument("--seed", type=int, default=0, help="RNG seed (recorded in manifests)")
        return p

    p = add("crop", _cmd_crop, help="project a panorama to a pinhole view")
    p.add_argument("--pano", required=True)
    p.add_argument("--az", type=float, default=0.0)
    p.add_argument("--el", type=float, default=0.0)
    p.add_argument("--fov", type=float, default=60.0)
    p.add_argument("--w", type=int, default=projection.DEFAULT_CROP_WIDTH)
    p.add_argument("--h", type=int, default=projection.DEFAULT_CROP_HEIGHT)
    p.add_argument("--tonemap", choices=sorted(tonemap.TONE_CURVES), default="gamma24")
    p.add_argument("--out", required=True)

    p = add("dataset-gen", _cmd_dataset_gen, help="generate supervised crop/target samples")
    p.add_argument("--panos-dir", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--video-frames", type=int, default=1)
    p.add_argument("--w", type=int, default=projection.DEFAULT_CROP_WIDTH)
    p.add_argument("--h", type=int, default=projection.DEFAULT_CROP_HEIGHT)
    p.add_argument("--out-dir", required=True)

    p = add("tonemap", _cmd_tonemap, help="dual-tonemap an HDR map to two PNGs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-ldr", required=True)
    p.add_argument("--out-log", required=True)

    p = add("inverse", _cmd_decode, help="reconstruct HDR from the dual pair")
    p.add_argument("--ldr", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--net", default=None, help="fusion net file (default: rule-based)")
    p.add_argument("--out", required=True)

    p = add("fuse-train", _cmd_fuse_train, help="train the fusion MLP")
    p.add_argument("--steps", type=int, default=fusion.TrainConfig.steps)
    p.add_argument("--batch", type=int, default=fusion.TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=fusion.TrainConfig.learning_rate)
    p.add_argument("--no-quantize", action="store_true")
    p.add_argument("--init", choices=("structured", "uniform"), default="structured")
    p.add_argument("--out", required=True)

    p = add("fuse-apply", _cmd_decode, help="apply a trained fusion net")
    p.add_argument("--net", required=True)
    p.add_argument("--ldr", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)

    p = add("render-probes", _cmd_render_probes, help="render the three evaluation spheres")
    p.add_argument("--env", required=True)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--out-prefix", required=True)

    p = add("eval", _cmd_eval, help="three-sphere metrics for one prediction")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--probe-size", type=int, default=256)
    p.add_argument("--out", required=True)

    p = add("eval-video", _cmd_eval_video, help="per-frame metrics plus temporal stats")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--probe-size", type=int, default=256)
    p.add_argument("--out", required=True)

    p = add("peak", _cmd_peak, help="dominant-light direction of a map")
    p.add_argument("--env", required=True)
    p.add_argument("--percentile", type=float, default=0.999)
    p.add_argument("--out", default=None)

    p = add("rotate", _cmd_rotate, help="rotate a panorama in azimuth")
    p.add_argument("--env", required=True)
    p.add_argument("--yaw", type=float, required=True)
    p.add_argument("--out", required=True)
    return parser


def _with_config(parser, argv) -> list:
    """`argv` with the values of its --config file as --flag=value tokens, put right
    after the subcommand so that they parse like flags and explicit flags win.

    Config keys are flag names (`-` or `_`); keys that name no flag of the
    subcommand are ignored. A store_true flag takes true or false, any other
    flag a string or a number (written as its JSON text).
    """
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if at is None or argv[at] not in sub.choices:
        return argv  # argparse reports it
    path = None  # the last --config wins, as in argparse
    for tok, nxt in zip(argv[at + 1:], argv[at + 2:] + [None]):
        if tok == "--config":
            path = nxt
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    with open(path) as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    sub_parser = sub.choices[argv[at]]
    flags = {opt.lstrip("-").replace("-", "_"): a for a in sub_parser._actions
             if a.dest not in ("help", "config") for opt in a.option_strings}
    tokens = []
    for key, value in config.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            continue
        flag = action.option_strings[-1]
        on_off = isinstance(action, argparse._StoreTrueAction)
        if on_off != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            kind = "true or false" if on_off else "a string or a number"
            sub_parser.error(f"argument {flag}: config value must be {kind}, "
                             f"got {json.dumps(value)}")
        if not on_off:
            tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
        elif value:
            tokens.append(flag)
    return argv[:at + 1] + tokens + argv[at + 1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(_with_config(parser, argv))
        thread_limit()  # validate the env var before any work
        out = _Recorder()
        written = args.func(args, out)
        if written is not None:
            primary, inputs, parameters = written
            out.manifest(primary, {
                "command": args.command,
                "tool_version": __version__,
                "seed": args.seed,
                "inputs": {k: str(v) for k, v in inputs.items()},
                "parameters": parameters,
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            })
        return 0
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"ERROR DATA: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        print(f"ERROR DATA: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
