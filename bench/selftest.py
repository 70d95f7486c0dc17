"""Gate self-test: every output check must reject a corrupted output.

    python3 bench/selftest.py [--workload NAME] [--seed N]

For each workload: set up, run one iteration of its commands, confirm the
checks pass on the program's real outputs, then apply each corruption in
turn, confirm the checks raise CheckFailed, and restore the good outputs.
Corruptions that should reach a check past the manifest rewrite the
manifest hash too, as a program writing wrong values consistently would.
Then it traces the same commands once and confirms the span checks of the
traced run reject corrupted spans. Exit status is 1 if any corrupted
output or trace is accepted.
"""

import argparse
import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import formats as fmt
import run
import workloads as wl


def rehash(primary, path) -> None:
    """Point the manifest of `primary` at the current content of `path`."""
    manifest_path = Path(str(primary) + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][str(path)] = wl.sha256(path)
    manifest_path.write_text(json.dumps(manifest))


def edit_json(path, edit, primary=None) -> None:
    data = json.loads(Path(path).read_text())
    edit(data)
    Path(path).write_text(json.dumps(data))
    if primary is not None:
        rehash(primary, path)


def edit_pfm(path, edit, primary) -> None:
    img = fmt.read_pfm(path).astype(np.float64)
    edit(img)
    fmt.write_pfm(path, img)
    rehash(primary, path)


def append_byte(path) -> None:
    with open(path, "ab") as f:
        f.write(b"\n")


# ---------------------------------------------------------------------------
# corruptions: name -> function(workload)

def eval_video_cases(w):
    known, ref = w.work / "known" / "report.json", w.work / "reference" / "report.json"

    def shift(key, stats, delta, path=known):
        def edit(d):
            for stat in stats:
                d["temporal"][key][stat] += delta
        return lambda _: edit_json(path, edit, path)

    return {
        "pred = 2 x gt frame scores 1e-6 si-RMSE": shift("matte.si_rmse", ["mean"], 1e-6),
        # mean and std up by 3: the zero frame stays 0, the rolled one gains 6
        "rolled frame PAE 6 degrees off": shift("pae_deg", ["mean", "std"], 3.0),
        "reference frames' diffuse n-RMSE off by 1e-5": shift(
            "diffuse.n_rmse", ["mean"], 1e-5, ref),
        "report changed after its manifest": lambda _: append_byte(ref),
    }


def hdr_decode_cases(w):
    rule, fused = w.work / "rule.pfm", w.work / "fused.pfm"
    flat = np.zeros(w.ldr8.shape[0] * w.ldr8.shape[1], dtype=bool)
    flat[w.sample] = True
    sampled = flat.reshape(w.ldr8.shape[:2])
    off_sample = tuple(np.argwhere(~sampled)[0])

    def scale_sampled(img):
        img[sampled] *= 1.001

    def scale_unsampled(img):
        img[~sampled] *= 1.05

    return {
        "rule inverse texels 0.1% off": lambda _: edit_pfm(rule, scale_sampled, rule),
        "rule inverse 5% off away from the subsample": lambda _: edit_pfm(
            rule, scale_unsampled, rule),
        "fused texels 0.1% off": lambda _: edit_pfm(fused, scale_sampled, fused),
        "fused NaN texel away from the subsample": lambda _: edit_pfm(
            fused, lambda img: img.__setitem__(off_sample, np.nan), fused),
        "rule PFM truncated": lambda _: (rule.write_bytes(rule.read_bytes()[:-12]),
                                         rehash(rule, rule)),
        "fused PFM changed after its manifest": lambda _: append_byte(fused),
    }


def fuse_train_cases(w):
    net = w.work / f"net_{wl.REFERENCE_TRAIN_SEED}.bin"
    manifest = Path(str(net) + ".manifest.json")
    init = w.work / f"init_{wl.REFERENCE_TRAIN_SEED}.bin"

    def set_loss(value):
        return lambda _: edit_json(manifest, lambda d: d["parameters"].__setitem__(
            "final_loss", value))

    def nudge_weight(_):
        blob = bytearray(net.read_bytes())
        params = np.frombuffer(blob, dtype="<f4", offset=16)
        params[100] += 1e-3  # a first-layer weight
        net.write_bytes(bytes(blob))
        rehash(net, net)

    return {
        "final loss 1% off the reference": set_loss(
            json.loads(manifest.read_text())["parameters"]["final_loss"] * 1.01),
        "final loss NaN": set_loss(float("nan")),
        "saved net is the untrained one": lambda _: (net.write_bytes(init.read_bytes()),
                                                     rehash(net, net)),
        "one weight off by 1e-3": nudge_weight,
        "net file changed after its manifest": lambda _: append_byte(net),
    }


def dataset_gen_cases(w):
    video = w.work / "video"
    listing = video / "dataset.jsonl"
    records = [json.loads(line) for line in listing.read_text().splitlines()]
    crop = Path(records[0]["crops"][1])
    target = Path(records[1]["target_ldr"])

    def write_listing(recs):
        listing.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
        rehash(listing, listing)

    def turn_camera(_):
        recs = [dict(r) for r in records]
        recs[0]["cameras"][-1]["azimuth"] += 40.0
        write_listing(recs)

    def narrow_crop(_):
        img = fmt.decode_png(crop.read_bytes())[:, :-1]
        crop.write_bytes(fmt.encode_png(img, np.zeros(img.shape[0], dtype=np.uint8)))
        rehash(listing, crop)

    def flip_crop_byte(_):
        blob = bytearray(crop.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        crop.write_bytes(bytes(blob))
        rehash(listing, crop)

    return {
        "crop missing": lambda _: crop.unlink(),
        "crop 719 pixels wide": narrow_crop,
        "crop PNG corrupted": flip_crop_byte,
        "last camera turned 40 degrees": turn_camera,
        "sample missing from the listing": lambda _: write_listing(records[:-1]),
        "target_ldr off by 0.01": lambda _: edit_pfm(
            target, lambda img: img.__setitem__(slice(None), img + 0.01), listing),
        "target PFM changed after the manifest": lambda _: append_byte(target),
    }


def trace_cases():
    """Corruptions of a traced run: name -> function(traced result)."""

    def subtree(spans, root):
        ids, out = {root["id"]}, []
        for s in sorted(spans, key=lambda s: s["start"]):
            if s["id"] in ids or s["parent"] in ids:
                ids.add(s["id"])
                out.append(s)
        return out

    def child(t):
        return next(s for s in t["spans"] if s["parent"] is not None)

    def parent_of(t, span):
        return next(s for s in t["spans"] if s["id"] == span["parent"])

    def first_command(t):
        return next(s for s in t["spans"] if s["name"] == "cli.main")

    def stretch_child(t):
        c = child(t)
        c["end"] = parent_of(t, c)["end"] + 1e-3

    def move_after_commands(t):
        for s in subtree(t["spans"], first_command(t)):
            s["start"] += t["commands"][-1]["end"]
            s["end"] += t["commands"][-1]["end"]

    def drop_command(t):
        lost = {s["id"] for s in subtree(t["spans"], first_command(t))}
        t["spans"] = [s for s in t["spans"] if s["id"] not in lost]

    return {
        "child span ends after its parent": stretch_child,
        "child span on another thread than its parent": lambda t: child(t).__setitem__(
            "thread", -1),
        "a command's spans moved past the last command": move_after_commands,
        "a command's spans lost": drop_command,
    }


def trace_self_test(name: str, w, work: Path) -> bool:
    traced = run.run_tracer("traced", run.write_plan(w, work), work)
    try:
        run.per_layer([traced], traced)
    except wl.CheckFailed as exc:
        print(f"{name}: span checks reject the real trace: {exc}")
        return False
    print(f"{name}: span checks accept the real trace")
    ok = True
    for case, corrupt in trace_cases().items():
        bad = copy.deepcopy(traced)
        corrupt(bad)
        try:
            run.per_layer([bad], bad)
            print(f"{name}: FAIL  corrupted trace accepted: {case}")
            ok = False
        except wl.CheckFailed as exc:
            print(f"{name}: ok    {case} -> rejected: {str(exc)[:110]}")
    return ok


CASES = {"eval_video": eval_video_cases, "hdr_decode": hdr_decode_cases,
         "fuse_train": fuse_train_cases, "dataset_gen": dataset_gen_cases}


def self_test(name: str, seed: int) -> bool:
    w = wl.WORKLOADS[name]()
    work = run.WORK / f"selftest_{name}"
    good = run.WORK / f"selftest_{name}_good"
    for d in (work, good):
        shutil.rmtree(d, ignore_errors=True)
    w.setup(work, seed)
    iterations = range(w.min_iterations)
    for cmd in (cmd for i in iterations for cmd in w.commands(i)):
        res = wl.run_cli(cmd.argv, work / "logs")
        if res.code != 0:
            print(f"{name}: luxprobe {cmd.argv[0]} exited {res.code}: {res.stderr.strip()}")
            return False
    try:
        for i in iterations:
            w.check(i)
    except wl.CheckFailed as exc:
        print(f"{name}: checks reject the program's real output: {exc}")
        return False
    print(f"{name}: checks accept the program's real output")
    shutil.copytree(work, good)
    ok = True
    for case, corrupt in CASES[name](w).items():
        corrupt(w)
        try:
            for i in iterations:
                w.check(i)
            print(f"{name}: FAIL  corrupted output accepted: {case}")
            ok = False
        except wl.CheckFailed as exc:
            print(f"{name}: ok    {case} -> rejected: {str(exc)[:110]}")
        shutil.rmtree(work)
        shutil.copytree(good, work)
    shutil.rmtree(good)
    return trace_self_test(name, w, work) and ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *CASES])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run.set_threads()
    names = list(CASES) if args.workload == "all" else [args.workload]
    results = [self_test(name, args.seed) for name in names]
    print("gate self-test " + ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
