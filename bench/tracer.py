"""Run a list of luxprobe commands inside this process, optionally traced.

    python3 bench/tracer.py plain|traced PLAN.json OUT.json

PLAN.json holds a list of argument lists for `luxprobe.cli.main`. In
`traced` mode every function in TRACED is wrapped wherever the package
binds it (`from .probes import render_probe` copies the binding into
`metrics`, so that copy is replaced too), and each call records a span:
name, start, end, parent span and thread. Spans stay in memory and are
written to OUT.json at the end, with each command's exit code, start and
end. `plain` runs the same commands unwrapped, to measure the overhead.
"""

import contextlib
import functools
import itertools
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Which end-to-end figure each layer should move, and on which workload:
#   probes.*, metrics.*, cli.pool_parallelism -> eval_frames_per_s, cpu_s (eval_video)
#   envmap.*                -> gen_crops_per_s (dataset_gen), a little of eval_video
#   fusion.fuse_image/fusion_forward, rss_rise -> decode_mpix_per_s, peak_rss_mb (hdr_decode);
#                              no change predicted on fuse_train
#   fusion.train_fusion/sample_training_pairs/init_structured, train_step_ms
#                           -> train_steps_per_s (fuse_train); no change on hdr_decode
#   imgio.read_* and tonemap.inverse_rule -> decode_mpix_per_s (hdr_decode; read_hdr on
#                              dataset_gen); imgio.write_*, projection.*, other tonemap.*
#                           -> gen_crops_per_s (dataset_gen)
#   cli.main self time (argparse, manifest hashing, JSON) -> every throughput, most on
#                              dataset_gen; on eval_video it includes waiting on the pool
TRACED = (
    "cli.main",
    "imgio.read_png", "imgio.read_pfm", "imgio.read_hdr", "imgio.write_png", "imgio.write_pfm",
    "tonemap.inverse_rule", "tonemap.apply_display_tonemap", "tonemap.quantize8",
    "tonemap.auto_expose", "tonemap.tonemap_ldr", "tonemap.tonemap_log",
    "fusion.fuse_image", "fusion.fusion_forward", "fusion.train_fusion",
    "fusion.sample_training_pairs", "fusion.init_structured",
    "probes.prefilter_glossy", "probes.prefilter_diffuse", "probes.render_probe",
    "envmap.sample_equirect", "envmap.peak_direction",
    "metrics.evaluate_three_spheres", "metrics.si_rmse", "metrics.angular_error",
    "metrics.n_rmse", "metrics.peak_angular_error", "metrics.temporal_stats",
    "projection.dataset_gen", "projection.camera_rays", "projection.gen_trajectory",
)


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PeakRss:
    """The highest RSS of this process while the block runs, whatever the
    process held before it: the lifetime high-water mark where the block
    raises it, else the highest RSS a thread sampling every millisecond saw."""

    def __enter__(self):
        self.before_mb, self.maxrss_before = rss_mb(), maxrss_mb()
        self.sampled_mb = self.before_mb
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._done.wait(1e-3):
            self.sampled_mb = max(self.sampled_mb, rss_mb())

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join()
        after = maxrss_mb()
        self.peak_mb = after if after > self.maxrss_before else self.sampled_mb


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = {"id": next(tracer._ids), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "thread": threading.get_ident()}
            peak = PeakRss() if name == "fusion.fuse_image" else contextlib.nullcontext()
            stack.append(span)
            with peak:
                span["start"] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span["end"] = time.perf_counter()
                    stack.pop()
                    tracer.spans.append(span)
            if name == "imgio.read_png":
                span["bytes"] = int(result[0].size)  # decoded 8-bit samples
            elif name == "fusion.fuse_image":
                span["rss_rise_mb"] = peak.peak_mb - peak.before_mb
            elif name == "fusion.train_fusion":
                span["steps"] = int(args[0].steps)
            return result

        return traced

    def install(self):
        import luxprobe.cli  # noqa: F401  imports every module of the package

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "luxprobe"]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"luxprobe.{module}"], attr)
            wrapped = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)


def main() -> int:
    mode, plan_path, out_path = sys.argv[1:]
    import luxprobe.cli as cli

    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    commands = []
    for argv in json.loads(Path(plan_path).read_text()):
        start = time.perf_counter()
        code = cli.main(argv)
        commands.append({"command": argv[0], "code": code,
                         "start": start, "end": time.perf_counter()})
    result = {"commands": commands, "spans": tracer.spans if tracer else [],
              "main_thread": threading.get_ident(), "maxrss_mb": maxrss_mb()}
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
