"""luxprobe benchmark: the CLI commands users run, on seeded synthetic inputs.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from src/.
Each workload sets up several times (writing its inputs and starting the
program once; the median CPU time is setup_s), then runs iterations of its
commands, each in its own process, one at a time, until S seconds have
passed, checking every iteration's outputs. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs the first iterations
in-process, plain and with every public function of each module wrapped
in spans (tracer.py), and prints per-layer metrics.

The gated times are CPU times (user+sys), not wall times. On a shared
virtual machine the hypervisor takes the CPUs away in bursts: the kernel
counts that as steal time, which CPU time leaves out and wall time does
not. Wall-clock throughput is printed in the table and result.json.

The last line of stdout is one JSON object; the lines before it are a
readable table. Exit status is 1 if any command or output check fails.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
import workloads as wl

BENCH = Path(__file__).resolve().parent
WORK = wl.ROOT / ".bench_work"
# The eval-video pool gets two threads and BLAS one, so pool threads do not
# contend with BLAS threads for the cores; both capped at the usable CPUs.
THREADS = {"LUXPROBE_THREADS": 2, "OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1}
SETUPS = 5


def set_threads() -> None:
    for var, n in THREADS.items():
        os.environ[var] = str(min(n, len(os.sched_getaffinity(0))))


def environment() -> dict:
    mem_mb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "mem_total_mb": round(mem_mb), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            **{var: os.environ[var] for var in THREADS}}


def cpu_time() -> float:
    """User+sys CPU-s of this process and of its children it has waited for."""
    own, kids = (resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                     resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_setup(workload, work: Path, seed: int, count: int) -> list:
    """CPU-s of each set-up: the workload's inputs, then one start of the
    program (`--version` imports every module), which also byte-compiles
    the package before anything is timed."""
    times = []
    for _ in range(count):
        if work.exists():
            shutil.rmtree(work)
        start = cpu_time()
        workload.setup(work, seed)
        res = wl.run_cli(["--version"], work / "logs")
        times.append(cpu_time() - start)
        wl.require(res.code == 0, f"luxprobe --version exited {res.code}: {res.stderr}")
    return times


def checked(workload, iteration: int, failures: list) -> bool:
    """Run the iteration's output checks; record why they failed."""
    try:
        workload.check(iteration)
        return True
    except wl.CheckFailed as exc:
        failures.append(f"iteration {iteration}: output check failed: {exc}")
    except Exception:  # a crash in a check is a failed check, with its traceback
        failures.append(f"iteration {iteration}: output check crashed:\n{traceback.format_exc()}")
    return False


def run_timed(workload, work: Path, seconds: float) -> dict:
    iterations, failures = [], []
    attempted = failed = 0
    start = time.perf_counter()
    # start another iteration only if it should end within the time given
    while (len(iterations) < workload.min_iterations
           or (time.perf_counter() - start) * (1 + 1 / len(iterations)) <= seconds):
        i = len(iterations)
        commands = workload.commands(i)
        results = [wl.run_cli(cmd.argv, work / "logs") for cmd in commands]
        attempted += len(results)
        for cmd, res in zip(commands, results):
            if res.code != 0:
                failures.append(f"iteration {i}: luxprobe {cmd.argv[0]} exited {res.code}: "
                                f"{res.stderr.strip()[-500:]}")
        bad = sum(res.code != 0 for res in results)
        if not bad and not checked(workload, i, failures):
            bad = len(results)
        failed += bad
        wall = sum(r.wall_s for r in results)
        iterations.append({"items": sum(c.items for c in commands), "wall_s": wall,
                           "cpu_s": [r.cpu_s for r in results],
                           "sys_s": [r.sys_s for r in results],
                           "maxrss_mb": max(r.maxrss_mb for r in results)})
        if bad:
            break
    hostile = []
    for label, argv in workload.hostile():
        res = wl.run_cli(argv, work / "logs")
        lines = res.stderr.strip().splitlines()
        hostile.append({"case": label, "exit": res.code,
                        "rejected_cleanly": res.code == 1 and len(lines) == 1
                        and lines[0].startswith("ERROR")})
    return {"iterations": iterations, "attempted": attempted, "failed": failed,
            "failures": failures, "hostile": hostile}


def end_to_end(run: dict, setups: list) -> dict:
    """The gated figures: medians over set-ups and over iterations (an
    iteration's CPU time is the sum over its commands)."""
    its = run["iterations"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(math.fsum(it["cpu_s"]) for it in its), "s"),
        "peak_rss_mb": (max(it["maxrss_mb"] for it in its), "MB"),
    }


def wall_throughput(run: dict) -> float:
    """Work items per wall-clock second, over the median iteration."""
    return statistics.median(it["items"] / it["wall_s"] for it in run["iterations"])


def run_tracer(mode: str, plan: Path, work: Path) -> dict:
    out = work / f"{mode}.json"
    with open(work / "logs" / f"{mode}.log", "wb") as log:
        subprocess.run([sys.executable, str(BENCH / "tracer.py"), mode, str(plan), str(out)],
                       stdout=log, stderr=subprocess.STDOUT, cwd=wl.ROOT, check=True,
                       timeout=wl.COMMAND_TIMEOUT_S)
    return json.loads(out.read_text())


def self_times(spans: list) -> dict:
    """Span id -> duration minus the durations of its child spans."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def check_spans(traced: dict) -> dict:
    """Children nest inside their parents on the same thread, every span lies
    within one command, and on the main thread the self times of a command's
    spans add up to its wall time as timed around cli.main. Returns the self
    times."""
    spans, commands = traced["spans"], traced["commands"]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        p = by_id.get(s["parent"])
        wl.require(s["parent"] is None or (p and p["thread"] == s["thread"]
                                           and p["start"] <= s["start"] <= s["end"] <= p["end"]),
                   f"span {s['name']} lies outside its parent")
        wl.require(any(c["start"] <= s["start"] <= s["end"] <= c["end"] for c in commands),
                   f"span {s['name']} lies outside every command")
    own = self_times(spans)
    for c in commands:
        mine = [s for s in spans if s["thread"] == traced["main_thread"]
                and c["start"] <= s["start"] <= c["end"]]
        self_sum = math.fsum(own[s["id"]] for s in mine)
        wall = c["end"] - c["start"]
        wl.require(abs(self_sum - wall) <= 1e-3 + 1e-3 * wall,
                   f"luxprobe {c['command']}: main-thread self times sum to {self_sum:.6f} s, "
                   f"its wall time is {wall:.6f} s")
    return own


def per_layer(plains: list, traced: dict) -> dict:
    spans = traced["spans"]
    own = check_spans(traced)

    def spans_of(name):
        return [s for s in spans if s["name"] == name]

    out = {}
    for name in tracer.TRACED:
        mine = spans_of(name)
        out[f"{name}.calls"] = (len(mine), "count")
        out[f"{name}.self_s"] = (math.fsum(own[s["id"]] for s in mine), "s")
    main_roots = [s for s in spans if s["parent"] is None and s["thread"] == traced["main_thread"]]
    pool_roots = [s for s in spans if s["parent"] is None and s["thread"] != traced["main_thread"]]
    main_wall = sum(s["end"] - s["start"] for s in main_roots)
    pool_busy = sum(s["end"] - s["start"] for s in pool_roots)
    out["cli.pool_parallelism"] = (pool_busy / main_wall if pool_roots else 0.0, "ratio")
    reads = spans_of("imgio.read_png")
    read_s = sum(s["end"] - s["start"] for s in reads)
    out["imgio.read_png.mb_per_s"] = (sum(s["bytes"] for s in reads) / 1e6 / read_s
                                      if reads else 0.0, "MB/s")
    out["fusion.fuse_image.rss_rise_mb"] = (max((s["rss_rise_mb"] for s in spans_of(
        "fusion.fuse_image")), default=0.0), "MB")
    trains = spans_of("fusion.train_fusion")
    steps = sum(s["steps"] for s in trains)
    out["fusion.train_step_ms"] = (1e3 * sum(own[s["id"]] for s in trains) / steps
                                   if steps else 0.0, "ms")
    def wall(result):
        return sum(c["end"] - c["start"] for c in result["commands"])

    traced_wall = wall(traced)
    out["trace.wall_s"] = (traced_wall, "s")
    plain_wall = statistics.mean(wall(p) for p in plains)
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return out


def write_plan(workload, work: Path) -> Path:
    """The commands of the workload's first iterations, for tracer.py."""
    plan = work / "plan.json"
    plan.write_text(json.dumps([[str(a) for a in c.argv] for i in range(workload.min_iterations)
                                for c in workload.commands(i)]))
    (work / "logs").mkdir(parents=True, exist_ok=True)
    return plan


def run_traced(workload, work: Path) -> dict:
    """The first iterations in-process, plain, traced and plain again (so a drift in
    machine speed cancels from the overhead), checking outputs after each pass."""
    iterations = range(workload.min_iterations)
    plan = write_plan(workload, work)
    failures, passes = [], []
    attempted = failed = 0
    for mode in ("plain", "traced", "plain"):
        try:
            result = run_tracer(mode, plan, work)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            return {"attempted": attempted + 1, "failed": failed + 1, "metrics": {},
                    "failures": failures + [f"{mode} pass: {exc}; see logs/{mode}.log"]}
        passes.append(result)
        codes = [c["code"] for c in result["commands"]]
        attempted += len(codes)
        bad = sum(code != 0 for code in codes)
        failures += [f"{mode}: luxprobe {c['command']} exited {c['code']}"
                     for c in result["commands"] if c["code"] != 0]
        if not bad and not all([checked(workload, i, failures) for i in iterations]):
            bad = len(codes)
        failed += bad
    traced = passes[1]
    (work / "spans.json").write_text(json.dumps(traced["spans"]))
    metrics = {}
    try:
        metrics = per_layer([passes[0], passes[2]], traced)
    except wl.CheckFailed as exc:
        failures.append(f"trace: {exc}")
        failed += 1
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics}


def report(name: str, workload, metrics: dict, run: dict) -> None:
    """Readable lines, with the workload's wall-clock throughput under its own name."""
    for key, (value, unit) in metrics.items():
        print(f"{name:12s} {key:44s} {value:14.6g} {unit}")
    if run.get("iterations"):
        print(f"{name:12s} {workload.metric:44s} {wall_throughput(run):14.6g} {workload.unit} "
              f"(wall clock, median of {len(run['iterations'])} iterations; not gated)")
    print(f"{name:12s} {'fail_ratio':44s} {run['failed'] / max(run['attempted'], 1):14.6g} "
          f"({run['failed']} failed / {run['attempted']} attempted)")
    if run.get("hostile"):
        accepted = sum(h["exit"] == 0 for h in run["hostile"])
        print(f"{name:12s} {'bad_input_accepted':44s} {accepted / len(run['hostile']):14.6g} "
              f"({accepted} of {len(run['hostile'])} hostile inputs exited 0: "
              + ", ".join(f"{h['case']} exit {h['exit']}" for h in run["hostile"]) + ")")
    for failure in run["failures"]:
        print(f"{name:12s} FAILED {failure}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = wl.WORKLOADS[name]()
    work = WORK / name
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    setups = timed_setup(workload, work, seed, 1 if trace else SETUPS)
    run = run_traced(workload, work) if trace else run_timed(workload, work, seconds)
    metrics = run["metrics"] if trace else end_to_end(run, setups)
    report(name, workload, metrics, run)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "setup_s": setups, **run,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    if run.get("iterations"):
        result[workload.metric] = wall_throughput(run)
    (work / "result.json").write_text(json.dumps(result, indent=1))
    correct = run["failed"] == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": max(run["attempted"], 1), "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (wl.ROOT / "src" / "luxprobe" / "cli.py").is_file():
        print(f"error: no luxprobe sources under {wl.ROOT / 'src'}", file=sys.stderr)
        return 2
    set_threads()
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in wl.WORKLOADS:  # one at a time, each in its own process
        status |= subprocess.run([sys.executable, __file__, "--workload", name,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
