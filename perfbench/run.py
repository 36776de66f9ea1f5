"""cubicthue benchmark: one workload per run, end-to-end metrics with
tracing off, per-layer metrics from a separate traced pass.

    python3 perfbench/run.py --workload reduce-slice --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Lines before the last one report the machine, every metric by name and
unit, and the figures that qualify them (tail percentile and sample
count, fail ratio, projected full-sweep hours).  The last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits 1 when
any output check fails and 2 when the package source is missing.  Run
reports and traced spans go to .bench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("reduce-slice", "kappa-slice", "search-bounded", "cli-sweep")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none"
    if shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "cubicthue").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "flint": importlib.util.find_spec("flint") is not None,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }
    with open(HERE / "baseline.json") as fh:
        base = json.load(fh)["environment"]
    # runs on another core count or arithmetic backend are not comparable
    env["comparable"] = (env["nproc"] == base["nproc"]
                         and env["mpmath_backend"] == base["mpmath_backend"])
    return env


def run_workload(args) -> int:
    import workloads as wl
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    extra = {}
    OUT.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    tmp = OUT / ("tmp-" + tag)
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    cli_env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        if args.workload == "cli-sweep":
            setup = wl.cli_setup_seconds(cli_env, str(tmp), args.seed)
        else:
            setup = wl.setup_probe_seconds(str(HERE / "run.py"), args.workload, args.seed)
        items, t_max = wl.prepare(args.workload, args.seed, tracer)
        sweep = None
        if args.workload == "cli-sweep":
            sweep = wl.cli_sweep(items, args.seconds, args.seed, cli_env, str(tmp))
            window = sweep.serial
            attempted, failed = sweep.attempted, sweep.failed
            items_per_s, peak = sweep.items_per_s, sweep.peak_rss_mb
            extra["cli_wall_s"] = [run.wall for run in sweep.cli]
            extra["cli_stolen_s"] = [run.stolen for run in sweep.cli]
            extra["cli_cpu_s"] = [run.cpu for run in sweep.cli]
            extra["serial_items_per_s"] = window.items_per_s
            extra["cli_wall_items_per_s"] = sweep.wall_items_per_s
            extra["full_sweep_proj_wall_h"] = (t_max - 9) / sweep.wall_items_per_s / 3600
        else:
            window = wl.timed_window(items, args.seconds)
            attempted, failed = window.count, window.failed
            if args.workload == "search-bounded":
                searches, bad, extra["tables_cpu_s"] = wl.sporadic_tables()
                attempted, failed = attempted + searches, failed + bad
            items_per_s, peak = window.items_per_s, wl.own_peak_rss_mb()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tail, pct, n = wl.tail(window.latencies_ms)
    e2e = {
        "setup_s": statistics.median(setup),
        "items_per_s": items_per_s,
        "item_p50_ms": statistics.median(window.latencies_ms),
        "item_tail_ms": tail,
        "peak_rss_mb": peak,
    }
    extra.update({"fail_ratio": failed / attempted, "item_tail_percentile": pct,
                  "latency_samples": n, "setup_samples_s": setup,
                  "window_wall_s": window.elapsed, "window_cpu_s": window.busy,
                  "items_per_wall_s": window.count / window.elapsed})
    units = dict(wl.END_TO_END + wl.PER_LAYER)
    samples = list(window.reference)
    metrics = e2e
    if tracer:
        counters = Counter()
        traced = wl.traced_window(items[:window.count], args.seconds, tracer, counters)
        samples += traced.reference
        metrics = wl.layer_metrics(tracer, counters, traced, window, sweep)
        failed += traced.failed
        extra["traced_failed"] = traced.failed
        tracer.write(str(OUT / (tag + ".spans.jsonl")))
    extra.update({"raw_" + k: v for k, v in e2e.items()})
    extra["machine_speed"] = wl.REFERENCE_NS / statistics.median(samples)
    e2e = wl.at_reference_speed(e2e, units, samples)
    metrics = wl.at_reference_speed(metrics, units, samples)
    if sweep:
        extra["full_sweep_proj_h"] = (t_max - 9) / e2e["items_per_s"] / 3600
    env = environment(args.seed)
    correct = failed == 0
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in list(e2e.items()) + ([] if not tracer else list(metrics.items())):
        print("metric %-14s %-30s %.6g %s" % (args.workload, name, value, units[name]))
    for name, value in sorted(extra.items()):
        print("info   %-14s %-30s %s" % (args.workload, name, value))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(OUT / (tag + ".json"), "w") as fh:
        json.dump({"environment": env, "workload": args.workload, "result": result,
                   "end_to_end": e2e, "info": extra}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    ok = True
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            ok = False
            print("workload %s exited %d" % (name, proc.returncode))
            continue
        res = json.loads(lines[-1])
        ok &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({"%s.%s" % (name, k): v for k, v in res["metrics"].items()})
    merged["correct"] = ok
    print(json.dumps(merged))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cubicthue" / "__init__.py").is_file():
        print("perfbench: no package source at %s" % (SRC / "cubicthue"), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import cubicthue
    if Path(cubicthue.__file__).resolve().parent != (SRC / "cubicthue").resolve():
        print("perfbench: cubicthue imported from %s, not from %s"
              % (cubicthue.__file__, SRC), file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads
        workloads.prepare(args.workload, args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
