"""patentflow benchmark: one command, three closed-loop single-client workloads.

Usage (from the root of a patentflow checkout):

    python3 perfbench/run.py --workload {tsv_rank,mem_sweep,analyst} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

The benchmark writes seeded inputs with its own generator (corpus.py), runs
the unchanged program from ``src/`` for about S seconds after set-up, checks
every output independently (checks.py) and prints a report; its last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced run (spans.py,
layers.py). README.md in this directory explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import corpus

WORKLOADS = ("tsv_rank", "mem_sweep", "analyst")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
TIME_LIMIT_S = 170.0
NOT_CLAIMED = (
    "bandwidth and roofline ratios are not claimed: the L3 size the VM reports "
    "(300 MB here) is a virtual figure, and mem_sweep's per-iteration working set "
    "(about 200 MB) is not four times larger than it"
)


def machine_facts() -> dict:
    with open("/proc/cpuinfo") as f:
        models = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        def read(name: str, index: str = index) -> str:
            with open(os.path.join(index, name)) as f:
                return f.read().strip()
        kind = {"Data": "d", "Instruction": "i"}.get(read("type"), "")
        caches[f"L{read('level')}{kind}"] = read("size")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": models[0] if models else platform.processor(),
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def child_env(src: str) -> dict:
    """The caller's environment without PATENTFLOW_* settings, program on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PATENTFLOW_")}
    env["PYTHONPATH"] = src
    return env


def rank_process(src: str, files: dict, out: str, err_path: str, timeout: float):
    """One ``patentflow rank`` process: (wall s, its own peak RSS MB, exit code, stderr)."""
    cmd = [sys.executable, "-m", "patentflow", "rank", "--citations", files["citations.tsv"]["path"],
           "--patents", files["patents.tsv"]["path"], "--out", out]
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(src), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr_text = f.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr_text


def tsv_rank(args, src: str, work: str, truth, info: dict, deadline: float) -> dict:
    counts = checks.graph_counts(truth.citing, truth.cited, truth.node_count)
    first_out = os.path.join(work, "out0")
    out = os.path.join(work, "out")
    err_path = os.path.join(work, "rank.stderr")
    ops = checks.Ops()
    walls: list[float] = []
    peaks: list[float] = []

    ops.attempt()
    setup, peak, code, stderr_text = rank_process(src, info["files"], first_out, err_path,
                                                  deadline - time.perf_counter())
    peaks.append(peak)
    if code != 0:
        ops.record("rank 0", [f"exit code {code}: {stderr_text[-300:]}"])
    else:
        ops.record("rank 0", checks.check_rank_outputs(first_out, stderr_text, truth,
                                                       info["expected"], counts))
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < args.seconds:
        ops.attempt()
        wall, peak, code, _ = rank_process(src, info["files"], out, err_path,
                                           deadline - time.perf_counter())
        walls.append(wall)
        peaks.append(peak)
        ops.record(f"rank {len(walls)}", checks.check_same_rank_outputs(code, out, first_out))
    return {"setup": [setup], "units": walls, "peak_rss_mb": statistics.median(peaks),
            "rss_samples": peaks, "attempted": ops.attempted, "failed": ops.failed,
            "reasons": ops.reasons}


def run_worker(cfg: dict, work: str, bench_dir: str, deadline: float) -> dict:
    cfg_path = os.path.join(work, "worker.json")
    cfg["result"] = os.path.join(work, "result.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    log_path = os.path.join(work, "worker.stderr")
    with open(log_path, "wb") as log:
        proc = subprocess.run([sys.executable, os.path.join(bench_dir, "worker.py"), cfg_path],
                              env=child_env(cfg["src"]), stdout=subprocess.DEVNULL, stderr=log,
                              timeout=max(1.0, deadline - time.perf_counter()))
    with open(log_path, encoding="utf-8", errors="replace") as f:
        log_text = f.read()
    if proc.returncode != 0 or not os.path.exists(cfg["result"]):
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{log_text[-2000:]}")
    with open(cfg["result"]) as f:
        result = json.load(f)
    if result["failed"]:
        sys.stderr.write(log_text[-2000:])
    return result


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    """Metrics for the JSON line plus the lines of the human-readable table."""
    samples = {"wall_s": result["units"], "setup_s": result["setup"],
               "peak_rss_mb": result.get("rss_samples", [result["peak_rss_mb"]])}
    metrics = {
        "wall_s": statistics.median(result["units"]),
        "setup_s": statistics.median(result["setup"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    lines = [f"{name:<16}{metrics[name]:>14.6f} {unit:<3} n={len(samples[name])}"
             for name, unit in END_TO_END]
    flows = result.get("flow_latencies")
    exclusions = result.get("exclusion_latencies")
    if flows:
        lines.append(f"{'flow_p50_s':<16}{quantile(flows, 50):>14.6f} s   n={len(flows)}")
        lines.append(f"{'flow_p90_s':<16}{quantile(flows, 90):>14.6f} s   n={len(flows)}")
    if exclusions:
        lines.append(f"{'exclusion_p50_s':<16}{statistics.median(exclusions):>14.6f} s   "
                     f"n={len(exclusions)}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(corpus.SIZES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so children are killed and awaited and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "patentflow", "__init__.py")):
        print(f"error: no patentflow sources under {src}; run from a patentflow checkout",
              file=sys.stderr)
        return 2
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    runs_dir = os.path.join(root, ".perfbench_runs")
    work = os.path.join(runs_dir, f"work-{os.getpid()}")
    os.makedirs(work)
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        # compile the program's bytecode once, outside every timed region
        subprocess.run([sys.executable, "-c", "import patentflow.cli"], env=child_env(src),
                       check=True)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size, "machine": machine_facts(),
                  "note": NOT_CLAIMED}
        cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "size": args.size, "src": src, "work": work}
        if args.workload == "mem_sweep":
            nodes, edge_count = corpus.EDGE_SIZES[args.size]
            edges = corpus.make_edges(nodes, edge_count, args.seed)
            cfg.update(edges=os.path.join(work, "edges.npy"), nodes=nodes)
            np.save(cfg["edges"], edges)
            record["inputs"] = {"nodes": nodes, "edges": edge_count, "bytes": int(edges.nbytes)}
            del edges
        else:
            size = corpus.SIZES[args.size]
            truth = corpus.make_corpus(size, args.seed)
            info = corpus.write_corpus(truth, work, args.seed)
            record["inputs"] = {
                "planted": truth.planted,
                "files": {k: {"bytes": v["bytes"], "lines": v["lines"]} for k, v in info["files"].items()},
                "expected_reports": info["expected"],
            }
            cfg.update(citations=info["files"]["citations.tsv"]["path"],
                       patents=info["files"]["patents.tsv"]["path"], expected=info["expected"],
                       classes=truth.classes, queries=truth.exclusion_queries,
                       exclusion_target=truth.classes[0])
        if args.workload == "tsv_rank" and not args.trace:
            result = tsv_rank(args, src, work, truth, info, deadline)
        else:
            result = run_worker(cfg, work, bench_dir, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not (result.get("layers") if args.trace else result.get("units") and result.get("setup")):
        print(f"error: {args.workload} measured nothing: {result['reasons']}", file=sys.stderr)
        return 1
    print(f"# patentflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(f"# machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"# inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"# note: {NOT_CLAIMED}")
    for reason in result["reasons"]:
        print(f"# FAILED {reason}")
    if args.trace:
        metrics = result["layers"]
        lines = [f"{name:<40}{m['value']:>18.6f} {m['unit']}" for name, m in metrics.items()]
        record["spans"] = result.pop("spans")
    else:
        metrics, lines = end_to_end(result)
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"{'error_rate':<16}{failed / max(attempted, 1):>14.6f}     "
                 f"({failed} failed / {attempted} attempted)")
    print("\n".join(lines))
    record.update(result=result, metrics=metrics)
    with open(os.path.join(runs_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
