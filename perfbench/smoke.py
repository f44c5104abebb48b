"""Tiny-size smoke test of the benchmark itself.

Usage (from the root of a patentflow checkout): python3 perfbench/smoke.py

1. Every workload, untraced and traced, on tiny inputs: the last line is the
   result object, no operation fails, and every metric BENCHMARK.json names
   is printed by name with its unit.
2. The checkers check: a corrupted score vector, flow entry, exclusion
   count and rank-table row are each reported as failures.
3. Outside a checkout (no ``src/patentflow``) the benchmark exits non-zero
   without printing a result.
Exits non-zero on the first failed expectation.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import checks
import corpus

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SEED = 3


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def run_bench(cwd: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--seed", str(SEED),
           "--seconds", "0.3", "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def workloads_report_every_metric() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", workload["name"], "--trace", str(trace))
            what = f"{workload['name']} trace={trace}"
            expect(proc.returncode == 0, f"{what}: exit code 0 ({proc.stderr[-500:]})")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{what}: all {result['attempted']} operations correct, error_rate 0")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{what}: metric names and units match BENCHMARK.json")
            table = proc.stdout.splitlines()
            expect(all(any(line.startswith(name) and f" {unit}" in line for line in table)
                       for name, unit in wanted.items()),
                   f"{what}: every metric printed with its unit")
            expect(any(line.startswith("error_rate") for line in table), f"{what}: error_rate printed")


def checkers_catch_corruption(work: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from patentflow import (PageRankParams, assignee_exclusion_set, class_inflow_series,
                            load_dataset, pagerank)
    from patentflow.cli import main as cli_main

    truth = corpus.make_corpus(corpus.TINY, SEED)
    info = corpus.write_corpus(truth, work, SEED)
    counts = checks.graph_counts(truth.citing, truth.cited, truth.node_count)
    src, dst = counts["src"], counts["dst"]
    ds = load_dataset(info["files"]["citations.tsv"]["path"], info["files"]["patents.tsv"]["path"])
    result = pagerank(ds.graph, PageRankParams(damping=0.5))
    pos = checks.IdIndex(truth.ids).lookup(np.array(ds.index_to_id).astype(np.int64))
    scores = np.empty(truth.node_count)
    scores[pos] = result.scores

    expect(not checks.check_scores(scores, src, dst, 0.5, 1e-6), "true scores pass")
    swapped = scores.copy()
    top = np.argsort(scores)
    swapped[[top[-1], top[0]]] = swapped[[top[0], top[-1]]]
    expect(bool(checks.check_scores(swapped, src, dst, 0.5, 1e-6)),
           "scores with two entries swapped (sum intact) fail the residual check")
    scaled = scores.copy()
    scaled[top[-1]] *= 1.001
    expect(bool(checks.check_scores(scaled, src, dst, 0.5, 1e-6)), "scores not summing to 1 fail")

    cls = truth.classes[0]
    tables = checks.flow_tables(truth.class_code, truth.year, src, dst, scores, truth.classes)
    for metric in ("citation-count", "pagerank-sum"):
        entries = dict(class_inflow_series(ds, result, cls, metric).entries)
        expect(not checks.check_flow(entries, tables[cls][metric], metric), f"true {metric} flow passes")
        key = next(iter(entries))
        entries[key] = entries[key] + 1 if metric == "citation-count" else entries[key] * (1 + 1e-9)
        expect(bool(checks.check_flow(entries, tables[cls][metric], metric)),
               f"{metric} flow with one corrupted entry fails")

    query = truth.exclusion_queries[0]
    report = assignee_exclusion_set(ds, query).report()
    owned = truth.assignee_code == corpus.TINY.exclusion_ranks[0]
    expected, _ = checks.exclusion_counts(owned, src, dst)
    expect(not checks.check_exclusion_report(report, expected), "true exclusion counts pass")
    report["cites_owned"] += 1
    expect(bool(checks.check_exclusion_report(report, expected)),
           "an exclusion report with one count off by one fails")

    out = os.path.join(work, "rank")
    err = io.StringIO()
    argv = ["rank", "--citations", info["files"]["citations.tsv"]["path"],
            "--patents", info["files"]["patents.tsv"]["path"], "--out", out]
    with contextlib.redirect_stderr(err):
        expect(cli_main(argv) == 0, "rank command succeeds")
    expect(not checks.check_rank_outputs(out, err.getvalue(), truth, info["expected"], counts),
           "true rank outputs pass")
    table_path = os.path.join(out, "rank_table.csv")
    with open(table_path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    with open(table_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    expect(bool(checks.check_rank_outputs(out, err.getvalue(), truth, info["expected"], counts)),
           "rank table with two rows swapped fails")
    wrong = dict(info["expected"], placeholder_nodes=info["expected"]["placeholder_nodes"] + 1)
    expect(bool(checks.check_build_report(checks.build_report_line(err.getvalue()), wrong, counts)),
           "a parse report that disagrees with the planted counts fails")


def refuses_outside_checkout(work: str) -> None:
    bare = os.path.join(work, "bare")
    shutil.copytree(BENCH_DIR, os.path.join(bare, os.path.basename(BENCH_DIR)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(bare, "--workload", "tsv_rank", "--trace", "0")
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/patentflow: non-zero exit and no result")


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_runs", f"smoke-{os.getpid()}")
    os.makedirs(work)
    try:
        refuses_outside_checkout(work)
        checkers_catch_corruption(work)
        workloads_report_every_metric()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
