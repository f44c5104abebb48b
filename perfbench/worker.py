"""One workload's in-process work, run in a fresh process by run.py.

Usage: python3 perfbench/worker.py CONFIG_JSON

The process loads the inputs run.py wrote, runs set-up and then units of
work for the configured number of seconds, reads its own peak RSS, and only
then checks every output against ground truth it regenerates from the seed.
The result (samples, counts, failures, per-layer metrics when traced) is
written as JSON to the path named in the config.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import corpus
import layers
import spans

DAMPINGS = (0.01, 0.15, 0.5, 0.85, 0.99)  # the CLI's default sweep
DAMPING = 0.5  # the CLI's default damping
EPSILON = 1e-6  # the CLI's default epsilon
METRICS = ("citation-count", "pagerank-sum")
STARTUP_SAMPLES = 5


def program(module: str):
    """A patentflow module by path (the package rebinds some names to functions)."""
    return importlib.import_module(f"patentflow.{module}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_units(seconds: float, unit, tracer) -> tuple[list[float], list[float], list[str]]:
    """Call ``unit(k)`` until ``seconds`` have passed; it returns its own wall time.

    Untraced runs need one unit. Traced runs alternate traced and untraced
    units, starting traced, and need one of each.
    """
    untraced, traced, phases = [], [], []
    minimum = 1 if tracer is None else 2
    start = time.perf_counter()
    k = 0
    while k < minimum or time.perf_counter() - start < seconds:
        if tracer is not None and k % 2 == 0:
            tracer.phase = f"unit{k}"
            phases.append(tracer.phase)
            tracer.install()
            try:
                traced.append(unit(k))
            finally:
                tracer.uninstall()
        else:
            untraced.append(unit(k))
        k += 1
    return untraced, traced, phases


def traced_call(tracer, fn):
    if tracer is None:
        return fn()
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def startup_seconds() -> float:
    """Median time a fresh interpreter spends in ``import patentflow.cli``."""
    code = ("import time; t = time.perf_counter(); import patentflow.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(STARTUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def mem_sweep(cfg: dict, tracer, ops: checks.Ops) -> dict:
    pf_graph = program("graph")
    pf_pagerank = program("pagerank")

    edges = np.load(cfg["edges"])
    n = cfg["nodes"]
    # one build per run: at 1M / 10M it alone takes 8-13 s on a 2-CPU VM
    ops.attempt()
    t0 = time.perf_counter()
    try:
        graph = traced_call(tracer, lambda: pf_graph.build_graph(edges, n))
    except Exception:
        ops.crash("build_graph")
        return {"setup": []}
    setup = [time.perf_counter() - t0]

    params = [pf_pagerank.PageRankParams(damping=d) for d in DAMPINGS]
    first: list = []
    solves: list[float] = []
    iterations: list[int] = []

    def sweep(k: int) -> float:
        results, wall = [], 0.0
        for p in params:
            ops.attempt()
            t0 = time.perf_counter()
            try:
                r = pf_pagerank.pagerank(graph, p)
            except Exception:
                ops.crash(f"pagerank d={p.damping}")
                results.append(None)
                continue
            dt = time.perf_counter() - t0
            wall += dt
            solves.append(dt)
            results.append(r)
        iterations.append(sum(r.iterations for r in results if r is not None))
        if not first:
            first.extend(results)
        else:
            for p, r, r0 in zip(params, results, first):
                if r is not None:
                    same = r0 is not None and np.array_equal(r.scores, r0.scores)
                    ops.record(f"sweep {k} d={p.damping}", [] if same else
                               ["scores differ from the first sweep"])
        return wall

    untraced, traced, phases = run_units(cfg["seconds"], sweep, tracer)
    peak = peak_rss_mb()

    counts = checks.graph_counts(edges[:, 0], edges[:, 1], n)
    del edges
    r = graph.build_report
    build_failures = []
    for key in ("edges_input", "self_loops_dropped", "duplicate_edges_dropped", "edges_stored"):
        build_failures += checks.check_equal(key, getattr(r, key), counts[key])
    if not np.array_equal(graph.in_degrees, np.bincount(counts["dst"], minlength=n)):
        build_failures.append("in-degrees differ")
    if not np.array_equal(graph.out_degrees, np.bincount(counts["src"], minlength=n)):
        build_failures.append("out-degrees differ")
    ops.record("build_graph", build_failures)
    for p, r in zip(params, first):
        if r is not None:
            failures = checks.check_scores(r.scores, counts["src"], counts["dst"], p.damping, p.epsilon)
            if not r.converged:
                failures.append("not converged")
            ops.record(f"pagerank d={p.damping}", failures)
    return {
        "setup": setup, "units": untraced, "traced_units": traced, "phases": phases,
        "solves": solves, "iterations": iterations, "peak_rss_mb": peak,
    }


def analyst(cfg: dict, tracer, ops: checks.Ops) -> dict:
    pf_ingest = program("ingest")
    pf_pagerank = program("pagerank")
    pf_trends = program("trends")

    params = pf_pagerank.PageRankParams(damping=DAMPING)
    # one set-up per run: a second load in the same process reuses freed
    # memory unpredictably, which made peak RSS vary by several percent
    ops.attempt()
    t0 = time.perf_counter()
    try:
        ds = traced_call(tracer, lambda: pf_ingest.load_dataset(cfg["citations"], cfg["patents"]))
        result = traced_call(tracer, lambda: pf_pagerank.pagerank(ds.graph, params))
    except Exception:
        ops.crash("load_dataset + pagerank")
        return {"setup": []}
    setup = [time.perf_counter() - t0]

    classes = cfg["classes"]
    target = cfg["exclusion_target"]
    flows_first: dict = {}
    excl_first: dict = {}
    flow_lat: list[float] = []
    excl_lat: list[float] = []

    def session(k: int) -> float:
        wall = 0.0
        for cls in classes:
            for metric in METRICS:
                ops.attempt()
                t0 = time.perf_counter()
                try:
                    entries = pf_trends.class_inflow_series(ds, result, cls, metric).entries
                except Exception:
                    ops.crash(f"flow {cls} {metric}")
                    continue
                dt = time.perf_counter() - t0
                wall += dt
                flow_lat.append(dt)
                if k == 0:
                    flows_first[cls, metric] = entries
                else:
                    ops.record(f"session {k} flow {cls} {metric}",
                               [] if entries == flows_first.get((cls, metric)) else
                               ["differs from the first session"])
        for i, query in enumerate(cfg["queries"]):
            ops.attempt()
            t0 = time.perf_counter()
            try:
                exclusion = pf_trends.assignee_exclusion_set(ds, query)
                reduced, _ = pf_trends.apply_exclusion(ds, exclusion)
                r = pf_pagerank.pagerank(reduced.graph, params)
                flows = [pf_trends.class_inflow_series(reduced, r, target, m).entries for m in METRICS]
            except Exception:
                ops.crash(f"exclusion {query!r}")
                continue
            dt = time.perf_counter() - t0
            wall += dt
            excl_lat.append(dt)
            if k == 0:
                excl_first[i] = (exclusion.report(), reduced.index_to_id, r, flows)
            else:
                ref = excl_first.get(i)
                same = (ref is not None and ref[0] == exclusion.report()
                        and ref[1] == reduced.index_to_id
                        and np.array_equal(ref[2].scores, r.scores) and ref[3] == flows)
                ops.record(f"session {k} exclusion {query!r}", [] if same else
                           ["differs from the first session"])
            # a client done with a query drops it, so two reduced datasets
            # are never alive at once and peak RSS does not depend on the
            # order of the queries' sizes
            del exclusion, reduced, r, flows
        return wall

    untraced, traced, phases = run_units(cfg["seconds"], session, tracer)
    peak = peak_rss_mb()
    _check_analyst(cfg, ds, result, flows_first, excl_first, ops)
    return {
        "setup": setup, "units": untraced, "traced_units": traced, "phases": phases,
        "flow_latencies": flow_lat, "exclusion_latencies": excl_lat, "peak_rss_mb": peak,
    }


def _check_analyst(cfg, ds, result, flows_first, excl_first, ops: checks.Ops) -> None:
    truth = corpus.make_corpus(corpus.SIZES[cfg["size"]], cfg["seed"])
    n = truth.node_count
    counts = checks.graph_counts(truth.citing, truth.cited, n)
    src, dst = counts["src"], counts["dst"]
    index = checks.IdIndex(truth.ids)

    setup_failures = checks.check_build_report(ds.build_report.to_json_dict(), cfg["expected"], counts)
    pos = index.lookup(np.array(ds.index_to_id).astype(np.int64))
    if pos is None or pos.size != n:
        ops.record("set-up", setup_failures + ["dataset ids differ from the generated ids"])
        return
    scores = np.empty(n)
    scores[pos] = result.scores
    ops.record("set-up", setup_failures + checks.check_scores(scores, src, dst, DAMPING, EPSILON))

    tables = checks.flow_tables(truth.class_code, truth.year, src, dst, scores, truth.classes)
    for (cls, metric), entries in flows_first.items():
        ops.record(f"flow {cls} {metric}", checks.check_flow(entries, tables[cls][metric], metric))

    target = truth.classes.index(cfg["exclusion_target"])
    for i, (report, ids, r, flows) in excl_first.items():
        owned = truth.assignee_code == corpus.SIZES[cfg["size"]].exclusion_ranks[i]
        expected, keep = checks.exclusion_counts(owned, src, dst)
        failures = checks.check_exclusion_report(report, expected)
        red_pos = index.lookup(np.array(ids).astype(np.int64))
        if red_pos is None or not np.array_equal(np.sort(red_pos), np.flatnonzero(keep)):
            failures.append("reduced node set differs from the independent mask")
        else:
            remap = np.cumsum(keep) - 1
            red_scores = np.empty(int(keep.sum()))
            red_scores[remap[red_pos]] = r.scores
            rsrc, rdst = checks.restrict(keep, src, dst)
            failures += checks.check_scores(red_scores, rsrc, rdst, DAMPING, EPSILON)
            table = checks.flow_tables(truth.class_code[keep], truth.year[keep], rsrc, rdst,
                                       red_scores, truth.classes, target)[truth.classes[target]]
            for metric, entries in zip(METRICS, flows):
                failures += checks.check_flow(entries, table[metric], metric)
        ops.record(f"exclusion {report.get('assignee')!r}", failures)


def tsv_rank_traced(cfg: dict, tracer, ops: checks.Ops) -> dict:
    pf_cli = program("cli")

    first_out = os.path.join(cfg["work"], "out0")
    first_err: list[str] = []

    def rank(k: int) -> float:
        out = first_out if k == 0 else os.path.join(cfg["work"], "out")
        argv = ["rank", "--citations", cfg["citations"], "--patents", cfg["patents"], "--out", out]
        err = io.StringIO()
        ops.attempt()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = pf_cli.main(argv)
        except Exception:
            ops.crash(f"rank {k}")
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        if k == 0:
            first_err.append(err.getvalue())
            if code != 0:
                ops.record("rank 0", [f"exit code {code}"])
        else:
            ops.record(f"rank {k}", checks.check_same_rank_outputs(code, out, first_out))
        return wall

    untraced, traced, phases = run_units(cfg["seconds"], rank, tracer)
    peak = peak_rss_mb()
    if first_err:
        truth = corpus.make_corpus(corpus.SIZES[cfg["size"]], cfg["seed"])
        counts = checks.graph_counts(truth.citing, truth.cited, truth.node_count)
        ops.record("rank 0", checks.check_rank_outputs(first_out, first_err[0], truth,
                                                       cfg["expected"], counts))
    return {"units": untraced, "traced_units": traced, "phases": phases, "peak_rss_mb": peak}


WORKLOADS = {"mem_sweep": mem_sweep, "analyst": analyst, "tsv_rank": tsv_rank_traced}


def main(config_path: str) -> int:
    with open(config_path) as f:
        cfg = json.load(f)
    tracer = spans.Tracer() if cfg["trace"] else None
    ops = checks.Ops()
    out = WORKLOADS[cfg["workload"]](cfg, tracer, ops)
    out.update(attempted=ops.attempted, failed=ops.failed, reasons=ops.reasons)
    if tracer is not None and out.get("traced_units"):
        overhead = statistics.median(out["traced_units"]) - statistics.median(out["units"])
        startup = startup_seconds() if cfg["workload"] == "tsv_rank" else 0.0
        out["layers"] = layers.layer_metrics(tracer.spans, out["phases"], overhead, startup)
        out["spans"] = [s.to_json() for s in tracer.spans]
    with open(cfg["result"], "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
